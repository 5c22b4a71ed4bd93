import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwave_tdoa import (
    C0,
    BsLayout,
    ConfigurationError,
    ToaTriplet,
    solve_position,
    tdoa_ranges,
)

LAYOUT = BsLayout.corner(2.0)


def exact_toas(x, y, offset=0.0):
    dists = np.hypot(
        LAYOUT.positions()[:, 0] - x, LAYOUT.positions()[:, 1] - y
    )
    return ToaTriplet(
        tau1=dists[0] / C0 + offset,
        tau2=dists[1] / C0 + offset,
        tau3=dists[2] / C0 + offset,
        common_offset_correction=offset,
    )


def test_layout_validation():
    with pytest.raises(ConfigurationError, match="origin"):
        BsLayout(bs1=(1.0, 0.0), bs2=(0.0, 2.0), bs3=(2.0, 0.0))
    with pytest.raises(ConfigurationError, match="collinear"):
        BsLayout(bs1=(0.0, 0.0), bs2=(1.0, 1.0), bs3=(2.0, 2.0))


@pytest.mark.parametrize("bs3", [(math.nan, 0.0), (2.0, math.nan)])
def test_layout_with_a_nan_coordinate_is_rejected(bs3):
    """A NaN coordinate makes det H NaN, which no magnitude test passes."""
    with pytest.raises(ConfigurationError, match="not finite"):
        BsLayout(bs1=(0.0, 0.0), bs2=(0.0, 2.0), bs3=bs3)


def test_triplet_validation():
    with pytest.raises(ConfigurationError):
        ToaTriplet(tau1=-1e-9, tau2=1e-9, tau3=1e-9)
    with pytest.raises(ConfigurationError):
        ToaTriplet(tau1=float("nan"), tau2=1e-9, tau3=1e-9)


def test_range_conversion_values():
    ranges = tdoa_ranges(ToaTriplet(tau1=3e-9, tau2=4e-9, tau3=5e-9))
    assert ranges[0] == pytest.approx(1e-9 * C0)  # 0.29979 m
    assert ranges[1] == pytest.approx(2e-9 * C0)  # 0.59958 m
    assert ranges[2] == pytest.approx(3e-9 * C0)  # 0.89938 m


def test_equal_toas_give_zero_differences():
    ranges = tdoa_ranges(ToaTriplet(tau1=4e-9, tau2=4e-9, tau3=4e-9))
    assert ranges[0] == 0.0
    assert ranges[1] == 0.0


@given(shift=st.floats(min_value=0.0, max_value=1e-6))
@settings(max_examples=30, deadline=None)
def test_common_shift_leaves_differences_unchanged(shift):
    base = ToaTriplet(tau1=3e-9, tau2=4e-9, tau3=5e-9)
    moved = ToaTriplet(tau1=3e-9 + shift, tau2=4e-9 + shift, tau3=5e-9 + shift)
    assert tdoa_ranges(moved)[0] == pytest.approx(tdoa_ranges(base)[0], abs=1e-12)
    assert tdoa_ranges(moved)[1] == pytest.approx(tdoa_ranges(base)[1], abs=1e-12)


def test_excess_offset_correction_rejected():
    ranges = tdoa_ranges(
        ToaTriplet(tau1=1e-9, tau2=2e-9, tau3=3e-9, common_offset_correction=2e-9)
    )
    with pytest.raises(ConfigurationError, match="correction"):
        solve_position(LAYOUT, ranges, r1_mode="known-clock")


def test_quadratic_mode_ignores_excess_offset_correction():
    toas = exact_toas(0.8, 1.1)
    excess = ToaTriplet(toas.tau1, toas.tau2, toas.tau3, common_offset_correction=2 * toas.tau1)
    assert tdoa_ranges(excess)[2] < 0.0
    x, y = solve_position(LAYOUT, tdoa_ranges(excess), r1_mode="quadratic")
    assert np.hypot(x - 0.8, y - 1.1) < 1e-8


def test_exact_input_round_trip():
    x, y = solve_position(LAYOUT, tdoa_ranges(exact_toas(0.5, 0.75)))
    assert abs(x - 0.5) < 1e-10
    assert abs(y - 0.75) < 1e-10


def test_round_trip_100_random_positions():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        x, y = rng.uniform(0.05, 1.95, size=2)
        ex, ey = solve_position(LAYOUT, tdoa_ranges(exact_toas(x, y)))
        assert np.hypot(ex - x, ey - y) < 1e-9


def test_node_at_reference_recovers_origin():
    x, y = solve_position(LAYOUT, tdoa_ranges(exact_toas(0.0, 0.0)))
    assert np.hypot(x, y) < 1e-12


def test_clock_offset_with_correction_is_transparent():
    plain = solve_position(LAYOUT, tdoa_ranges(exact_toas(1.2, 0.4)))
    offset = solve_position(LAYOUT, tdoa_ranges(exact_toas(1.2, 0.4, offset=5e-9)))
    assert plain == pytest.approx(offset, abs=1e-12)


def test_known_clock_is_the_one_solve_on_any_layout():
    layout = BsLayout.corner(3.0)
    h = layout.matrix()
    rng = np.random.default_rng(11)
    for _ in range(5):
        r21, r31 = rng.uniform(-2.0, 2.0, size=2)
        r1 = rng.uniform(0.0, 4.0)
        c = np.array([-r21, -r31])
        d = 0.5 * np.array([h[0] @ h[0] - r21 * r21, h[1] @ h[1] - r31 * r31])
        xy = np.linalg.solve(h, r1 * c + d)
        assert solve_position(layout, (r21, r31, r1)) == (xy[0], xy[1])


def test_square_solve_equals_normal_equations():
    ranges = tdoa_ranges(exact_toas(1.3, 0.6))
    r21, r31, r1 = ranges
    h = LAYOUT.matrix()
    c = np.array([-r21, -r31])
    d = 0.5 * np.array([h[0] @ h[0] - r21**2, h[1] @ h[1] - r31**2])
    lsq = np.linalg.inv(h.T @ h) @ h.T @ (r1 * c + d)
    direct = solve_position(LAYOUT, ranges)
    assert direct == pytest.approx(tuple(lsq), abs=1e-12)


def test_sensitivity_to_toa_perturbations():
    """Empirical condition factor of the layout: finite, reproducible, and an
    actual bound for smaller perturbations."""
    base = (0.5, 0.75)
    delta = 1e-12

    def error_for(perturbation):
        toas = exact_toas(*base)
        perturbed = ToaTriplet(
            tau1=toas.tau1 + perturbation[0] * delta,
            tau2=toas.tau2 + perturbation[1] * delta,
            tau3=toas.tau3 + perturbation[2] * delta,
        )
        x, y = solve_position(LAYOUT, tdoa_ranges(perturbed))
        return np.hypot(x - base[0], y - base[1])

    signs = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    kappa = max(error_for(s) for s in signs) / (C0 * delta)
    assert np.isfinite(kappa) and kappa < 10.0
    assert kappa == max(error_for(s) for s in signs) / (C0 * delta)  # reproducible
    for s in signs:
        assert error_for((s[0] / 2, s[1] / 2, s[2] / 2)) <= kappa * C0 * delta


def test_quadratic_mode_recovers_without_r1():
    toas = exact_toas(0.8, 1.1)
    r21, r31, _ = tdoa_ranges(toas)
    x, y = solve_position(LAYOUT, (r21, r31, 0.0), r1_mode="quadratic")
    assert np.hypot(x - 0.8, y - 1.1) < 1e-8


def test_quadratic_mode_many_positions():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y = rng.uniform(0.1, 1.9, size=2)
        r21, r31, r1 = tdoa_ranges(exact_toas(x, y))
        ex, ey = solve_position(LAYOUT, (r21, r31, 0.0), r1_mode="quadratic")
        assert np.hypot(ex - x, ey - y) < 1e-7
        kx, ky = solve_position(LAYOUT, (r21, r31, r1), r1_mode="known-clock")
        assert np.hypot(ex - kx, ey - ky) < 1e-9


def test_quadratic_mode_picks_the_root_nearest_the_box():
    # 21 um outside the box, so neither root lies within its 1e-9 m margin;
    # the other root of this geometry lands near (-90, -65) m.
    r21, r31, _ = tdoa_ranges(exact_toas(-21e-6, 0.411))
    x, y = solve_position(LAYOUT, (r21, r31, 0.0), r1_mode="quadratic")
    assert np.hypot(x + 21e-6, y - 0.411) < 1e-3


def test_unknown_mode_rejected():
    with pytest.raises(ConfigurationError, match="mode"):
        solve_position(LAYOUT, (0.1, 0.1, 1.0), r1_mode="bogus")
