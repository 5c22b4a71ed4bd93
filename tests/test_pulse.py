from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwave_tdoa import (
    ConfigurationError,
    PulseSpec,
    SignalTrace,
    effective_duration,
    generate_pulse,
    half_power_band,
    spectral_peak,
)
from mmwave_tdoa.harness import ExperimentConfig
from mmwave_tdoa.pulse import _hermite


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        PulseSpec(order=-1, center_frequency=200e9, power=1e-6)
    with pytest.raises(ConfigurationError):
        PulseSpec(order=2, center_frequency=0.0, power=1e-6)
    with pytest.raises(ConfigurationError):
        PulseSpec(order=2, center_frequency=200e9, power=-1.0)
    with pytest.raises(ConfigurationError):
        PulseSpec(order=2, center_frequency=200e9, power=1e-6, energy_fraction_for_duration=0.5)


def test_order_zero_rejected():
    with pytest.raises(ConfigurationError, match="DC"):
        generate_pulse(PulseSpec(order=0, center_frequency=200e9, power=1e-6))


def test_step_too_coarse_rejected():
    with pytest.raises(ConfigurationError, match="too coarse"):
        generate_pulse(PulseSpec(order=2, center_frequency=200e9, power=1e-6), step=1e-12)


@pytest.mark.parametrize("order", [*range(1, 11), 13, 20, 64])
def test_spectral_peak_at_center_frequency(order):
    trace = generate_pulse(PulseSpec(order=order, center_frequency=200e9, power=1e-6))
    assert np.all(np.isfinite(trace.samples))
    assert spectral_peak(trace) == pytest.approx(200e9, rel=0.02)


def test_second_order_peak_within_published_window(pulse2):
    assert 196e9 <= spectral_peak(pulse2) <= 204e9


def test_first_order_is_odd():
    trace = generate_pulse(PulseSpec(order=1, center_frequency=200e9, power=1e-6))
    mid = len(trace) // 2
    assert trace.samples[mid] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(trace.samples, -trace.samples[::-1], atol=1e-15)
    integral = np.sum(trace.samples) * trace.step
    assert abs(integral) < 1e-6 * np.max(np.abs(trace.samples)) * trace.duration


def test_energy_equals_power_times_duration(pulse2, tp2):
    # independent quadrature oracle: trapezoid instead of rectangle sums
    energy = np.trapezoid(pulse2.samples**2, dx=pulse2.step)
    assert energy == pytest.approx(1e-6 * tp2, rel=0.01)


def test_average_power_over_duration(pulse2, tp2):
    mid = len(pulse2) // 2
    w = int(round(tp2 / pulse2.step / 2))
    inside = pulse2.samples[mid - w : mid + w + 1]
    power = np.sum(inside**2) * pulse2.step / tp2
    assert power == pytest.approx(1e-6, rel=0.01)


def test_half_power_band_published_values(pulse2):
    f_low, f_high = half_power_band(pulse2)
    assert f_low == pytest.approx(123.38e9, rel=0.03)
    assert f_high == pytest.approx(288.30e9, rel=0.03)


def test_half_power_band_brackets_peak(pulse2):
    f_low, f_high = half_power_band(pulse2)
    peak = spectral_peak(pulse2)
    assert f_low < peak < f_high


def test_half_power_band_amplitude_invariant(pulse2):
    doubled = SignalTrace(pulse2.start_time, pulse2.step, 2.0 * pulse2.samples)
    assert half_power_band(doubled) == pytest.approx(half_power_band(pulse2))


def test_half_power_band_rejects_zero_trace():
    zero = SignalTrace(0.0, 1e-12, np.zeros(64))
    with pytest.raises(ConfigurationError):
        half_power_band(zero)


def test_parseval(pulse2):
    nfft = 1 << 18
    spectrum = np.fft.rfft(pulse2.samples, nfft) * pulse2.step
    df = 1.0 / (nfft * pulse2.step)
    freq_energy = 2.0 * np.sum(np.abs(spectrum) ** 2) * df
    assert freq_energy == pytest.approx(pulse2.energy(), rel=0.005)


def test_duration_is_tens_of_picoseconds(tp2):
    assert 1e-12 < tp2 < 1e-10


def test_duration_grows_toward_full_support(pulse2, tp2):
    near_one = effective_duration(pulse2, 0.9999999)
    assert tp2 <= near_one <= pulse2.duration


def test_duration_monotone_in_fraction(pulse2):
    fractions = [0.99, 0.995, 0.999, 0.9999, 0.99999]
    durations = [effective_duration(pulse2, f) for f in fractions]
    assert durations == sorted(durations)


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=25, deadline=None)
def test_duration_invariant_under_scaling(scale):
    trace = generate_pulse(PulseSpec(order=3, center_frequency=150e9, power=1e-6))
    scaled = SignalTrace(trace.start_time, trace.step, scale * trace.samples)
    assert effective_duration(scaled, 0.9999) == effective_duration(trace, 0.9999)


def test_duration_invariant_under_translation(pulse2, tp2):
    shifted = SignalTrace(pulse2.start_time + 3.7e-9, pulse2.step, pulse2.samples)
    assert effective_duration(shifted, 0.9999) == tp2


def test_duration_rejects_zero_energy():
    zero = SignalTrace(0.0, 1e-12, np.zeros(32))
    with pytest.raises(ConfigurationError, match="energy is zero"):
        effective_duration(zero, 0.9999)


def test_duration_rejects_bad_fraction(pulse2):
    with pytest.raises(ConfigurationError):
        effective_duration(pulse2, 0.5)
    with pytest.raises(ConfigurationError):
        effective_duration(pulse2, 1.0)


def _bisected_duration(trace, fraction):
    """The bisection `effective_duration` ran before its first-crossing
    search: the smallest half-width m whose centered energy reaches the
    target, found by halving [0, max half-width]."""
    e = trace.samples * trace.samples
    total = float(np.sum(e))
    cum = np.cumsum(e)
    ic = int(round(float(np.sum(np.arange(e.size) * e) / total)))
    n = e.size

    def contained(m):
        lo, hi = max(ic - m, 0), min(ic + m, n - 1)
        return float(cum[hi] - (cum[lo - 1] if lo > 0 else 0.0))

    target = fraction * total
    lo_m, hi_m = 0, max(ic, n - 1 - ic)
    if contained(hi_m) < target:
        return trace.duration
    while lo_m < hi_m:
        mid = (lo_m + hi_m) // 2
        if contained(mid) >= target:
            hi_m = mid
        else:
            lo_m = mid + 1
    return 2.0 * lo_m * trace.step


PACKAGED = Path(__file__).parents[1] / "configs"


@pytest.mark.parametrize(
    "spec, step",
    [(PulseSpec(order, 100e9, 1e-6), 5e-14) for order in range(1, 14)]
    + [
        (
            PulseSpec(cfg.pulse_order, cfg.pulse_center_frequency, cfg.pulse_power),
            cfg.step,
        )
        for cfg in map(ExperimentConfig.from_file, sorted(PACKAGED.glob("*.json")))
    ],
)
def test_first_crossing_duration_equals_the_bisection(spec, step):
    """contained(m) is non-decreasing in floating point (cum[hi] rises and
    the sum below lo falls), so the first m to reach the target is the one
    bisection finds: t_p is bit-identical."""
    pulse = generate_pulse(spec, step)
    for fraction in (0.99, 0.995, 0.9999, 0.9999999):
        assert effective_duration(pulse, fraction) == _bisected_duration(pulse, fraction)


# At 200 GHz the squared Hermite form first overflows at order 149.
@pytest.mark.parametrize("order", [149, 150, 160, 200, 300])
def test_an_order_that_overflows_is_rejected_naming_pulse_order(order):
    with pytest.raises(ConfigurationError, match="^pulse_order") as info:
        generate_pulse(PulseSpec(order=order, center_frequency=200e9, power=1e-6))
    assert "overflows double precision" in str(info.value)


@pytest.mark.parametrize("order", range(13))
def test_the_inline_hermite_recurrence_is_numpys_hermval_bit_for_bit(order):
    """numpy's `hermval` stays the reference; the package no longer imports
    `numpy.polynomial`, a few ms of every process's start."""
    from numpy.polynomial.hermite import hermval

    x = np.concatenate([np.linspace(-12.0, 12.0, 40_001), [0.0, -0.0, 1e-300, -1e-300]])
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    assert np.array_equal(_hermite(x, order), hermval(x, coeffs))
