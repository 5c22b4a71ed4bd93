import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmwave_tdoa import (
    ChannelSpec,
    ConfigurationError,
    DetectorBankConfig,
    ExperimentConfig,
    SignalTrace,
    ToaEstimate,
    iterative_toa,
    lpf_approximation,
    noise_variance,
    propagate,
)
from mmwave_tdoa import detector
from mmwave_tdoa.detector import (
    _lpf_kernel,
    _windowed_energy,
    energy_peak,
    require_resolvable,
    sampling_toas,
)
from mmwave_tdoa.harness import prepare

from conftest import T_OB, place_pulse, place_with_energy_peak, windowed_energy_argmax

STEP = 5e-14
N_OB = int(round(T_OB / STEP)) + 1


def bank(m, q, tp2):
    return DetectorBankConfig(branches=m, stages=q, t_ob=T_OB, t_p=tp2)


# ----------------------------------------------------------------- ctma core


def _energy_peak(trace, t_win, t_start, t_end):
    """Value and time of the first maximum of the windowed energy over the
    grid points in [t_start, t_end]."""
    x = _windowed_energy(trace, t_win).samples
    i0, i1 = trace.index_range(t_start, t_end + 0.5 * trace.step)
    k = i0 + int(np.argmax(x[i0:i1]))
    return x[k], trace.start_time + k * trace.step


def test_constant_input_gives_flat_energy():
    c = 0.7
    trace = SignalTrace(0.0, 1e-12, np.full(5000, c))
    t_win = 200e-12
    x = _windowed_energy(trace, t_win).samples
    i0, i1 = trace.index_range(1e-9, 4e-9 + 0.5e-12)
    assert x[i0:i1] == pytest.approx(np.full(i1 - i0, c * c * t_win), rel=1e-9)
    value, argmax = _energy_peak(trace, t_win, 1e-9, 4e-9)
    assert value == pytest.approx(c * c * t_win, rel=1e-9)
    assert 1e-9 - 0.5e-12 <= argmax <= 4e-9 + 0.5e-12


def test_rectangular_pulse_peaks_at_trailing_edge():
    trace = SignalTrace(0.0, 1e-12, np.zeros(5000))
    trace.samples[1000:1200] = 1.0  # pulse on [1.0, 1.2) ns
    value, argmax = _energy_peak(trace, 200e-12, 0.5e-9, 4e-9)
    assert value == pytest.approx(200e-12, rel=1e-9)
    assert argmax == pytest.approx(1.2e-9, abs=1.5e-12)


def test_max_matches_brute_force_sliding_sum():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=4000) ** 2 - 0.5  # arbitrary rough trace
    trace = SignalTrace(0.0, 1e-12, samples)
    w = 137
    value, argmax = _energy_peak(trace, w * 1e-12, 0.2e-9, 3.9e-9)
    sq = samples * samples
    i0, i1 = trace.index_range(0.2e-9, 3.9e-9 + 0.5e-12)
    direct = np.array([np.sum(sq[max(0, i - w + 1) : i + 1]) for i in range(i0, i1)]) * 1e-12
    assert value == pytest.approx(np.max(direct), rel=1e-3)
    assert argmax == pytest.approx((i0 + np.argmax(direct)) * 1e-12, abs=1e-12)


def _three_array_windowed_energy(samples, w, step):
    """Reference: square, cumsum after w + 1 zeros, difference, scale, each
    in a new array."""
    squared = samples * samples
    cum = np.concatenate([np.zeros(w + 1), np.cumsum(squared)])
    return (cum[w + 1 :] - cum[1:-w]) * step


@pytest.mark.parametrize("n", [1, 2, 4000, 200_001])
@pytest.mark.parametrize(
    "window",
    [
        pytest.param(lambda n: 1, id="w=1"),
        pytest.param(lambda n: 137, id="w=137"),
        pytest.param(lambda n: n - 1, id="w=n-1"),
        pytest.param(lambda n: n, id="w=n"),
    ],
)
def test_windowed_energy_in_one_buffer_is_bit_identical(n, window):
    w = max(window(n), 1)
    step = 5e-14
    samples = np.random.default_rng(n + w).normal(scale=1e-3, size=n)
    energy = _windowed_energy(SignalTrace(0.3 * step, step, samples), w * step)
    assert np.array_equal(energy.samples, _three_array_windowed_energy(samples, w, step))
    assert (energy.start_time, energy.step, len(energy)) == (0.3 * step, step, n)


def test_windowed_energy_rejects_an_energy_that_overflows():
    with np.errstate(over="ignore"):
        with pytest.raises(ConfigurationError, match="energy overflows"):
            _windowed_energy(SignalTrace(0.0, STEP, np.full(100, 1e200)), 10 * STEP)


# ------------------------------------------------------------------- the lpf


def test_lpf_impulse_response_peak(tp2):
    trace = SignalTrace(0.0, STEP, np.zeros(20000))
    trace.samples[4000] = 1.0
    out = lpf_approximation(trace, tp2)
    beta = 1.4615 / tp2
    peak_t = out.times()[np.argmax(out.samples)]
    assert peak_t - 4000 * STEP == pytest.approx(1.0 / beta, abs=STEP)


def test_lpf_zero_in_zero_out(tp2):
    trace = SignalTrace(0.0, STEP, np.zeros(1000))
    out = lpf_approximation(trace, tp2)
    assert np.all(out.samples == 0.0)


def test_lpf_peak_near_windowed_integral_peak(tp2):
    v = place_pulse(2, 200e9, 3.2e-9, STEP, N_OB)
    exact_peak = windowed_energy_argmax(v, tp2)
    out = lpf_approximation(v, tp2)
    lpf_peak = out.times()[np.argmax(out.samples)]
    assert abs(lpf_peak - exact_peak) <= 0.25 * tp2


def test_lpf_rejects_bad_duration(tp2):
    trace = SignalTrace(0.0, STEP, np.ones(100))
    with pytest.raises(ConfigurationError):
        lpf_approximation(trace, 0.0)


# ---------------------------------------------------------- iterative refine


def test_two_pass_walkthrough_600ghz_pulse():
    from mmwave_tdoa import PulseSpec, effective_duration, generate_pulse

    tx = generate_pulse(PulseSpec(order=10, center_frequency=200e9, power=1e-6))
    tp10 = effective_duration(tx, 0.9999)
    v = place_with_energy_peak(10, 7.5685e-9, tp10, STEP, N_OB)
    est = iterative_toa(
        v,
        energy_peak(v, tp10, T_OB),
        DetectorBankConfig(branches=10, stages=2, t_ob=T_OB, t_p=tp10),
    )
    assert est.taus[0] == pytest.approx(7.0e-9, abs=1e-15)
    assert est.taus[1] == pytest.approx(7.5e-9, abs=1e-15)
    assert est.selected[0] == 3
    assert est.selected[1] == 5


def test_peak_at_window_start_selects_every_last_branch(tp2):
    v = SignalTrace(0.0, STEP, np.zeros(N_OB))
    v.samples[0] = 1.0
    cfg = bank(4, 3, tp2)
    est = iterative_toa(v, energy_peak(v, tp2, T_OB), cfg)
    assert est.selected == (4, 4, 4, 4)
    assert est.tau == 0.0


@pytest.mark.parametrize("m,q", [(3, 2), (10, 2), (2, 11)])
def test_quantization_contract_random_arrivals(m, q, tp2):
    rng = np.random.default_rng(1000 * m + q)
    cfg = bank(m, q, tp2)
    delta = cfg.resolution
    for _ in range(15):
        t0 = rng.uniform(0.5e-9, 9.5e-9)
        v = place_pulse(2, 200e9, t0, STEP, N_OB)
        t_star = windowed_energy_argmax(v, tp2)
        est = iterative_toa(v, energy_peak(v, tp2, T_OB), cfg)
        # tiny nudge: an argmax exactly on a cell edge belongs to the upper
        # half-open cell, which bare float division can miss by one ulp; the
        # nudge must stay below the smallest true grid-to-edge gap (step/64
        # for these bank shapes) so genuinely interior points never move
        assert abs(est.tau - delta * np.floor((t_star + 1e-6 * STEP) / delta)) < STEP / 4


def test_reconstruction_identity(tp2):
    v = place_pulse(2, 200e9, 6.1234e-9, STEP, N_OB)
    cfg = bank(3, 4, tp2)
    est = iterative_toa(v, energy_peak(v, tp2, T_OB), cfg)
    rebuilt = sum(
        (cfg.branches - m_hat) * cfg.t_ob / cfg.branches**q
        for q, m_hat in enumerate(est.selected, start=1)
    )
    assert rebuilt == est.tau  # bit-exact: same sum, same order


def test_refinement_is_nested(tp2):
    v = place_pulse(2, 200e9, 4.777e-9, STEP, N_OB)
    cfg = bank(5, 3, tp2)
    est = iterative_toa(v, energy_peak(v, tp2, T_OB), cfg)
    for q in range(1, len(est.taus)):
        width_prev = cfg.t_ob / cfg.branches**q
        assert est.taus[q] >= est.taus[q - 1] - 1e-18
        assert est.taus[q] - est.taus[q - 1] <= width_prev + 1e-18


def test_accuracy_bound_tightens_with_extra_stage(tp2):
    rng = np.random.default_rng(77)
    arrivals = rng.uniform(0.5e-9, 9.0e-9, size=25)
    worst = {}
    for q in (8, 9):
        cfg = bank(2, q, tp2)
        errs = []
        for t0 in arrivals:
            v = place_pulse(2, 200e9, t0, STEP, N_OB)
            t_star = windowed_energy_argmax(v, tp2)
            errs.append(abs(iterative_toa(v, energy_peak(v, tp2, T_OB), cfg).tau - t_star))
        worst[q] = max(errs)
        assert worst[q] <= cfg.resolution
    assert worst[9] <= worst[8]


def test_resolvability_guard(tp2):
    v = SignalTrace(0.0, STEP, np.zeros(N_OB))
    v.samples[1000] = 1.0
    with pytest.raises(ConfigurationError, match="resolution"):
        iterative_toa(v, energy_peak(v, tp2, T_OB), bank(10, 5, tp2))  # 1e-14 s < 4 steps


def test_trace_must_cover_the_observation_window(tp2):
    cfg = bank(2, 3, tp2)
    iterative_toa(SignalTrace(0.0, STEP, np.zeros(N_OB)), 0, cfg)  # covers [0, t_ob]
    late = SignalTrace(STEP, STEP, np.zeros(N_OB))  # starts after 0
    short = SignalTrace(0.0, STEP, np.zeros(N_OB - 20))  # ends before t_ob
    for energy in (late, short):
        with pytest.raises(ConfigurationError, match="observation window"):
            iterative_toa(energy, 0, cfg)


def test_tie_breaks_toward_earlier_interval(tp2):
    # identical energy bumps in two first-pass slots: the earlier one wins
    v = SignalTrace(0.0, STEP, np.zeros(N_OB))
    i1, i2 = 50000, 130000
    v.samples[i1 : i1 + 100] = 1.0
    v.samples[i2 : i2 + 100] = 1.0
    cfg = bank(5, 0, tp2)
    est = iterative_toa(v, energy_peak(v, tp2, T_OB), cfg)
    assert est.tau == pytest.approx(2e-9, abs=1e-15)  # slot [2, 4) ns, not [6, 8)


def _slot_max_toa(energy: SignalTrace, cfg: DetectorBankConfig) -> ToaEstimate:
    """Reference bank: every pass takes the maximum of each of its M slots
    and keeps the first slot with the largest one, as the hold capacitors
    of the branches compare them."""
    require_resolvable(cfg, energy.step)
    if energy.start_time > 0.0 or energy.end_time < cfg.t_ob - 0.5 * energy.step:
        raise ConfigurationError("trace must cover the observation window [0, t_ob]")

    x = energy.samples
    m_count = cfg.branches
    selected: list[int] = []
    taus: list[float] = []
    slot_start = 0.0
    for q in range(1, cfg.stages + 2):
        width = cfg.t_ob / m_count**q
        best_j, best_val = 0, -np.inf
        for j in range(m_count):  # j counts slots in time order
            i0, i1 = energy.index_range(slot_start + j * width, slot_start + (j + 1) * width)
            val = float(np.max(x[i0:i1])) if i1 > i0 else -np.inf
            if val > best_val:
                best_j, best_val = j, val
        selected.append(m_count - best_j)  # earlier slot = larger branch index
        slot_start += best_j * width
        taus.append(slot_start)

    tau = 0.0
    for q, m_hat in enumerate(selected, start=1):
        tau += (m_count - m_hat) * cfg.t_ob / m_count**q
    return ToaEstimate(selected=tuple(selected), taus=tuple(taus), tau=tau)


def _first_maximum(energy: SignalTrace, t_ob: float) -> int:
    """Grid index of the first maximum of energy over [0, t_ob)."""
    i0, i1 = energy.index_range(0.0, t_ob)
    return i0 + int(np.argmax(energy.samples[i0:i1]))


# Every bank shape the default grid resolves, (2, 0) to the full profile's
# (2, 13) and (12, 3).
SHAPES = [(m, q) for m in range(2, 13) for q in range(14) if T_OB / m ** (q + 1) >= 4 * STEP]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    start=st.sampled_from([0.0, -0.3 * STEP]),
    kind=st.sampled_from(["zero", "integer", "edges", "noise", "lead"]),
    density=st.floats(1e-5, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(2, 0), start=0.0, kind="zero", density=1.0, seed=0)
@example(shape=(2, 13), start=0.0, kind="edges", density=1.0, seed=1)
@example(shape=(12, 3), start=-0.3 * STEP, kind="edges", density=1.0, seed=2)
@example(shape=(12, 3), start=0.0, kind="integer", density=1e-4, seed=3)
@example(shape=(2, 13), start=0.0, kind="integer", density=0.3, seed=4)
@example(shape=(2, 3), start=-0.3 * STEP, kind="lead", density=0.75, seed=5)
def test_first_maximum_picks_the_slot_of_the_largest_slot_maximum(
    tp2, shape, start, kind, density, seed
):
    """kind: "zero" ties every point; "integer" draws 0-3 at a density of
    the points, so exact ties fall across slots; "edges" puts equal spikes
    on the two grid points either side of random final-cell edges, which
    are slot edges of every pass; "noise" has no ties; "lead" puts the
    largest value on index 0, before the window when start < 0, and a
    smaller spike at index density * (N_OB - 1)."""
    cfg = bank(*shape, tp2)
    rng = np.random.default_rng(seed)
    grid = SignalTrace(start, STEP, np.zeros(N_OB))
    x = np.zeros(N_OB)
    if kind == "integer":
        x = rng.integers(0, 4, N_OB) * (rng.random(N_OB) < density).astype(float)
    elif kind == "edges":
        for k in rng.integers(1, cfg.alpha, size=3):
            i = grid.index_range(k * cfg.resolution, T_OB)[0]
            x[i - 1 : i + 1] = 1.0
    elif kind == "noise":
        x = rng.random(N_OB)
    elif kind == "lead":
        x[0], x[int(density * (N_OB - 1))] = 2.0, 1.0
    energy = SignalTrace(start, STEP, x)
    peak = _first_maximum(energy, cfg.t_ob)
    assert iterative_toa(energy, peak, cfg) == _slot_max_toa(energy, cfg)


@pytest.mark.parametrize("power", [1e-6, 1e-9, 1e-10])
def test_the_pruned_peak_is_the_dense_first_maximum_on_noisy_desk_traces(power):
    """At desk power a few blocks can hold the peak; at 0.1 nW, in the
    threshold regime, most of them."""
    desk = ExperimentConfig.from_file(Path(__file__).parents[1] / "configs" / "desk_sweep.json")
    cfg = dataclasses.replace(desk, pulse_power=power)
    prep = prepare(cfg)
    for seed, distance in enumerate((0.05, 0.6, 1.3, 2.0, 2.8)):
        spec = ChannelSpec(distance, cfg.pulse_center_frequency, cfg.band)
        noise = noise_variance(spec, prep.paths.table, prep.psd)
        trace = propagate(prep.paths, spec, seed=seed, noise_power=noise)
        dense = _first_maximum(_windowed_energy(trace, prep.t_p), cfg.t_ob)
        assert energy_peak(trace, prep.t_p, cfg.t_ob) == dense


@pytest.mark.parametrize(
    "starts",
    [
        (50_000, 130_000),  # blocks 12 and 31 of 4,096 points
        (5 * 4096 - 120, 20 * 4096 - 120),  # each top straddles two blocks
    ],
)
def test_two_equal_maxima_in_different_blocks_give_the_earlier_peak(tp2, starts):
    """Unit bumps sum exactly, so both maxima are equal in the dense output
    and in each block's own running sum; the earlier one wins."""
    v = SignalTrace(0.0, STEP, np.zeros(N_OB))
    for i in starts:
        v.samples[i : i + 100] = 1.0
    energy = _windowed_energy(v, tp2)
    peak = energy_peak(v, tp2, T_OB)
    assert energy.samples[peak] == energy.samples[starts[1] + 99] == np.max(energy.samples)
    assert peak == _first_maximum(energy, T_OB) == starts[0] + 99


@pytest.mark.parametrize("w", [1, 160, 4096, 5000])
@pytest.mark.parametrize("start", [0.0, -0.3 * STEP])
def test_the_pruned_peak_is_the_dense_first_maximum_at_every_window(w, start):
    """White noise gives every block a like bound, so the one pass computes
    most of them: windows of one point, the desk's, one block and longer
    than a block, on a trace that starts at 0 or has a point before it; the
    window's 200,000 points end in a short block."""
    v = SignalTrace(start, STEP, np.random.default_rng(w).standard_normal(N_OB))
    energy = _windowed_energy(v, w * STEP)
    assert energy_peak(v, w * STEP, T_OB) == _first_maximum(energy, T_OB)


def test_the_pruned_peak_rejects_an_energy_that_overflows():
    with np.errstate(over="ignore"):
        with pytest.raises(ConfigurationError, match="energy overflows"):
            energy_peak(SignalTrace(0.0, STEP, np.full(100, 1e200)), 10 * STEP, 90 * STEP)


def test_the_bank_walk_rejects_a_peak_outside_the_window(tp2):
    v = SignalTrace(0.0, STEP, np.zeros(N_OB))
    for peak in (-1, N_OB - 1):
        with pytest.raises(ConfigurationError, match=f"peak index {peak} lies outside"):
            iterative_toa(v, peak, bank(2, 3, tp2))


# ----------------------------------------------------------- sampling method


def test_sampling_at_grid_rate_matches_dense_argmax(tp2):
    v = place_pulse(2, 200e9, 2.7182e-9, STEP, 100000)
    out = lpf_approximation(v, tp2)
    dense = out.times()[np.argmax(out.samples)]
    assert sampling_toas(v, tp2, [1.0 / STEP])[0] == pytest.approx(dense, abs=1e-18)


def test_sampling_quantization_bound(tp2):
    f_s = 600e9
    v = place_pulse(2, 200e9, 3.3333e-9, STEP, 100000)
    out = lpf_approximation(v, tp2)
    dense = out.times()[np.argmax(out.samples)]
    assert abs(sampling_toas(v, tp2, [f_s])[0] - dense) <= 1.0 / f_s


def test_sampling_worst_error_non_increasing_in_rate(tp2):
    rng = np.random.default_rng(11)
    arrivals = rng.uniform(0.5e-9, 4.0e-9, size=40)
    n = 100000
    worst = []
    for f_s in (300e9, 600e9, 1000e9):
        errs = []
        for t0 in arrivals:
            v = place_pulse(2, 200e9, t0, STEP, n)
            out = lpf_approximation(v, tp2)
            dense = out.times()[np.argmax(out.samples)]
            errs.append(abs(sampling_toas(v, tp2, [f_s])[0] - dense))
        worst.append(max(errs))
    assert worst[0] >= worst[1] >= worst[2]


def test_sampling_rejects_super_grid_rate(tp2):
    v = SignalTrace(0.0, STEP, np.ones(1000))
    with pytest.raises(ConfigurationError, match="grid rate"):
        sampling_toas(v, tp2, [2.0 / STEP])


def test_sampling_rejects_a_rate_with_no_sample_in_the_trace(tp2):
    v = SignalTrace(0.3 * STEP, STEP, np.ones(1000))  # (0, 50 ps]: no 1 GHz instant
    with pytest.raises(ConfigurationError, match="no sample at 1.000e[+]09 Hz"):
        sampling_toas(v, tp2, [600e9, 1e9])


def _sample_instants(trace: SignalTrace, f_s: float):
    """Rate f_s's sample instants inside the trace (phase anchored at
    t = 0), their grid positions, and the grid index j below each, clipped
    to n - 2 so that every sample lies between grid points j and j + 1."""
    detector.require_within_grid_rate(f_s, trace.step)
    first = int(np.ceil(trace.start_time * f_s - 1e-9))
    t_samples = np.arange(first, int(np.floor(trace.end_time * f_s + 1e-9)) + 1) / f_s
    pos = (t_samples - trace.start_time) / trace.step
    return t_samples, pos, np.minimum(pos.astype(np.int64), len(trace) - 2)


def _sampled_max_toa(filtered: SignalTrace, f_s: float) -> float:
    """Reference sampler: the time of the largest of every sample of the
    whole LPF output, each interpolated by grid index."""
    t_samples, pos, j = _sample_instants(filtered, f_s)
    return float(t_samples[int(np.argmax(detector._interpolate(filtered.samples, pos, j)))])


def _interp_sampling_toa(filtered: SignalTrace, f_s: float) -> float:
    """Reference sampler: np.interp over the trace's full time axis."""
    first = int(np.ceil(filtered.start_time * f_s - 1e-9))
    t_samples = np.arange(first, int(np.floor(filtered.end_time * f_s + 1e-9)) + 1) / f_s
    values = np.interp(t_samples, filtered.times(), filtered.samples)
    return float(t_samples[int(np.argmax(values))])


DESK_RATES = (300e9, 600e9, 1000e9)


@pytest.fixture(scope="module")
def desk_traces():
    """Noisy received traces of the desk config (one path, three noise
    seeds) and the config's pulse duration."""
    cfg = ExperimentConfig.from_file(Path(__file__).parents[1] / "configs" / "desk_sweep.json")
    prep = prepare(cfg)
    assert cfg.sampling_rates == DESK_RATES
    spec = ChannelSpec(distance=1.3, center_frequency=cfg.pulse_center_frequency, band=cfg.band)
    power = noise_variance(spec, prep.paths.table, prep.psd)
    traces = [propagate(prep.paths, spec, seed=seed, noise_power=power) for seed in (0, 1, 2)]
    return traces, prep.t_p


def test_first_maximum_matches_the_slot_maxima_on_desk_traces_at_every_full_profile_bank(
    desk_traces,
):
    traces, t_p = desk_traces
    full = ExperimentConfig.from_file(Path(__file__).parents[1] / "configs" / "full_sweep.json")
    energies = [_windowed_energy(trace, t_p) for trace in traces]
    for m, q in full.mq_pairs:
        cfg = DetectorBankConfig(branches=m, stages=q, t_ob=full.t_ob, t_p=t_p)
        for trace, energy in zip(traces, energies):
            peak = energy_peak(trace, t_p, full.t_ob)
            assert iterative_toa(trace, peak, cfg) == _slot_max_toa(energy, cfg)


@pytest.mark.parametrize("f_s", [*DESK_RATES, 1.0 / STEP])  # desk rates, grid rate
def test_sampling_by_grid_index_matches_interpolating_the_time_axis(desk_traces, f_s):
    traces, t_p = desk_traces
    for filtered in (lpf_approximation(trace, t_p) for trace in traces):
        assert _sampled_max_toa(filtered, f_s) == _interp_sampling_toa(filtered, f_s)


class _NanUntilFiltered(detector._BlockLpf):
    """NaN at every output point until its block is filtered: a sample that
    reads an unfiltered point is NaN, so its block's argmax is NaN and the
    block drops out, which shows as a wrong TOA."""

    def __init__(self, *args):
        super().__init__(*args)
        self.samples[:] = np.nan


GRID_RATE = 1.0 / STEP
# Below 10 GHz samples lie more than one 6,003-point LPF block apart, so
# whole blocks hold no sample of the rate.
RATES = (
    st.sampled_from([*DESK_RATES, GRID_RATE]) | st.floats(1e10, GRID_RATE) | st.floats(1e9, 1e10)
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2_001, 45_000),
    start=st.sampled_from([0.0, 0.3 * STEP]),
    pulse=st.none() | st.floats(0.0, 1.0) | st.integers(-2, 2),
    noise=st.sampled_from([0.0, 1e-3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    rates=st.lists(RATES, min_size=1, max_size=4),
)
@example(n=20_000, start=0.0, pulse=None, noise=1.0, seed=1, rates=[600e9])  # noise only
@example(n=20_000, start=0.0, pulse=None, noise=0.0, seed=0, rates=[300e9, GRID_RATE])  # all zero
@example(n=20_000, start=0.0, pulse=0.0, noise=0.0, seed=0, rates=[1e12])  # at the window start
@example(n=20_000, start=0.0, pulse=1.0, noise=0.0, seed=0, rates=[1e12, GRID_RATE])  # at its end
@example(n=20_000, start=0.0, pulse=0, noise=0.0, seed=0, rates=[GRID_RATE, 600e9])  # block edge
@example(n=20_000, start=0.0, pulse=-1, noise=1e-3, seed=2, rates=[GRID_RATE])
@example(n=2, start=0.0, pulse=1.0, noise=0.0, seed=0, rates=[GRID_RATE, 1e10])  # one block
# 1 GHz samples in blocks 0, 3, 6 and 9 only; the pulse peaks in block 4 or 5.
@example(n=60_001, start=0.0, pulse=0.5, noise=1e-3, seed=3, rates=[1e9, 600e9])
# 1.5 GHz samples in blocks 0, 2, 4 and 6; the pulse peaks in block 3, which holds none.
@example(n=45_000, start=0.0, pulse=0.5, noise=0.0, seed=0, rates=[1.5e9])
# Samples every 6,002.5 points, none in block 1 (of 6,003 points), where the
# pulse peaks: the largest lies between block 0's last point and block 1's
# first, so block 1 is filtered for it alone.
@example(n=12_000, start=0.0, pulse=0, noise=0.0, seed=0, rates=[1.0 / (6_002.5 * STEP)])
# The peak in block 0, whose input has the zero lead.
@example(n=45_000, start=0.0, pulse=0.05, noise=1e-3, seed=5, rates=[600e9, 1e12])
# The peak at the end, in the last, partial block, where j is clipped to n - 2;
# with n = 4 B + 1 that j is the last point of block 3, read with block 4's one point.
@example(n=25_012, start=0.0, pulse=1.0, noise=1e-3, seed=6, rates=[GRID_RATE, 7e11])
@example(n=24_013, start=0.0, pulse=1.0, noise=0.0, seed=0, rates=[GRID_RATE, 1e12])
def test_sampling_toas_match_sampling_the_whole_lpf_output(
    tp2, n, start, pulse, noise, seed, rates
):
    """pulse: None for no pulse, a float for a pulse at that fraction of the
    trace, an int d for an impulse whose LPF peak falls d grid points after
    the first block edge. The last point of the trace is sampled with j
    clipped to n - 2, and every value ties on an all-zero trace."""
    # The trace must hold a sample of every rate (t = 0 is one if it starts there).
    assume(start == 0.0 or all(start + (n - 1) * STEP >= 1.0 / f_s for f_s in rates))
    rng = np.random.default_rng(seed)
    samples = noise * rng.normal(size=n)
    if isinstance(pulse, float):
        samples += place_pulse(2, 200e9, pulse * (n - 1) * STEP, STEP, n).samples
    elif pulse is not None:
        n_kernel, _, spectrum = _lpf_kernel(tp2, STEP)
        edge = 2 * (spectrum.size - 1) - n_kernel + 1
        lag = int(round(tp2 / 1.4615 / STEP))  # where the kernel peaks
        samples[min(max(edge + pulse - lag, 0), n - 1)] += 1.0
    v = SignalTrace(start, STEP, samples)
    filtered = lpf_approximation(v, tp2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector, "_BlockLpf", _NanUntilFiltered)
        toas = sampling_toas(v, tp2, rates)
    assert toas == [_sampled_max_toa(filtered, f_s) for f_s in rates]


def test_sampling_toas_filter_only_the_blocks_around_a_desk_peak(desk_traces, monkeypatch):
    """A lost prune would show only as a slowdown; here it fails."""
    made = []

    class Recording(detector._BlockLpf):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(detector, "_BlockLpf", Recording)
    traces, t_p = desk_traces
    for trace in traces:
        sampling_toas(trace, t_p, DESK_RATES)
    assert [(lpf.count, lpf.done.sum()) for lpf in made] == [(34, 1)] * len(traces)


def test_matched_resolution_agreement(tp2):
    """At a resolution near the pulse duration, both estimators land within
    one cell of each other on clean traces."""
    rng = np.random.default_rng(4)
    cfg = bank(10, 2, tp2)
    delta = cfg.resolution
    for _ in range(8):
        t0 = rng.uniform(1e-9, 9e-9)
        v = place_pulse(2, 200e9, t0, STEP, N_OB)
        tau_bank = iterative_toa(v, energy_peak(v, tp2, T_OB), cfg).tau
        tau_sample = sampling_toas(v, tp2, [1.0 / delta])[0]
        assert abs(tau_bank - tau_sample) <= delta * (1.0 + 1e-9)


def test_bank_config_validation():
    with pytest.raises(ConfigurationError):
        DetectorBankConfig(branches=1, stages=2, t_ob=10e-9, t_p=1e-11)
    with pytest.raises(ConfigurationError):
        DetectorBankConfig(branches=3, stages=-1, t_ob=10e-9, t_p=1e-11)
    with pytest.raises(ConfigurationError):
        DetectorBankConfig(branches=3, stages=2, t_ob=1e-11, t_p=1e-11)
    with pytest.raises(ConfigurationError):
        DetectorBankConfig(branches=10, stages=70, t_ob=10e-9, t_p=1e-11)


# ------------------------------------------------------------ LPF kernel


def test_lpf_with_cached_kernel_matches_an_uncached_kernel(tp2):
    v = place_pulse(2, 200e9, 4.321e-9, STEP, N_OB)
    first, second = lpf_approximation(v, tp2), lpf_approximation(v, tp2)
    assert np.array_equal(first.samples, second.samples)

    beta = 1.4615 / tp2
    n_kernel = int(np.ceil(20.0 / (beta * STEP)))
    t = np.arange(n_kernel) * STEP
    kernel = beta * beta * t * np.exp(-beta * t)
    length = 1 << max(12, (2 * n_kernel).bit_length())  # overlap-save blocks
    assert length == 8192
    block = length - n_kernel + 1
    n = v.samples.size
    squared = np.concatenate([np.zeros(n_kernel - 1), v.samples * v.samples, np.zeros(length)])
    blocks = [
        np.fft.irfft(np.fft.rfft(squared[a : a + length]) * np.fft.rfft(kernel, length), length)
        for a in range(0, n, block)
    ]
    out = np.concatenate([b[n_kernel - 1 :] for b in blocks])[:n]
    assert np.array_equal(first.samples, out * STEP)


def test_lpf_blocks_match_one_full_length_convolution(tp2):
    v = place_pulse(2, 200e9, 4.321e-9, STEP, N_OB)
    v.samples[:] += np.random.default_rng(5).normal(scale=1e-2, size=N_OB)
    beta = 1.4615 / tp2
    t = np.arange(int(np.ceil(20.0 / (beta * STEP)))) * STEP
    kernel = beta * beta * t * np.exp(-beta * t)
    squared = v.samples * v.samples
    nfft = 1 << (squared.size + kernel.size).bit_length()
    full = np.fft.irfft(np.fft.rfft(squared, nfft) * np.fft.rfft(kernel, nfft), nfft)
    blocks = lpf_approximation(v, tp2).samples
    assert np.max(np.abs(blocks - full[: squared.size] * STEP)) <= 1e-12 * np.max(blocks)
