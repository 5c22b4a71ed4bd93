import dataclasses
import platform
import resource
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwave_tdoa import C0, ConfigurationError, ExperimentConfig, aede, run_experiment
from mmwave_tdoa import channel, harness
from mmwave_tdoa.channel import ChannelSpec, PathCache, noise_variance, transmit_psd
from mmwave_tdoa.detector import sampling_toas
from mmwave_tdoa.harness import (
    TrialResult,
    _distances,
    _draw_positions,
    _trace_seed,
    prepare,
    summarize,
    toa_sweep,
    write_rows_csv,
)
from mmwave_tdoa.locate import BsLayout, ToaTriplet, solve_position, tdoa_ranges


def make_trial(pos, run, error, estimator="ctma", alpha=1000, f_s=None):
    return TrialResult(
        estimator=estimator,
        alpha=alpha,
        f_s_hz=f_s,
        position_index=pos,
        run_index=run,
        true_x_m=1.0,
        true_y_m=1.0,
        est_x_m=1.0 + error,
        est_y_m=1.0,
        tau1_s=5e-9,
        tau2_s=5e-9,
        tau3_s=5e-9,
        error_m=error,
    )


TINY = dict(n_positions=2, n_runs=2, seed=3, mq_pairs=((10, 2),), sampling_rates=(600e9,))


# ----------------------------------------------------------------------- aede


def test_aede_constant_errors():
    trials = [make_trial(p, r, 0.25) for p in range(3) for r in range(4)]
    assert aede(trials) == pytest.approx(0.25)


def test_aede_is_mean_of_position_means():
    trials = [make_trial(0, r, 0.1) for r in range(5)] + [make_trial(1, r, 0.3) for r in range(5)]
    assert aede(trials) == pytest.approx(0.2)


@given(
    errors=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_aede_matches_two_loop_oracle(errors):
    trials = [
        make_trial(p, r, e) for p, runs in enumerate(errors) for r, e in enumerate(runs)
    ]
    oracle = sum(sum(runs) / len(runs) for runs in errors) / len(errors)
    assert aede(trials) == pytest.approx(oracle)


def test_aede_rejects_duplicates():
    trials = [make_trial(0, 0, 0.1), make_trial(0, 0, 0.2)]
    with pytest.raises(ConfigurationError, match="duplicate"):
        aede(trials)


def test_aede_rejects_empty_and_mixed():
    with pytest.raises(ConfigurationError):
        aede([])
    mixed = [make_trial(0, 0, 0.1), make_trial(0, 1, 0.1, estimator="sampling", alpha=None, f_s=6e11)]
    with pytest.raises(ConfigurationError, match="mixed"):
        aede(mixed)


def test_summarize_orders_ctma_then_sampling():
    trials = [
        make_trial(0, 0, 0.1, alpha=4096),
        make_trial(0, 0, 0.1, alpha=1728),
        make_trial(0, 0, 0.1, estimator="sampling", alpha=None, f_s=600e9),
        make_trial(0, 0, 0.1, estimator="sampling", alpha=None, f_s=300e9),
    ]
    rows = summarize(trials)
    assert [(r["estimator"], r["alpha"], r["f_s_hz"]) for r in rows] == [
        ("ctma", 1728, None),
        ("ctma", 4096, None),
        ("sampling", None, 300e9),
        ("sampling", None, 600e9),
    ]


# --------------------------------------------------------------- config guard


def test_config_rejects_short_observation_window():
    # The pulse must arrive whole over the 2 m layout's diagonal, a 9.43 ns delay.
    with pytest.raises(ConfigurationError, match="t_ob"):
        prepare(ExperimentConfig(t_ob=5e-9))
    with pytest.raises(ConfigurationError, match="t_ob"):
        prepare(ExperimentConfig(t_ob=2.0 * np.sqrt(2.0) / C0 + 1e-12))


def test_guard_radius_floor_is_the_pulse_lead():
    """A path shorter than c0 times the pulse's lead before its own time
    origin (4.45 mm here) would start the received pulse before t = 0."""
    floor = -C0 * prepare(ExperimentConfig(**TINY)).paths.pulse.start_time
    assert 4.4e-3 < floor < 4.5e-3
    prepare(ExperimentConfig(**TINY, guard_radius=1.001 * floor))
    for guard_radius in (0.0, 0.999 * floor):
        with pytest.raises(ConfigurationError, match="guard_radius"):
            prepare(ExperimentConfig(**TINY, guard_radius=guard_radius))


def test_config_rejects_bad_modes_and_keys():
    with pytest.raises(ConfigurationError, match="toa_mode"):
        ExperimentConfig(toa_mode="energy")
    with pytest.raises(ConfigurationError, match="r1_mode"):
        ExperimentConfig(r1_mode="magic")
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        ExperimentConfig.from_dict({"layout_sz": 2.0})


def test_a_config_with_a_byte_order_mark_loads_like_the_plain_file(tmp_path):
    """Windows Notepad and Excel's "CSV UTF-8" save UTF-8 with a leading BOM."""
    desk = Path(__file__).parents[1] / "configs" / "desk_sweep.json"
    marked = tmp_path / "desk_sweep.json"
    marked.write_bytes(b"\xef\xbb\xbf" + desk.read_bytes())
    assert ExperimentConfig.from_file(marked) == ExperimentConfig.from_file(desk)


def test_prepare_rejects_unresolvable_bank():
    cfg = ExperimentConfig(mq_pairs=((10, 5),), **{k: v for k, v in TINY.items() if k != "mq_pairs"})
    with pytest.raises(ConfigurationError, match="resolution"):
        prepare(cfg)


def test_prepare_rejects_uncovered_band():
    cfg = ExperimentConfig(band=(350e9, 550e9), **TINY)
    with pytest.raises(ConfigurationError, match="cover"):
        prepare(cfg)


def test_prepare_rejects_too_fast_sampling():
    cfg = ExperimentConfig(**{**TINY, "sampling_rates": (30e12,)})
    with pytest.raises(ConfigurationError, match="grid rate"):
        prepare(cfg)


def test_prepare_and_sampling_toa_share_the_grid_rate_threshold():
    grid_rate = 1.0 / ExperimentConfig().step
    accepted, rejected = grid_rate * (1.0 + 5e-13), grid_rate * (1.0 + 1e-11)
    prep = prepare(ExperimentConfig(**{**TINY, "sampling_rates": (accepted,)}))
    sampling_toas(prep.paths.pulse, prep.t_p, [accepted])
    with pytest.raises(ConfigurationError, match="sampling_rates"):
        prepare(ExperimentConfig(**{**TINY, "sampling_rates": (rejected,)}))
    with pytest.raises(ConfigurationError, match="grid rate"):
        sampling_toas(prep.paths.pulse, prep.t_p, [rejected])


def test_positions_respect_guard_ring():
    cfg = ExperimentConfig(**{**TINY, "n_positions": 300})
    layout = BsLayout.corner(cfg.layout_size)
    anchors = layout.positions()
    for x, y in _draw_positions(cfg, layout):
        assert 0.0 <= x <= 2.0 and 0.0 <= y <= 2.0
        assert np.min(np.hypot(anchors[:, 0] - x, anchors[:, 1] - y)) > 0.01


# ------------------------------------------------------------------ execution


def test_run_experiment_is_deterministic(monkeypatch, one_shard):
    """Two runs give the same trials, summary and received traces. At
    TINY's pulse power the TOAs are bound by quantization, so only the
    traces show a change in the noise realization."""
    real, traces = harness.propagate, []

    def spy(*args, **kwargs):
        trace = real(*args, **kwargs)
        traces[-1].append(trace.samples)
        return trace

    monkeypatch.setattr(harness, "propagate", spy)
    cfg = ExperimentConfig(**TINY)
    runs = []
    for _ in range(2):
        traces.append([])
        runs.append(run_experiment(cfg)[:2])
    assert runs[0] == runs[1]
    assert len(traces[0]) == len(traces[1]) == 12
    assert all(np.array_equal(a, b) for a, b in zip(*traces))


def test_run_experiment_counts_and_fields():
    cfg = ExperimentConfig(**TINY)
    trials, summary, _ = run_experiment(cfg)
    assert len(trials) == 2 * 2 * 2  # positions x runs x estimator points
    ctma = [t for t in trials if t.estimator == "ctma"]
    assert len(ctma) == 4 and all(t.alpha == 1000 for t in ctma)
    for t in trials:
        distance = np.hypot(t.est_x_m - t.true_x_m, t.est_y_m - t.true_y_m)
        assert t.error_m == pytest.approx(distance)
    assert {r["estimator"] for r in summary["results"]} == {"ctma", "sampling"}
    assert summary["config"]["seed"] == 3


def test_estimator_filter_limits_rows():
    cfg = ExperimentConfig(**{**TINY, "estimator": "ctma"})
    trials, _, _ = run_experiment(cfg)
    assert {t.estimator for t in trials} == {"ctma"}


def test_trace_seed_streams_are_disjoint():
    from mmwave_tdoa.harness import _trace_seed

    keys = [(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (2, 0, 0, 0)]
    draws = [tuple(np.random.default_rng(_trace_seed(*k)).random(4)) for k in keys]
    assert len(set(draws)) == len(keys)


def test_noise_free_aede_follows_quantization_envelope():
    """Without noise the error is pure resolution quantization: finer banks
    do strictly better and every point stays inside the c0 * delta envelope."""
    cfg = ExperimentConfig(
        n_positions=4, n_runs=1, seed=21, mq_pairs=((10, 2), (2, 11)),
        sampling_rates=(), estimator="ctma", noise=False,
    )
    _, summary, _ = run_experiment(cfg)
    by_alpha = {r["alpha"]: r["aede_m"] for r in summary["results"]}
    assert by_alpha[4096] < by_alpha[1000]
    for alpha, value in by_alpha.items():
        assert value <= 3.0 * C0 * (10e-9 / alpha)


def test_noise_free_error_bounded_by_quantization():
    """Floor-quantized TOAs land within one cell, so the position error is
    bounded by the layout's empirical condition factor times c0 * delta."""
    cfg = ExperimentConfig(
        n_positions=1, n_runs=1, seed=9, mq_pairs=((2, 11),), sampling_rates=(),
        estimator="ctma", noise=False,
    )
    trials, _, _ = run_experiment(cfg)
    (trial,) = trials
    delta = 10e-9 / 4096

    layout = BsLayout.corner(2.0)
    dists = np.hypot(
        layout.positions()[:, 0] - trial.true_x_m, layout.positions()[:, 1] - trial.true_y_m
    )
    exact = ToaTriplet(tau1=dists[0] / C0, tau2=dists[1] / C0, tau3=dists[2] / C0)

    def err(signs):
        moved = ToaTriplet(
            tau1=exact.tau1 + signs[0] * delta,
            tau2=exact.tau2 + signs[1] * delta,
            tau3=exact.tau3 + signs[2] * delta,
        )
        x, y = solve_position(layout, tdoa_ranges(moved))
        return np.hypot(x - trial.true_x_m, y - trial.true_y_m)

    bound = max(err(s) for s in [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)])
    assert trial.error_m <= bound * 1.05


def test_toa_modes_agree_on_positions():
    """Both modes solve from the energy-peak TOAs; "start-corrected" only
    reports each TOA less t_p."""
    cfg_peak = ExperimentConfig(**TINY, toa_mode="peak")
    cfg_start = ExperimentConfig(**TINY, toa_mode="start-corrected")
    trials_p, _, _ = run_experiment(cfg_peak)
    trials_s, _, _ = run_experiment(cfg_start)
    t_p = prepare(cfg_peak).t_p
    assert len(trials_p) == len(trials_s) > 0
    for a, b in zip(trials_p, trials_s):
        assert (a.est_x_m, a.est_y_m, a.error_m) == (b.est_x_m, b.est_y_m, b.error_m)
        assert (b.tau1_s, b.tau2_s, b.tau3_s) == (a.tau1_s - t_p, a.tau2_s - t_p, a.tau3_s - t_p)


def test_quadratic_r1_mode_stays_accurate():
    cfg = ExperimentConfig(**TINY, r1_mode="quadratic")
    trials, _, _ = run_experiment(cfg)
    assert all(t.error_m < 5e-3 for t in trials)


def test_toa_sweep_tracks_true_delay():
    cfg = ExperimentConfig(
        n_positions=1, n_runs=2, seed=4, mq_pairs=((10, 2), (2, 11)),
        sampling_rates=(), estimator="ctma", noise=False, toa_position=(0.5, 0.75),
    )
    rows, _ = toa_sweep(cfg)
    assert len(rows) == 2 * 2 * 3
    alphas = [r["alpha"] for r in rows]
    assert alphas == sorted(alphas)
    for row in rows:
        delta = 10e-9 / row["alpha"]
        predicted = row["true_delay_s"] + row["peak_offset_s"]
        assert abs(row["tau_hat_s"] - predicted) <= delta + 1e-13


def test_toa_sweep_rejects_outside_position():
    cfg = ExperimentConfig(**{**TINY, "toa_position": (5.0, 5.0)})
    with pytest.raises(ConfigurationError, match="deployment"):
        toa_sweep(cfg)


def test_dump_traces(tmp_path):
    cfg = ExperimentConfig(
        n_positions=1, n_runs=1, seed=1, mq_pairs=((10, 2),), sampling_rates=(),
        estimator="ctma",
    )
    run_experiment(cfg, dump_dir=tmp_path / "traces")
    files = sorted(p.name for p in (tmp_path / "traces").iterdir())
    assert files == ["pos000_run000_bs1.csv", "pos000_run000_bs2.csv", "pos000_run000_bs3.csv"]
    prep = prepare(cfg)
    psd = transmit_psd(prep.paths.pulse, cfg.band, cfg.pulse_power)
    distances = _distances(prep.layout, *_draw_positions(cfg, prep.layout)[0])
    for b, (name, distance) in enumerate(zip(files, distances)):
        lines = (tmp_path / "traces" / name).read_text().splitlines()
        assert lines[0] == "time_s,value"
        times, values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]]).T
        path = ChannelSpec(
            distance=float(distance),
            center_frequency=cfg.pulse_center_frequency,
            band=cfg.band,
            temperature=cfg.temperature,
        )
        trace = harness.propagate(
            PathCache(prep.paths.pulse, prep.paths.table, window=cfg.t_ob),
            path,
            seed=_trace_seed(cfg.seed, 0, 0, b),
            noise_power=noise_variance(path, prep.paths.table, psd),
        )
        # Shortest round-trip floats read back to the trace's own doubles.
        assert times.tobytes() == trace.times().tobytes()
        assert values.tobytes() == trace.samples.tobytes()


def test_write_rows_csv_writes_each_cell_as_csv_writer_does(tmp_path):
    """None as an empty cell, a float (numpy's float64 too) as its shortest
    round-trip repr, anything else as str, and a comma quoted."""
    row = {
        "none": None,
        "sum": 0.1 + 0.2,
        "count": 7,
        "name": "ctma",
        "note": "a,b",
        "numpy": np.float64(0.3),
    }
    write_rows_csv([row], tmp_path / "row.csv")
    assert (tmp_path / "row.csv").read_bytes() == (
        b'none,sum,count,name,note,numpy\n,0.30000000000000004,7,ctma,"a,b",0.3\n'
    )


# -------------------------------------------------- run-invariant signal caches


def test_cached_traces_match_single_shot_propagation(monkeypatch, one_shard):
    """Every trace the shared loop propagates (one `PathCache` per
    experiment, shared by every position) equals a propagate of the same
    path on a fresh `PathCache` with the same seed and noise power."""
    cfg = ExperimentConfig(**{**TINY, "n_runs": 3})
    prep = prepare(cfg)
    positions = _draw_positions(cfg, prep.layout)
    psd = transmit_psd(prep.paths.pulse, cfg.band, cfg.pulse_power)
    anchors = prep.layout.positions()
    real = harness.propagate
    seen = []

    def spy(cache, spec, seed, noise_power, piece=None):
        trace = real(cache, spec, seed, noise_power, piece)
        _, p_idx, r_idx, b = seed.entropy
        x, y = positions[p_idx]
        path = ChannelSpec(
            distance=float(np.hypot(anchors[b, 0] - x, anchors[b, 1] - y)),
            center_frequency=cfg.pulse_center_frequency,
            band=cfg.band,
            temperature=cfg.temperature,
        )
        fresh = real(
            PathCache(prep.paths.pulse, prep.paths.table, window=cfg.t_ob),
            path,
            seed=_trace_seed(cfg.seed, p_idx, r_idx, b),
            noise_power=noise_variance(path, prep.paths.table, psd),
        )
        assert np.array_equal(trace.samples, fresh.samples)
        seen.append((p_idx, r_idx, b))
        return trace

    monkeypatch.setattr(harness, "propagate", spy)
    run_experiment(cfg)
    assert seen == [(p, r, b) for p in range(2) for r in range(3) for b in range(3)]


@pytest.mark.parametrize("entry", ["run_experiment", "toa_sweep"])
def test_prepare_builds_the_one_path_cache_every_trace_uses(monkeypatch, entry):
    """One `PathCache` per experiment, built inside `prepare` and carried as
    `prep.paths`; every trace propagates on it, with its n_out points."""
    real_cache, real_prepare, real_propagate = PathCache, prepare, harness.propagate
    built, preps, traces = [], [], []

    def counted(*args, **kwargs):
        built.append(len(preps))  # the prepare calls returned so far
        return real_cache(*args, **kwargs)

    def spy_prepare(cfg):
        preps.append(real_prepare(cfg))
        return preps[-1]

    def spy_propagate(cache, spec, seed, noise_power, piece=None):
        assert cache is preps[-1].paths
        trace = real_propagate(cache, spec, seed, noise_power, piece)
        traces.append(trace.samples.size)
        return trace

    monkeypatch.setattr(harness, "PathCache", counted)
    monkeypatch.setattr(harness, "prepare", spy_prepare)
    monkeypatch.setattr(harness, "propagate", spy_propagate)
    getattr(harness, entry)(ExperimentConfig(**TINY))
    assert built == [0] and len(preps) == 1
    assert traces and set(traces) == {preps[0].paths.n_out}


def test_a_noiseless_experiment_starts_no_thread(monkeypatch):
    """The run's work is spread over processes, not threads: nothing is started."""

    def refuse(self):
        raise AssertionError(f"a noiseless run started the thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    run_experiment(ExperimentConfig(**{**TINY, "noise": False}))


def test_an_experiment_that_raises_mid_run_leaves_the_next_ones_outputs_alone(
    monkeypatch, one_shard
):
    """A run that fails mid-way leaves no state behind: the next experiment
    in the process has the traces and outputs of the same experiment run
    before the failure."""
    cfg = ExperimentConfig(**TINY)
    real_propagate, real_sampling, calls = harness.propagate, harness.sampling_toas, []

    def run():
        traces = []

        def spy(*args, **kwargs):
            traces.append(real_propagate(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(harness, "propagate", spy)
        return run_experiment(cfg)[:2], [trace.samples for trace in traces]

    def fail_fourth(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("stopped mid-run")
        return real_sampling(*args, **kwargs)

    expected, expected_traces = run()
    monkeypatch.setattr(harness, "sampling_toas", fail_fourth)
    with pytest.raises(RuntimeError, match="stopped mid-run"):
        run_experiment(cfg)
    monkeypatch.setattr(harness, "sampling_toas", real_sampling)
    outputs, traces = run()
    assert outputs == expected and len(traces) == len(expected_traces) == 12
    assert all(np.array_equal(a, b) for a, b in zip(traces, expected_traces))


def test_noise_band_pass_is_built_once_per_experiment(one_shard):
    """Built by the first noisy trace, then looked up by every later one."""
    kernels = channel._noise_kernel_spectrum
    cfg = ExperimentConfig(**{**TINY, "sampling_rates": ()})
    kernels.cache_clear()
    run_experiment(cfg)
    info = kernels.cache_info()
    assert info.misses == 1
    assert info.hits == 3 * cfg.n_positions * cfg.n_runs - 1


def test_the_first_noisy_trace_reuses_the_band_bins_prepare_found(monkeypatch):
    """`prepare`'s band check leaves the in-band bins memoized, so the first
    noisy trace's band-pass build forms no rfft frequencies over the grid."""
    cfg = ExperimentConfig(**TINY)
    channel._in_band_bins.cache_clear()
    prep = prepare(cfg)
    channel._noise_kernel_spectrum.cache_clear()
    lengths = []
    rfftfreq = np.fft.rfftfreq

    def spy(n, d=1.0, **kwargs):
        lengths.append(n)
        return rfftfreq(n, d, **kwargs)

    monkeypatch.setattr(np.fft, "rfftfreq", spy)
    spec = ChannelSpec(distance=1.3, center_frequency=cfg.pulse_center_frequency, band=cfg.band)
    harness.propagate(prep.paths, spec, seed=0, noise_power=1e-12)
    assert channel._noise_kernel_spectrum.cache_info().misses == 1
    assert prep.paths.n_out not in lengths


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the page reuse relies on glibc's malloc thresholds"
)
def test_a_new_position_runs_on_kept_heap_pages(monkeypatch, one_shard):
    """Once the first position has run, later positions (new paths, noisy
    traces) fault in fewer fresh pages in all than one trace holds, on the
    block of heap pages that `PathCache` keeps for the noise's transform."""
    faults = []
    real = harness.propagate

    def spy(*args, **kwargs):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "propagate", spy)
    desk = ExperimentConfig.from_file(Path(__file__).parents[1] / "configs" / "desk_sweep.json")
    cfg = dataclasses.replace(desk, n_positions=4, n_runs=2)
    run_experiment(cfg)
    later = faults[-1] - faults[3 * cfg.n_runs]
    assert later < int(round(cfg.t_ob / cfg.step) + 1) * 8 // resource.getpagesize()


@pytest.mark.parametrize("entry", ["run_experiment", "toa_sweep"])
def test_each_run_is_freed_before_the_next_propagates(monkeypatch, one_shard, entry):
    """When the next run's first trace propagates, no trace of an earlier run
    is still referenced, by the loop or by its consumer; and when receiver
    b + 1 propagates, receiver b's trace is gone too."""
    runs: dict = {}
    leaks, in_flight = [], []
    real = harness.propagate

    def spy(*args, seed, **kwargs):
        run = tuple(seed.entropy[1:3])
        in_flight.append(sum(r() is not None for old in runs.values() for r in old))
        if run not in runs:
            leaks.append(in_flight[-1])
            runs[run] = []
        trace = real(*args, seed=seed, **kwargs)
        runs[run].append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(harness, "propagate", spy)
    cfg = ExperimentConfig(**{**TINY, "n_runs": 3, "mq_pairs": ((10, 2), (12, 2))})
    getattr(harness, entry)(cfg)
    assert len(runs) == (6 if entry == "run_experiment" else 3)
    assert leaks == [0] * len(runs)
    assert in_flight == [0] * (3 * len(runs))
