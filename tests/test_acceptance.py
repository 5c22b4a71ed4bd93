"""Acceptance suite: each numbered test checks one release criterion at its
stated tolerance and prints one PASS line (run with `pytest -s` to see them
on success; failures surface through the assertions)."""
import numpy as np
import pytest

from mmwave_tdoa import (
    C0,
    AbsorptionTable,
    BsLayout,
    ChannelSpec,
    DetectorBankConfig,
    ExperimentConfig,
    PulseSpec,
    SignalTrace,
    ToaTriplet,
    effective_duration,
    energy_peak,
    generate_pulse,
    half_power_band,
    iterative_toa,
    noise_variance,
    propagate,
    run_experiment,
    solve_position,
    tdoa_ranges,
    transmit_psd,
)
from mmwave_tdoa.channel import PathCache, noise_background_psd, noise_self_psd
from mmwave_tdoa.cli import main

from conftest import T_OB, place_pulse, place_with_energy_peak, windowed_energy_argmax

STEP = 5e-14
N_OB = int(round(T_OB / STEP)) + 1

ANCHOR_AEDE_600GHZ = 0.188e-3  # anchor value at alpha = 4096 / f_s = 600 GHz


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def reference_sweep():
    """Shared desk-scale accuracy sweep at the reference setup:
    2 m layout, 1 uW second-order 200 GHz pulse, t_ob = 10 ns, 10 positions,
    50 runs, three bank sizes and three sampling rates."""
    cfg = ExperimentConfig(
        layout_size=2.0,
        pulse_order=2,
        pulse_center_frequency=200e9,
        pulse_power=1e-6,
        t_ob=10e-9,
        n_positions=10,
        n_runs=50,
        seed=20260808,
        mq_pairs=((12, 2), (2, 11), (10, 3)),
        sampling_rates=(300e9, 600e9, 1000e9),
        estimator="both",
        noise=True,
    )
    _, summary, _ = run_experiment(cfg)
    return summary["results"]


def test_01_quantization_contract(tp2):
    rng = np.random.default_rng(101)
    arrivals = rng.uniform(0.5e-9, 9.5e-9, size=200)
    configs = [(3, 2), (10, 2), (2, 11)]
    failures = 0
    for t0 in arrivals:
        v = place_pulse(2, 200e9, t0, STEP, N_OB)
        t_star = windowed_energy_argmax(v, tp2)
        peak = energy_peak(v, tp2, T_OB)
        for m, q in configs:
            cfg = DetectorBankConfig(branches=m, stages=q, t_ob=T_OB, t_p=tp2)
            delta = cfg.resolution
            tau = iterative_toa(v, peak, cfg).tau
            # floor in exact arithmetic: when the grid-point argmax coincides
            # with a cell edge it belongs to the upper half-open cell, which
            # float division can miss by one ulp. The nudge is far above the
            # rounding noise yet far below the smallest true grid-to-edge gap
            # (step/64 for these bank shapes), so interior points never move.
            expected = delta * np.floor((t_star + 1e-6 * STEP) / delta)
            if abs(tau - expected) > STEP / 4:
                failures += 1
    assert failures == 0
    report(1, f"{len(arrivals)} arrivals x {len(configs)} banks, 0 contract failures")


def test_02_two_pass_walkthrough():
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
    report(2, f"peak at 7.5685 ns refined as {est.taus[0]:.1e} then {est.taus[1]:.2e} s")


def test_03_half_power_band(pulse2):
    f_low, f_high = half_power_band(pulse2)
    assert f_low == pytest.approx(123.38e9, rel=0.03)
    assert f_high == pytest.approx(288.30e9, rel=0.03)
    report(3, f"half-power band ({f_low / 1e9:.2f}, {f_high / 1e9:.2f}) GHz")


def test_04_localization_round_trip():
    layout = BsLayout.corner(2.0)
    anchors = layout.positions()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(0.02, 1.98, size=2)
        dists = np.hypot(anchors[:, 0] - x, anchors[:, 1] - y)
        toas = ToaTriplet(tau1=dists[0] / C0, tau2=dists[1] / C0, tau3=dists[2] / C0)
        ex, ey = solve_position(layout, tdoa_ranges(toas))
        worst = max(worst, float(np.hypot(ex - x, ey - y)))
    assert worst < 1e-9
    report(4, f"100 exact-TOA round trips, worst residual {worst:.2e} m")


def test_05_accuracy_anchor(reference_sweep):
    by_key = {(r["estimator"], r["alpha"], r["f_s_hz"]): r["aede_m"] for r in reference_sweep}
    ctma = by_key[("ctma", 4096, None)]
    sampling = by_key[("sampling", None, 600e9)]
    assert ANCHOR_AEDE_600GHZ / 3.0 <= ctma <= ANCHOR_AEDE_600GHZ * 3.0
    assert ANCHOR_AEDE_600GHZ / 3.0 <= sampling <= ANCHOR_AEDE_600GHZ * 3.0
    ratio = max(ctma, sampling) / min(ctma, sampling)
    assert ratio <= 2.0
    report(
        5,
        f"alpha=4096 AEDE {ctma * 1e3:.3f} mm, 600 GHz AEDE {sampling * 1e3:.3f} mm, "
        f"anchor 0.188 mm, estimator ratio {ratio:.2f}",
    )


def test_06_accuracy_trends(reference_sweep):
    ctma = {r["alpha"]: r["aede_m"] for r in reference_sweep if r["estimator"] == "ctma"}
    sampling = {r["f_s_hz"]: r["aede_m"] for r in reference_sweep if r["estimator"] == "sampling"}
    series = [ctma[a] for a in (1728, 4096, 10000)]
    for earlier, later in zip(series, series[1:]):
        assert later <= earlier * 1.10  # non-increasing within a 10% uptick
    rates = [sampling[f] for f in (300e9, 600e9, 1000e9)]
    assert rates[0] > rates[1] > rates[2]
    report(
        6,
        "AEDE mm: alpha {1728,4096,10000} -> "
        + ", ".join(f"{v * 1e3:.3f}" for v in series)
        + "; f_s {300,600,1000} GHz -> "
        + ", ".join(f"{v * 1e3:.3f}" for v in rates),
    )


def test_07_noise_model(pulse2):
    table = AbsorptionTable(frequencies=np.array([50e9, 500e9]), k=np.array([0.01, 0.01]))
    spec = ChannelSpec(distance=2.0, center_frequency=200e9, band=(100e9, 300e9))
    psd = transmit_psd(pulse2, spec.band, 1e-6)
    value = noise_variance(spec, table, psd)

    segments = 40960
    f = np.linspace(spec.band[0], spec.band[1], segments + 1)
    k = table.coefficient(f)
    s_g = np.interp(f, psd[0], psd[1])
    y = noise_background_psd(spec, k) + noise_self_psd(spec, k, s_g)
    h = (f[-1] - f[0]) / segments
    simpson = h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))
    assert value == pytest.approx(simpson, rel=0.01)

    silent = SignalTrace(pulse2.start_time, pulse2.step, np.zeros(8))
    rx = propagate(PathCache(silent, table, window=55e-9), spec, seed=123, noise_power=value)
    assert len(rx) >= 1_000_000
    empirical = float(np.var(rx.samples))
    assert empirical == pytest.approx(value, rel=0.05)
    report(
        7,
        f"sigma^2 {value:.3e} W vs Simpson {simpson:.3e} W; "
        f"empirical {empirical:.3e} W over {len(rx)} samples",
    )


def test_08_channel_delay(pulse2, lossless_table):
    r = C0 * 5e-9
    spec = ChannelSpec(distance=r, center_frequency=200e9, band=(100e9, 300e9))
    cache = PathCache(pulse2, lossless_table, window=10e-9)
    rx = propagate(cache, spec, seed=1, noise_power=0.0)
    corr = np.correlate(rx.samples, pulse2.samples, mode="full")
    lag = (np.argmax(corr) - (len(pulse2) - 1)) * rx.step + (rx.start_time - pulse2.start_time)
    assert abs(lag - 5e-9) <= rx.step
    report(8, f"cross-correlation lag {lag * 1e9:.6f} ns for a 5 ns path")


def test_09_determinism(tmp_path):
    import json

    cfg = {
        "n_positions": 2,
        "n_runs": 2,
        "seed": 77,
        "mq_pairs": [[2, 11]],
        "sampling_rates": [600e9],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    trials_same = (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
    summary_same = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert trials_same and summary_same
    report(9, "repeated runs produced byte-identical trials.csv and summary.json")
