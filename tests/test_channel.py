import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwave_tdoa import (
    C0,
    AbsorptionTable,
    ChannelSpec,
    ConfigurationError,
    PulseSpec,
    SignalTrace,
    generate_pulse,
    ingest_absorption,
    noise_variance,
    propagate,
    transmit_psd,
)
from mmwave_tdoa import channel
from mmwave_tdoa.channel import (
    PHASE_BLOCK,
    PathCache,
    _band_limited_noise,
    _band_pass,
    _delay_phase,
    _fast_length,
    _in_band_bins,
    _noise_half_length,
    _noise_kernel_spectrum,
    noise_background_psd,
    noise_self_psd,
)
from mmwave_tdoa.harness import default_absorption_path

from conftest import T_OB

BAND = (100e9, 300e9)


def spec_at(distance):
    return ChannelSpec(distance=distance, center_frequency=200e9, band=BAND)


# ---------------------------------------------------------------- ingestion


def test_ingest_simple_table(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("frequency_hz,k_per_m\n1.0e11,0.001\n2.0e11,0.003\n3.0e11,0.002\n")
    table = ingest_absorption(path)
    assert table.span == (1.0e11, 3.0e11)
    # interpolated midpoint equals the arithmetic mean of its neighbors
    assert table.coefficient(1.5e11) == pytest.approx(0.002)


def test_ingest_rejects_non_monotone(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("frequency_hz,k_per_m\n2.0e11,0.001\n1.0e11,0.003\n")
    with pytest.raises(ConfigurationError, match="row 3"):
        ingest_absorption(path)


@pytest.mark.parametrize(
    "text, fractions",
    [
        ("frequency_hz,k_per_m\n1.0e11,1.0\n1.0e11,2.0\n2.0e11,3.0\n", None),
        (
            "frequency_hz,species,K_per_m\n1.0e11,H2O,1.0\n1.0e11,H2O,2.0\n2.0e11,H2O,3.0\n",
            {"H2O": 1.0},
        ),
    ],
    ids=["summed", "per-species"],
)
def test_ingest_rejects_a_repeated_frequency_naming_its_row(tmp_path, text, fractions):
    path = tmp_path / "k.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="row 3"):
        ingest_absorption(path, fractions)


def test_ingest_rejects_negative_k(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("frequency_hz,k_per_m\n1.0e11,0.001\n2.0e11,-0.003\n")
    with pytest.raises(ConfigurationError, match="row 3"):
        ingest_absorption(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "text, fractions, row",
    [
        ("frequency_hz,k_per_m\n1.0e11,0.001\n2.0e11,{bad}\n3.0e11,0.002\n", None, 3),
        ("frequency_hz,k_per_m\n1.0e11,0.001\n2.0e11,0.003\n{bad},0.002\n", None, 4),
        (
            "frequency_hz,species,K_per_m\n1.0e11,H2O,1.0\n2.0e11,H2O,{bad}\n3.0e11,H2O,2.0\n",
            {"H2O": 0.5},
            3,
        ),
    ],
    ids=["summed", "summed-frequency", "per-species"],
)
def test_ingest_rejects_a_non_finite_value_naming_its_row(tmp_path, text, fractions, row, bad):
    path = tmp_path / "k.csv"
    path.write_text(text.format(bad=bad))
    with pytest.raises(ConfigurationError, match=f"row {row}: non-finite"):
        ingest_absorption(path, fractions)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_absorption_table_rejects_a_non_finite_coefficient(bad):
    with pytest.raises(ConfigurationError, match="finite"):
        AbsorptionTable(frequencies=np.array([1e11, 2e11, 3e11]), k=np.array([0.0, bad, 0.0]))


def test_ingest_rejects_malformed_row(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("frequency_hz,k_per_m\n1.0e11,0.001\nnot-a-number,0.1\n")
    with pytest.raises(ConfigurationError, match="row 3"):
        ingest_absorption(path)


@pytest.mark.parametrize(
    "text, fractions, message",
    [
        ("frequency_hz,k_per_m\n1.0e11,0.001\n\n5e10,0.01,7\n", None, "3 cells"),
        (
            "frequency_hz,species,K_per_m\n1.0e11,H2O,0.001\n\n5e10,H2O,0.01,9\n",
            {"H2O": 1.0},
            "4 cells",
        ),
    ],
    ids=["summed", "per-species"],
)
def test_ingest_rejects_a_row_with_extra_cells(tmp_path, text, fractions, message):
    """A further cell is rejected, not dropped, with the row's number
    (the blank line 3 counts)."""
    path = tmp_path / "k.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=f"row 4: {message} where the header has"):
        ingest_absorption(path, fractions)


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            "1e11,O2,0.01\n1e11,O2,0.02\n2e11,O2,x\n",
            "row 3: frequencies must strictly increase",
        ),
        ("1e11,H2O,0.01\n2e11,O2,x\n", "no mole fraction given for species 'H2O'"),
    ],
    ids=["repeated-frequency-before-malformed", "unknown-species-before-malformed"],
)
def test_ingest_reports_the_first_faulty_row_in_file_order(tmp_path, rows, message):
    path = tmp_path / "k.csv"
    path.write_text("frequency_hz,species,K_per_m\n" + rows)
    with pytest.raises(ConfigurationError, match=message):
        ingest_absorption(path, {"O2": 1.0})


def test_ingest_rejects_unknown_header(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("freq,k\n1.0e11,0.001\n")
    with pytest.raises(ConfigurationError, match="header"):
        ingest_absorption(path)


def test_ingest_multi_species_aggregates(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text(
        "frequency_hz,species,K_per_m\n"
        "1.0e11,H2O,1.0\n1.0e11,O2,10.0\n"
        "2.0e11,H2O,2.0\n2.0e11,O2,20.0\n"
    )
    table = ingest_absorption(path, mole_fractions={"H2O": 0.02, "O2": 0.2})
    assert table.coefficient(1.0e11) == pytest.approx(0.02 * 1.0 + 0.2 * 10.0)
    assert table.coefficient(2.0e11) == pytest.approx(0.02 * 2.0 + 0.2 * 20.0)


def test_ingest_multi_species_needs_fractions(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("frequency_hz,species,K_per_m\n1.0e11,H2O,1.0\n2.0e11,H2O,2.0\n")
    with pytest.raises(ConfigurationError, match="mole-fraction"):
        ingest_absorption(path)
    with pytest.raises(ConfigurationError, match="mole fraction"):
        ingest_absorption(path, mole_fractions={"O2": 0.2})


def test_ingest_multi_species_rejects_fractions_for_absent_species(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text(
        "frequency_hz,species,K_per_m\n"
        "1.0e11,H2O,1.0\n1.0e11,O2,10.0\n"
        "2.0e11,H2O,2.0\n2.0e11,O2,20.0\n"
    )
    fractions = {"H2O": 0.5, "O2": 0.5, "h2o": 3, "N2O": 0.9}
    with pytest.raises(ConfigurationError, match="species_fractions") as info:
        ingest_absorption(path, mole_fractions=fractions)
    assert "'h2o'" in str(info.value) and "'N2O'" in str(info.value)


def test_packaged_table_loads_as_loadtxt_reads_it():
    path = default_absorption_path()
    table = ingest_absorption(path)
    freqs, k = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert table.frequencies.tobytes() == freqs.tobytes()
    assert table.k.tobytes() == k.tobytes()


def test_a_table_with_a_byte_order_mark_loads_like_the_plain_file(tmp_path):
    """Windows Notepad and Excel's "CSV UTF-8" save UTF-8 with a leading BOM."""
    marked = tmp_path / "k.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(default_absorption_path()).read_bytes())
    a = ingest_absorption(default_absorption_path())
    b = ingest_absorption(marked)
    assert a.frequencies.tobytes() == b.frequencies.tobytes()
    assert a.k.tobytes() == b.k.tobytes()


def test_a_summed_table_loads_as_one_species_at_fraction_one(tmp_path):
    """The summed layout is the per-species one with a single species."""
    summed = Path(default_absorption_path()).read_text().splitlines()
    per_species = tmp_path / "k.csv"
    per_species.write_text(
        "frequency_hz,species,K_per_m\n"
        + "".join(f"{f},air,{k}\n" for f, k in (line.split(",") for line in summed[1:]))
    )
    a = ingest_absorption(default_absorption_path())
    b = ingest_absorption(per_species, mole_fractions={"air": 1.0})
    assert a.frequencies.tobytes() == b.frequencies.tobytes()
    assert a.k.tobytes() == b.k.tobytes()


def test_packaged_table_regenerates(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_absorption_table.py"
    out = tmp_path / "table.csv"
    subprocess.run(
        [sys.executable, str(script), "--out", str(out)], check=True, capture_output=True
    )
    assert out.read_bytes() == Path(default_absorption_path()).read_bytes()


def test_table_band_coverage(lossless_table):
    assert lossless_table.covers(BAND)
    assert not lossless_table.covers((0.5e9, 300e9))


# ---------------------------------------------------------- channel response


@pytest.mark.parametrize("table_name, k", [("lossless_table", 0.0), ("flat_table", 0.01)])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 2.8])
def test_propagated_energy_matches_the_closed_form_response(request, pulse2, table_name, k, r):
    """|H(f, R)|^2 = (c0 / (4 pi R f_c))^2 exp(-k R) is flat in f for a
    constant k, so by Parseval it is the received-to-pulse energy ratio."""
    table = request.getfixturevalue(table_name)
    rx = propagate(PathCache(pulse2, table, window=10e-9), spec_at(r), seed=0, noise_power=0.0)
    spreading = C0 / (4.0 * np.pi * r * 200e9)
    expected = spreading**2 * np.exp(-k * r)
    assert rx.energy() / pulse2.energy() == pytest.approx(expected, rel=1e-12)


def test_spec_rejects_bad_geometry():
    with pytest.raises(ConfigurationError):
        ChannelSpec(distance=-1.0, center_frequency=200e9, band=BAND)
    with pytest.raises(ConfigurationError):
        ChannelSpec(distance=1.0, center_frequency=200e9, band=(300e9, 100e9))


# ------------------------------------------------------------ noise variance


def test_noise_vanishes_without_absorption(pulse2, lossless_table):
    psd = transmit_psd(pulse2, BAND, 1e-6)
    assert noise_variance(spec_at(2.0), lossless_table, psd) == 0.0


def test_noise_variance_against_simpson_oracle(pulse2, flat_table):
    spec = spec_at(2.0)
    psd = transmit_psd(pulse2, BAND, 1e-6)
    value = noise_variance(spec, flat_table, psd)

    segments = 40960  # 10x the implementation resolution
    f = np.linspace(BAND[0], BAND[1], segments + 1)
    k = flat_table.coefficient(f)
    s_g = np.interp(f, psd[0], psd[1])
    y = noise_background_psd(spec, k) + noise_self_psd(spec, k, s_g)
    h = (f[-1] - f[0]) / segments
    oracle = h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))
    assert value == pytest.approx(oracle, rel=0.01)


def test_noise_saturates_to_background_far_away(pulse2, flat_table):
    """The self-induced term dies with distance; only background survives."""
    psd = transmit_psd(pulse2, BAND, 1e-6)
    far = spec_at(1e5)
    f = np.linspace(BAND[0], BAND[1], 4097)
    background_only = np.trapezoid(noise_background_psd(far, flat_table.coefficient(f)), f)
    assert noise_variance(far, flat_table, psd) == pytest.approx(background_only, rel=1e-6)


def test_noise_variance_requires_band_coverage(pulse2):
    narrow = AbsorptionTable(frequencies=np.array([150e9, 250e9]), k=np.array([0.0, 0.0]))
    psd = transmit_psd(pulse2, BAND, 1e-6)
    with pytest.raises(ConfigurationError, match="band"):
        noise_variance(spec_at(1.0), narrow, psd)


def test_transmit_psd_normalization(pulse2):
    freqs, psd = transmit_psd(pulse2, BAND, 1e-6)
    in_band = (freqs >= BAND[0]) & (freqs <= BAND[1])
    assert np.trapezoid(psd[in_band], freqs[in_band]) == pytest.approx(1e-6, rel=1e-9)


# --------------------------------------------------------------- propagation


def test_propagation_delay_by_cross_correlation(pulse2, lossless_table):
    cache = PathCache(pulse2, lossless_table, window=10e-9)
    rx = propagate(cache, spec_at(C0 * 5e-9), seed=1, noise_power=0.0)
    corr = np.correlate(rx.samples, pulse2.samples, mode="full")
    lag = (np.argmax(corr) - (len(pulse2) - 1)) * rx.step + (rx.start_time - pulse2.start_time)
    assert abs(lag - 5e-9) <= rx.step


def test_propagation_energy_centroid_shift(pulse2, lossless_table):
    def centroid(trace):
        e = trace.samples**2
        return float(np.sum(trace.times() * e) / np.sum(e))

    r = 0.87
    cache = PathCache(pulse2, lossless_table, window=10e-9)
    rx = propagate(cache, spec_at(r), seed=1, noise_power=0.0)
    assert abs((centroid(rx) - centroid(pulse2)) - r / C0) <= rx.step


def test_propagation_attenuates_monotonically(pulse2, flat_table):
    cache = PathCache(pulse2, flat_table, window=10e-9)
    energies = [
        propagate(cache, spec_at(r), seed=0, noise_power=0.0).energy()
        for r in (0.5, 1.0, 2.0, 2.8)
    ]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_propagation_deterministic_given_seed(pulse2, flat_table):
    a = propagate(PathCache(pulse2, flat_table, window=10e-9), spec_at(2.0), 99, 1e-16)
    b = propagate(PathCache(pulse2, flat_table, window=10e-9), spec_at(2.0), 99, 1e-16)
    assert np.array_equal(a.samples, b.samples)
    c = propagate(PathCache(pulse2, flat_table, window=10e-9), spec_at(2.0), 100, 1e-16)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("power", [math.inf, math.nan, -1e-16])
def test_propagation_rejects_a_non_finite_noise_power_before_any_transform(
    pulse2, flat_table, monkeypatch, power
):
    cache = PathCache(pulse2, flat_table, window=10e-9)

    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran before the noise power was checked")

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_transform)
    with pytest.raises(ConfigurationError, match="noise power must be finite and non-negative"):
        propagate(cache, spec_at(1.0), seed=0, noise_power=power)


def test_the_trace_constructor_still_rejects_a_non_finite_sample():
    with pytest.raises(ConfigurationError, match="finite"):
        SignalTrace(0, 5e-14, [np.nan])


def test_propagation_window_overflow_names_requirement(pulse2, lossless_table):
    with pytest.raises(ConfigurationError, match="at least"):
        propagate(PathCache(pulse2, lossless_table, window=5e-9), spec_at(C0 * 9e-9), 0, 0.0)


def test_propagation_rejects_a_pulse_arriving_before_the_window(pulse2, lossless_table):
    with pytest.raises(ConfigurationError, match="before the window opens"):
        propagate(PathCache(pulse2, lossless_table, window=10e-9), spec_at(0.002), 0, 0.0)


def test_a_path_that_fails_its_checks_raises_on_every_call(pulse2, lossless_table, flat_table):
    """A path is checked on every call, so an uncovered band or an overlong
    path raises every time, with or without noise."""
    uncovered = ChannelSpec(distance=1.0, center_frequency=200e9, band=(20e9, 300e9))
    cases = [
        (PathCache(pulse2, flat_table, window=10e-9), uncovered, "must be covered"),
        (PathCache(pulse2, lossless_table, window=5e-9), spec_at(C0 * 9e-9), "at least"),
    ]
    for cache, spec, message in cases:
        for seed, power in ((0, 0.0), (1, 1e-16), (0, 0.0)):
            with pytest.raises(ConfigurationError, match=message):
                propagate(cache, spec, seed, power)


# --------------------------------------------------------------- delay phase

STEP = 5e-14


@settings(max_examples=80, deadline=None)
@given(
    nfft=st.integers(1, 3 * PHASE_BLOCK) | st.integers(1, 300_000),
    delay=st.floats(0.0, T_OB),
)
@example(nfft=204_800, delay=T_OB)  # the desk grid at its longest delay
@example(nfft=2 * (PHASE_BLOCK - 1), delay=T_OB)  # exactly one block of bins
@example(nfft=2 * PHASE_BLOCK, delay=T_OB)  # one bin past a whole block
@example(nfft=1, delay=0.0)  # a single bin
def test_delay_phase_matches_the_per_bin_exponential(nfft, delay):
    """The two-table phase equals exp(-2 pi i f delay) on every rfft bin to
    a few eps of the phase it carries, for sizes below, at and off a
    multiple of the table block."""
    reference = np.exp(-2j * np.pi * np.fft.rfftfreq(nfft, STEP) * delay)
    phase = _delay_phase(nfft, STEP, delay)
    assert phase.shape == reference.shape
    turns = 2.0 * np.pi * np.arange(reference.size) / (nfft * STEP) * delay
    tolerance = 8.0 * np.finfo(float).eps * (1.0 + turns)
    assert np.all(np.abs(phase - reference) <= tolerance)


def _per_bin_clean(cache: PathCache, spec: ChannelSpec) -> np.ndarray:
    """Reference clean waveform: the whole trace as one product, the pulse
    spectrum times H(f, R) with one complex exponential per bin, at a fast
    length that holds the window, the pulse and 4,096 steps of guard."""
    pulse = cache.pulse
    nfft = _fast_length(cache.n_out + pulse.samples.size + 4096)
    freqs = np.fft.rfftfreq(nfft, pulse.step)
    start = spec.distance / C0 + pulse.start_time
    amplitude = C0 / (4.0 * np.pi * spec.distance * spec.center_frequency)
    response = amplitude * np.exp(-0.5 * cache.table.coefficient(freqs) * spec.distance)
    product = np.fft.rfft(pulse.samples, nfft) * response * np.exp(-2j * np.pi * freqs * start)
    return np.fft.irfft(product, nfft)[: cache.n_out]


@pytest.mark.parametrize("r", [0.01, 0.37, 1.3, 2.83])
def test_clean_trace_matches_the_per_bin_exponential(pulse2, flat_table, r):
    cache = PathCache(pulse2, flat_table, window=T_OB)
    rx = propagate(cache, spec_at(r), seed=0, noise_power=0.0)
    reference = _per_bin_clean(cache, spec_at(r))
    peak = np.max(np.abs(reference))
    assert np.max(np.abs(rx.samples - reference)) <= 1e-11 * peak


def test_a_path_runs_one_short_transform_per_propagate(pulse2, flat_table, monkeypatch):
    """A noiseless trace costs one L-point irfft, L = 9,000 on the desk
    grid, on every call: no path is cached between calls."""
    cache = PathCache(pulse2, flat_table, window=T_OB)
    assert (cache.guard, cache.length) == (4096, 9000)
    calls = []

    def counting(name):
        real = getattr(np.fft, name)

        def spy(a, n=None, *args, **kwargs):
            calls.append((name, n))
            return real(a, n, *args, **kwargs)

        return spy

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name))
    propagate(cache, spec_at(1.0), seed=0, noise_power=0.0)
    assert calls == [("irfft", cache.length)]
    propagate(cache, spec_at(1.0), seed=1, noise_power=0.0)
    assert calls == [("irfft", cache.length)] * 2


@pytest.fixture(scope="module")
def packaged_table():
    return ingest_absorption(default_absorption_path())


@pytest.mark.parametrize("step", [0.05e-12, 0.1e-12, 0.25e-12])
def test_the_windowed_path_matches_a_16384_step_guard(packaged_table, monkeypatch, step):
    """The `GUARD` of 0.2 ns (4,096 steps at 0.05 ps, fewer at coarser
    steps) keeps a path's clean trace on the packaged table within 4e-6 of
    its peak of the same computation with 16,384 steps of guard, at each
    step. Measured: 8e-9 for a guard-radius path, whose piece starts before
    the window, 1.0e-6 at 1.3 m and 2.3e-6 for a path whose pulse ends a
    step before t_ob, whose piece runs past the window's end."""
    pulse = generate_pulse(PulseSpec(order=2, center_frequency=200e9, power=1e-6), step)
    cache = PathCache(pulse, packaged_table, window=T_OB)
    near, far = spec_at(0.01), spec_at((T_OB - pulse.end_time - step) * C0)
    assert cache.piece(near)[0] < 0
    assert cache.piece(far)[0] + cache.length > cache.n_out
    paths = [near, spec_at(1.3), far]
    traces = [propagate(cache, spec, seed=0, noise_power=0.0).samples for spec in paths]
    monkeypatch.setattr(channel, "GUARD", 16384 * step)
    long_cache = PathCache(pulse, packaged_table, window=T_OB)
    assert long_cache.guard == 16384
    for spec, trace in zip(paths, traces):
        reference = propagate(long_cache, spec, seed=0, noise_power=0.0).samples
        assert np.max(np.abs(trace - reference)) <= 4e-6 * np.max(np.abs(reference))


def test_noise_only_run_matches_variance(pulse2, flat_table):
    spec = spec_at(2.0)
    psd = transmit_psd(pulse2, BAND, 1e-6)
    target = noise_variance(spec, flat_table, psd)
    silent = SignalTrace(pulse2.start_time, pulse2.step, np.zeros(8))
    rx = propagate(PathCache(silent, flat_table, window=55e-9), spec, seed=123, noise_power=target)
    assert len(rx) >= 1_000_000
    assert np.var(rx.samples) == pytest.approx(target, rel=0.05)


def test_noise_is_white_within_band(pulse2, flat_table):
    spec = spec_at(2.0)
    silent = SignalTrace(pulse2.start_time, pulse2.step, np.zeros(8))
    rx = propagate(PathCache(silent, flat_table, window=55e-9), spec, seed=5, noise_power=1e-16)
    n = rx.samples - np.mean(rx.samples)
    nfft = 1 << int(np.ceil(np.log2(2 * n.size)))
    ac = np.fft.irfft(np.abs(np.fft.rfft(n, nfft)) ** 2, nfft)[: n.size]
    ac = ac / ac[0]
    lag0 = int(round(20.0 / (BAND[1] - BAND[0]) / rx.step))  # 20 periods of 1/B
    assert np.max(np.abs(ac[lag0 : lag0 + 4000])) < 0.05


# ----------------------------------------------------------- noise band-pass


def _direct_band_limited_noise(rng, n, step, band, power):
    """Reference filter: zero the out-of-band bins of one n-point rfft."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, step)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    kept = 2.0 * (band[1] - band[0]) * step
    return np.fft.irfft(spectrum, n) * np.sqrt(power / kept)


@pytest.mark.parametrize("n", [200_001, 200_000, 16_875, 16_874, 16_876, 20_001])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_band_limited_noise_matches_a_direct_n_point_filter(seed, n):
    """At 16,874, 16,875 and 16,876 points the half length
    `_noise_half_length(n)` is odd (16,875), so its rfft holds no Nyquist
    bin. At 200,001, 16,876 and 20,001 points M = n - 1 and the one
    product h[n - 1] x[n - 1] wraps: through the even row for an odd n,
    through the delayed odd row for the even 16,876. At 200,000, 16,875 and
    16,874 points n - 1 has a prime factor above 5, M >= n and nothing
    wraps."""
    step = 5e-14
    fast = _band_limited_noise(np.random.default_rng(seed), n, step, BAND, 1e-12)
    direct = _direct_band_limited_noise(np.random.default_rng(seed), n, step, BAND, 1e-12)
    rms = np.sqrt(np.mean(direct * direct))
    assert np.max(np.abs(fast - direct)) <= 1e-12 * rms


def test_noise_drawn_from_many_threads_at_once_matches_one_at_a_time():
    """Six callers at once, with thread switches every 10 us: each still
    gets its own seed's noise."""
    n, step, seeds = 20_001, 5e-14, range(6)
    serial = [_band_limited_noise(np.random.default_rng(s), n, step, BAND, 1e-12) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            futures = [
                pool.submit(_band_limited_noise, np.random.default_rng(s), n, step, BAND, 1e-12)
                for s in seeds
            ]
            concurrent = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for one, many in zip(serial, concurrent):
        assert np.array_equal(one, many)


def _exit_code_within(pid: int, seconds: float) -> int:
    """The exit code of the forked child pid, which is killed, failing the
    test, if it has not finished within seconds."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the forked child did not finish its noise within {seconds:.0f} s")
        time.sleep(0.01)


def _fork_noise_child(seed, n, step, expected) -> int:
    """Fork a child that draws seed's noise and exits 0 if it equals
    expected (3 if not); return its pid in the parent."""
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a process with threads may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            child = _band_limited_noise(seed, n, step, BAND, 1e-12)
            code = 0 if np.array_equal(child, expected) else 3
        finally:
            os._exit(code)
    return pid


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_noisy_trace_draws_the_parents_noise():
    """The noise keeps no per-process state but its memoized band-pass, so
    a child forked after the parent drew a trace's noise draws the same
    noise for the same seed, and the parent draws it again after the fork."""
    n, step, seed = 20_001, 5e-14, np.random.SeedSequence(9)
    parent = _band_limited_noise(seed, n, step, BAND, 1e-12)
    pid = _fork_noise_child(seed, n, step, parent)
    assert _exit_code_within(pid, 60.0) == 0
    assert np.array_equal(_band_limited_noise(seed, n, step, BAND, 1e-12), parent)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_while_another_thread_draws_noise_draws_its_own():
    """fork copies only the forking thread, while another thread is in the
    middle of drawing noise; the child still draws a full trace's noise,
    equal to the same seed's noise drawn alone."""
    n, step = 200_001, 5e-14
    expected = _band_limited_noise(np.random.default_rng(9), n, step, BAND, 1e-12)
    stop = threading.Event()

    def draw():
        while not stop.is_set():
            _band_limited_noise(np.random.default_rng(4), n, step, BAND, 1e-12)

    drawer = threading.Thread(target=draw)
    drawer.start()
    try:
        time.sleep(0.05)
        pid = _fork_noise_child(np.random.default_rng(9), n, step, expected)
        code = _exit_code_within(pid, 30.0)
    finally:
        stop.set()
        drawer.join()
    assert code == 0


def _rfftfreq_mask(n, step, band):
    """Reference: the n-point rfft bins whose frequencies lie in the band."""
    freqs = np.fft.rfftfreq(n, step)
    return (freqs >= band[0]) & (freqs <= band[1])


def _band_cases(n, step):
    """Bands whose edges are, in turn, inside bins, on bins, one ulp inside
    bins, up to the grid's last bin (its Nyquist bin n / 2 for an even n),
    and bands that the rule rejects: above the Nyquist frequency, between
    two bins."""
    freqs = np.fft.rfftfreq(n, step)
    lo, hi, next_up = freqs[n // 40], freqs[n // 8], freqs[n // 40 + 1]
    just_above_lo = np.nextafter(lo, np.inf)
    return {
        "inside": (BAND, True),
        "on bins": ((lo, hi), True),
        "an ulp inside": ((just_above_lo, np.nextafter(hi, 0.0)), True),
        "up to the last bin": ((lo, freqs[-1]), True),
        "above nyquist": ((100e9, 0.6 / step), False),
        "between two bins": ((just_above_lo, np.nextafter(next_up, 0.0)), False),
    }


@pytest.mark.parametrize("n", [20_000, 20_001, 200_000, 200_001])
@pytest.mark.parametrize(
    "case",
    [
        "inside",
        "on bins",
        "an ulp inside",
        "up to the last bin",
        "above nyquist",
        "between two bins",
    ],
)
def test_in_band_bins_match_the_rfftfreq_mask(n, case):
    step = 5e-14
    band, carried = _band_cases(n, step)[case]
    bins = np.flatnonzero(_rfftfreq_mask(n, step, band))
    if carried:
        assert _in_band_bins(n, step, band) == (bins[0], bins[-1])
    else:
        with pytest.raises(ConfigurationError, match=f" holds {bins.size} rfft bins of the"):
            _in_band_bins(n, step, band)


@pytest.mark.parametrize(
    "n, band",
    [
        (200_001, BAND),
        (200_000, BAND),
        (20_000, (100e9, 10e12)),  # holds the Nyquist bin n / 2, which irfft counts once
        (20_001, (100e9, 10e12)),
    ],
)
def test_the_closed_form_band_pass_matches_an_n_point_irfft_of_its_bins(n, band):
    step = 5e-14
    reference = np.fft.irfft(_rfftfreq_mask(n, step, band).astype(np.float64), n)
    kernel = _band_pass(n, step, band)
    assert np.max(np.abs(kernel - reference)) <= 1e-15 * np.max(reference)


def _largest_prime_factor(n: int) -> int:
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def test_noisy_propagation_runs_no_slow_transform_length(pulse2, flat_table, monkeypatch):
    """Every transform of a noisy trace, the first one's build of the noise
    band-pass included, has a length without a prime factor above 7 (the
    200,001-point trace itself is 3 * 163 * 409)."""
    cache = PathCache(pulse2, flat_table, window=10e-9)
    _noise_kernel_spectrum.cache_clear()
    lengths = []

    def spying(real):
        def spy(a, n=None, *args, **kwargs):
            out = real(a, n, *args, **kwargs)
            lengths.append(n if n is not None else np.shape(a)[-1])
            return out

        return spy

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, spying(getattr(np.fft, name)))
    for seed in (1, 2):
        rx = propagate(cache, spec_at(1.0), seed=seed, noise_power=1e-16)
    assert len(rx) == 200_001
    # Per trace: the path piece's irfft, then the noise's pair of rfft and
    # pair of irfft; the first trace also runs the band-pass's pair of rfft.
    assert len(lengths) == 12
    assert max(_largest_prime_factor(n) for n in lengths) <= 7


@pytest.mark.parametrize(
    "n, step, band, ratio",
    [
        (200_001, 5e-14, (100e9, 12e12), "0.8319"),  # above the 10 THz Nyquist frequency
        (50_001, 2e-13, (100e9, 3e12), "0.8276"),  # above the 2.5 THz Nyquist frequency
        (20_001, 5e-14, (200e9, 200.7e9), "0"),  # between two 1 GHz bins
    ],
)
def test_the_noise_band_pass_rejects_a_band_the_grid_cannot_carry(n, step, band, ratio):
    with pytest.raises(ConfigurationError, match=f" {ratio} times the share"):
        _noise_kernel_spectrum(n, step, band)


def test_noise_band_pass_is_cached_by_value_and_read_only():
    n, step = 200_001, 5e-14
    length, kernel, tail = _noise_kernel_spectrum(n, step, (100e9, 300e9))
    hits = _noise_kernel_spectrum.cache_info().hits
    assert _noise_kernel_spectrum(n, step, tuple([1e11, 3e11]))[1] is kernel
    assert _noise_kernel_spectrum.cache_info().hits == hits + 1
    assert length == n - 1 == 200_000
    assert tail == _band_pass(n, step, (100e9, 300e9))[-1]
    assert kernel.shape == (3, length // 2 + 1)  # even, odd and delayed odd rows
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0


@pytest.mark.parametrize("step", [0.05e-12, 0.1e-12, 0.25e-12])
@pytest.mark.parametrize("t_ob", [1e-9, 10e-9, 50e-9])
def test_the_path_cache_keeps_heap_pages_for_every_per_trace_array(
    flat_table, monkeypatch, t_ob, step
):
    """`PathCache` keeps the one block of heap pages, 4 times the noise's
    two rows of half-length transforms, 2 M = 2 `_noise_half_length(n_out)`,
    in doubles. Every per-trace array fits in it, the noise's two rows of M
    doubles or M / 2 + 1 complex bins, the trace's n_out and the path
    piece's `cache.length`, so no second caller is needed."""
    kept = []
    monkeypatch.setattr(channel, "_keep_heap_pages", kept.append)
    pulse = generate_pulse(PulseSpec(order=2, center_frequency=200e9, power=1e-6), step)
    cache = PathCache(pulse, flat_table, window=t_ob)
    half = _noise_half_length(cache.n_out)
    assert half == cache.n_out - 1  # a decimal grid's interval count is 5-smooth
    assert kept == [2 * half]
    assert cache.n_out <= 2 * half and cache.length <= 2 * half
