import numpy as np
import pytest

from mmwave_tdoa import (
    AbsorptionTable,
    PulseSpec,
    SignalTrace,
    effective_duration,
    generate_pulse,
    harness,
)
from mmwave_tdoa.pulse import gaussian_derivative

T_OB = 10e-9


@pytest.fixture
def one_shard(monkeypatch):
    """Run every trial-run in the test's own process, for a test that
    counts per-trace calls through monkeypatches: a forked shard's calls
    would not reach it."""
    monkeypatch.setattr(harness, "_usable_cores", lambda: 1)


@pytest.fixture(scope="session")
def pulse2():
    return generate_pulse(PulseSpec(order=2, center_frequency=200e9, power=1e-6))


@pytest.fixture(scope="session")
def tp2(pulse2):
    return effective_duration(pulse2, 0.9999)


@pytest.fixture(scope="session")
def lossless_table():
    return AbsorptionTable(frequencies=np.array([1e9, 1e12]), k=np.array([0.0, 0.0]))


@pytest.fixture(scope="session")
def flat_table():
    return AbsorptionTable(frequencies=np.array([50e9, 500e9]), k=np.array([0.01, 0.01]))


def place_pulse(order: int, f_c: float, t0: float, step: float, n: int) -> SignalTrace:
    """Noise-free trace on [0, (n-1)*step] holding a unit-amplitude pulse
    whose own time origin sits at the arbitrary (off-grid) instant t0."""
    sigma = np.sqrt(order) / (2 * np.pi * f_c)
    half = sigma * (np.sqrt(2 * (2 * order + 1)) + 10.0)
    grid = np.arange(n) * step
    v = np.zeros(n)
    i0 = max(int((t0 - half) / step), 0)
    i1 = min(int((t0 + half) / step) + 2, n)
    v[i0:i1] = gaussian_derivative(grid[i0:i1] - t0, order, sigma)
    return SignalTrace(start_time=0.0, step=step, samples=v)


def windowed_energy_argmax(v: SignalTrace, t_win: float) -> float:
    """Independent dense-grid oracle for the peak of the trailing-window
    energy, computed by FFT convolution rather than running sums."""
    w = int(round(t_win / v.step))
    squared = v.samples * v.samples
    nfft = 1 << int(np.ceil(np.log2(squared.size + w)))
    kernel = np.fft.rfft(np.ones(w), nfft)
    x = np.fft.irfft(np.fft.rfft(squared, nfft) * kernel, nfft)[: squared.size]
    return float(np.argmax(x) * v.step + v.start_time)


def place_with_energy_peak(order, target, t_p, step, n) -> SignalTrace:
    """Noise-free trace whose dense-grid windowed-energy argmax lands exactly
    on the grid point `target`; a quarter-step offset breaks the symmetric
    two-point tie an on-grid pulse would produce."""
    rough = place_pulse(order, 200e9, target + 0.25 * step, step, n)
    seen = windowed_energy_argmax(rough, t_p)
    shift = round((target - seen) / step) * step
    exact = place_pulse(order, 200e9, target + shift + 0.25 * step, step, n)
    if abs(windowed_energy_argmax(exact, t_p) - target) > step / 4:
        raise AssertionError("could not pin the windowed-energy peak on target")
    return exact
