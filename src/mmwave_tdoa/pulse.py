"""Gaussian derivative pulse synthesis and spectral measurements.

The transmitted waveform is the p-th time derivative of a Gaussian,

    g_p(t) = A * d^p/dt^p exp(-t^2 / (2 sigma^2)),

with sigma = sqrt(p) / (2 pi f_c) so that the magnitude spectrum
|f|^p exp(-(2 pi f sigma)^2 / 2) peaks exactly at the requested center
frequency f_c. The amplitude A is fixed by requiring the time-averaged
power over the pulse's effective duration to equal the configured power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .trace import SignalTrace, power_spectrum

# 20 THz internal rate: resolves the full pulse spectrum (< 1 THz content)
# and the finest delay quantum exercised by the delay-bank experiments.
DEFAULT_STEP = 5e-14


@dataclass(frozen=True)
class PulseSpec:
    """Derivative order, center frequency (Hz), average power (W) over the
    effective duration, and the energy fraction defining that duration.
    Errors name the `ExperimentConfig` field that sets the value at fault."""

    order: int
    center_frequency: float
    power: float
    energy_fraction_for_duration: float = 0.9999

    def __post_init__(self):
        if self.order < 1 or int(self.order) != self.order:
            raise ConfigurationError(
                "pulse_order must be a positive integer (order 0 puts the spectral peak at DC)"
            )
        if self.order > 2**53:  # sigma takes its square root as a float
            raise ConfigurationError("pulse_order must be at most 2**53")
        if not (self.center_frequency > 0.0):
            raise ConfigurationError("pulse_center_frequency must be positive")
        if not (self.power > 0.0):
            raise ConfigurationError("pulse_power must be positive")
        _require_energy_fraction(self.energy_fraction_for_duration)

    @property
    def sigma(self) -> float:
        """Width of the base Gaussian placing the spectral peak at f_c."""
        return math.sqrt(self.order) / (2.0 * math.pi * self.center_frequency)

    @property
    def half_width(self) -> float:
        """Half-width of the synthesized support: 10 sigma past the
        outermost oscillation."""
        return self.sigma * (math.sqrt(2.0 * (2.0 * self.order + 1.0)) + 10.0)


def _require_energy_fraction(fraction: float) -> None:
    if not (0.99 <= fraction < 1.0):
        raise ConfigurationError(f"energy_fraction {fraction!r} must lie in [0.99, 1)")


def gaussian_derivative(t: np.ndarray, p: int, sigma: float) -> np.ndarray:
    """d^p/dt^p exp(-t^2/(2s^2)) = (-1)^p (s*sqrt2)^-p H_p(x) exp(-x^2), with
    x = t/(s*sqrt2), less its positive factor (s*sqrt2)^-p. `generate_pulse`
    scales the shape to its power anyway, and the factor (about 1e148 at
    order 13 and 200 GHz) would overflow the unit pulse's energy."""
    x = t / (sigma * math.sqrt(2.0))
    return (-1.0) ** p * _hermite(x, p) * np.exp(-x * x)


def _hermite(x: np.ndarray, p: int) -> np.ndarray:
    """The physicists' Hermite polynomial H_p(x) by Clenshaw's recurrence,
    step for step as numpy's `hermval` sums the series whose one
    coefficient is c_p = 1, so the values are the same bits (without
    importing `numpy.polynomial`, a few ms of every process's start)."""
    x2 = x * 2
    c0, c1 = (1.0, 0.0) if p == 0 else (0.0, 1.0)
    for nd in range(p, 1, -1):
        c0, c1 = 0.0 - c1 * (2 * (nd - 1)), c0 + c1 * x2
    return c0 + c1 * x2


def generate_pulse(spec: PulseSpec, step: float = DEFAULT_STEP) -> SignalTrace:
    """Synthesize g_p on its own support window, centered at t = 0.

    The support extends past the outermost oscillation by 10 sigma, so the
    stored tail is negligible for every energy measure used downstream.
    Errors name the config field at fault, as `PulseSpec`'s do.
    """
    if not (step > 0.0):
        raise ConfigurationError("step: the grid step must be positive")
    max_step = 1.0 / (20.0 * spec.center_frequency)
    if step > max_step:
        raise ConfigurationError(
            f"step: grid step {step:.3e} s too coarse for pulse_center_frequency = "
            f"{spec.center_frequency:.3e} Hz; need step <= {max_step:.3e} s"
        )
    n_half = int(math.ceil(spec.half_width / step))
    t = np.arange(-n_half, n_half + 1) * step

    with np.errstate(over="raise"):
        try:
            shape = gaussian_derivative(t, spec.order, spec.sigma)
            unit = SignalTrace(start_time=-n_half * step, step=step, samples=shape)
            t_p = effective_duration(unit, spec.energy_fraction_for_duration)
        except (OverflowError, FloatingPointError):
            raise ConfigurationError(
                f"pulse_order {spec.order} at f_c = {spec.center_frequency:.3e} Hz "
                "overflows double precision in the unit pulse or its energy"
            ) from None
    # Average power over T_p equals spec.power: total energy = power * T_p.
    amplitude = math.sqrt(spec.power * t_p / unit.energy())
    return SignalTrace(start_time=-n_half * step, step=step, samples=amplitude * shape)


def effective_duration(trace: SignalTrace, fraction: float) -> float:
    """Length of the shortest interval, centered on the energy centroid,
    holding `fraction` of the trace energy."""
    _require_energy_fraction(fraction)
    e = trace.samples * trace.samples
    total = float(np.sum(e))
    moment = float(np.sum(np.arange(e.size) * e))
    if not (total > 0.0 and math.isfinite(moment)):
        raise ConfigurationError(
            "cannot measure the duration of a trace whose energy is zero or overflows"
        )
    ic = int(round(moment / total))  # the energy centroid's index
    n = e.size

    # contained[m]: the energy of samples ic - m .. ic + m (clipped to the
    # trace), non-decreasing in m; the first m to reach the target wins.
    cum = np.concatenate([[0.0], np.cumsum(e)])  # cum[i]: samples before i
    m = np.arange(max(ic, n - 1 - ic) + 1)
    contained = cum[np.minimum(ic + m, n - 1) + 1] - cum[np.maximum(ic - m, 0)]
    reached = contained >= fraction * total
    if not reached[-1]:
        return trace.duration
    return 2.0 * int(np.argmax(reached)) * trace.step


def spectral_peak(trace: SignalTrace) -> float:
    """Frequency of the magnitude-spectrum maximum (zero-padded FFT grid)."""
    freqs, power = power_spectrum(trace)
    return float(freqs[int(np.argmax(power))])


def half_power_band(trace: SignalTrace) -> tuple[float, float]:
    """Frequencies where the power spectrum crosses half of its peak value.

    Crossing points are refined by linear interpolation between FFT bins.
    """
    if not np.any(trace.samples):
        raise ConfigurationError("half-power band of an all-zero trace is undefined")
    freqs, power = power_spectrum(trace)
    k = int(np.argmax(power))
    half = power[k] / 2.0

    below_lo = np.nonzero(power[:k] < half)[0]
    above_hi = np.nonzero(power[k:] < half)[0]
    if below_lo.size == 0 or above_hi.size == 0:
        raise ConfigurationError("power spectrum never crosses half power in band")
    i = below_lo[-1]
    f_low = freqs[i] + (half - power[i]) / (power[i + 1] - power[i]) * (
        freqs[i + 1] - freqs[i]
    )
    j = k + above_hi[0]
    f_high = freqs[j - 1] + (power[j - 1] - half) / (power[j - 1] - power[j]) * (
        freqs[j] - freqs[j - 1]
    )
    return float(f_low), float(f_high)
