"""Dense-grid stand-in for continuous-time signals.

The modeled receiver never samples; the uniform grid here is purely a
simulation device and must be fine enough to act as continuous time for
every block downstream (pulse spectrum, delay quantum, noise band).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class SignalTrace:
    """Uniformly sampled real signal: value k lives at start_time + k*step."""

    start_time: float
    step: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if not (self.step > 0.0):
            raise ConfigurationError("trace step must be positive")
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigurationError("trace needs a non-empty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise ConfigurationError("trace samples must all be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.step * (self.samples.size - 1)

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        return self.start_time + self.step * np.arange(self.samples.size)

    def energy(self) -> float:
        """Rectangle-rule integral of the squared samples, in units^2 * s."""
        return float(np.sum(self.samples * self.samples) * self.step)

    def index_range(self, t_start: float, t_end: float) -> tuple[int, int]:
        """Half-open index range [i0, i1) of grid points with t_start <= t < t_end.

        The small guard keeps a boundary that is a float-rounding hair above a
        grid point from stealing that point from the interval below it, so
        adjacent intervals tile the grid without gaps or overlaps.
        """
        guard = 1e-9
        i0 = int(np.ceil((t_start - self.start_time) / self.step - guard))
        i1 = int(np.ceil((t_end - self.start_time) / self.step - guard))
        return max(i0, 0), min(i1, self.samples.size)


def power_spectrum(trace: SignalTrace):
    """(frequencies, |rfft * step|^2), padded to a power of two >= 2^16 and >= 4 trace lengths."""
    nfft = 1 << 16
    while nfft < 4 * trace.samples.size:
        nfft *= 2
    freqs = np.fft.rfftfreq(nfft, trace.step)
    return freqs, np.abs(np.fft.rfft(trace.samples, nfft) * trace.step) ** 2
