"""Host-speed probe: a fixed kernel whose time tracks how fast the host runs.

The shared host's speed drifts by tens of percent over seconds to
minutes, with the load of its other tenants. Each benchmark invocation
times this probe right before and right after the command, in the same
process, and divides the command's timings by the probe's slowdown
against REFERENCE_PROBE_S. The probe mixes the work the workloads do: normal
variates and a transform of a length with large prime factors, as in the
noise synthesis; a transform of a length with small factors, as in
propagation and the low-pass filter; and interpreted Python, as in the
Monte Carlo loop. Its lengths differ from every length the program uses,
so it warms no transform the command then reuses.
"""
from __future__ import annotations

import time

import numpy as np

# The probe's median time on the host the benchmark was sized on (2 vCPUs
# of a Xeon Sapphire Rapids, Python 3.11.7, numpy 2.4.6). It only sets the
# scale of the normalized figures.
REFERENCE_PROBE_S = 0.160

SLOW_LENGTH = 3 * 167 * 401  # 200,901: prime factors above 7
FAST_LENGTH = 2**2 * 3**4 * 5**4  # 202,500: factors 2, 3 and 5 only
PYTHON_STEPS = 600_000


def probe_s() -> float:
    """Seconds the fixed kernel takes now."""
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    for n in (SLOW_LENGTH, SLOW_LENGTH, FAST_LENGTH, FAST_LENGTH):
        spectrum = np.fft.rfft(rng.standard_normal(n))
        np.fft.irfft(spectrum * 0.5, n)
    total = 0
    for i in range(PYTHON_STEPS):
        total += i * i
    return time.perf_counter() - started
