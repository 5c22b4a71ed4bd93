"""Energy-detector bank TOA estimation and the Nyquist-sampling baseline.

A CTMA branch integrates the squared input over a trailing window and
holds the maximum of that output over its observation slot. The bank runs
M branches over contiguous slots, picks the branch with the largest held
maximum, then re-runs over the winning slot with slots narrowed by M.
After Q+1 passes the estimate is the start of the final slot, i.e. the
windowed-energy peak time quantized to the resolution T_ob / M^(Q+1).

Every pass ranks slots on the same windowed-energy output (the integration
window is the pulse duration throughout; only the observation slots
shrink), so the refinement provably converges on the dense-grid peak:
noise-free or not, the returned estimate equals delta * floor(t*/delta)
with t* the dense-grid argmax and delta the final resolution. The largest
held maximum of a pass is the maximum over the union of its slots, and the
earliest slot holding it (a tie goes to the earlier slot) is the slot of
that union's first maximum, the first maximum over [0, t_ob) in every pass,
so the bank takes one argmax and each pass finds the slot that holds it.

The sampling baseline needs only the time of the largest sample of the
low-pass output, and its kernel is non-negative, so `sampling_toas` filters
block by block and only where that maximum can be (see its docstring).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .trace import SignalTrace


@dataclass(frozen=True)
class DetectorBankConfig:
    """Dimensioning of the delay bank.

    branches: CTMAs compared per pass (M >= 2).
    stages: fixed delay stages Q (passes = Q + 1).
    t_ob: observation window guaranteed to contain the pulse everywhere.
    t_p: total pulse duration; enters only the t_ob > t_p check.
    """

    branches: int
    stages: int
    t_ob: float
    t_p: float

    def __post_init__(self):
        if self.branches < 2:
            raise ConfigurationError("need at least 2 branches")
        if self.stages < 0:
            raise ConfigurationError("stage count must be non-negative")
        if not (self.t_ob > self.t_p > 0.0):
            raise ConfigurationError("need t_ob > t_p > 0")
        # branches >= 2, so 62 or more stages overflow; checked first so a
        # huge stage count is not raised to a power.
        if self.stages >= 62 or self.branches ** (self.stages + 1) > 2**62:
            raise ConfigurationError("branches ** (stages + 1) overflows")

    @property
    def alpha(self) -> int:
        return self.branches ** (self.stages + 1)

    @property
    def resolution(self) -> float:
        """Finest time cell of the architecture, t_ob / M^(Q+1)."""
        return self.t_ob / self.alpha


def require_resolvable(bank: DetectorBankConfig, step: float) -> None:
    """Reject a bank whose final slot spans fewer than 4 grid steps."""
    if bank.resolution < 4.0 * step:
        raise ConfigurationError(
            f"M={bank.branches} Q={bank.stages}: resolution {bank.resolution:.3e} s "
            f"below 4 grid steps ({4.0 * step:.3e} s); refine the grid or relax the bank"
        )


@dataclass(frozen=True)
class ToaEstimate:
    """Selected branch per pass, the running estimates, and the final TOA.

    The final value is exactly sum_q (M - m_q) * t_ob / M^q over the
    selected branch indices, reconstructible from `selected` alone.
    """

    selected: tuple[int, ...]
    taus: tuple[float, ...]
    tau: float


def _windowed_energy(v: SignalTrace, t_win: float) -> SignalTrace:
    """The CTMA integrator output: trailing-window energy on the trace grid,
    zero-extended before the record start, x(t_i) = integral of v^2 over
    [t_i - t_win, t_i]. Raises ConfigurationError if the sum of v^2
    overflows."""
    w = int(round(t_win / v.step))
    if w < 1:
        raise ConfigurationError("integration window shorter than one grid step")
    # One buffer: w + 1 zeros, then v^2, summed in place; the difference of
    # its running sums w apart lands on its first n points.
    n = v.samples.size
    cum = np.zeros(n + w + 1)
    np.multiply(v.samples, v.samples, out=cum[w + 1 :])
    np.cumsum(cum, out=cum)
    # The running sums never fall, so a finite last one bounds them all.
    if not np.isfinite(cum[-1]):
        raise ConfigurationError("the trace's energy overflows")
    energy = np.subtract(cum[w + 1 :], cum[1 : n + 1], out=cum[:n])
    energy *= v.step
    return SignalTrace._from_checked(v.start_time, v.step, energy)


@functools.lru_cache(maxsize=4)
def _lpf_kernel(t_p: float, step: float) -> tuple[int, float, np.ndarray]:
    """The kernel h(t) = beta^2 t exp(-beta t), beta = 1.4615 / t_p, on the
    grid and cut at its exp(-20) tail: its length K, its largest value and
    its spectrum at the block FFT length, the smallest power of two above
    2 K (at least 4,096). Memoized on its values, and read-only, because
    every trace of an experiment shares it."""
    beta = 1.4615 / t_p
    n_kernel = int(np.ceil(20.0 / (beta * step)))
    t = np.arange(n_kernel) * step
    kernel = beta * beta * t * np.exp(-beta * t)
    spectrum = np.fft.rfft(kernel, 1 << max(12, (2 * n_kernel).bit_length()))
    spectrum.flags.writeable = False
    return n_kernel, float(kernel.max()), spectrum


class _BlockLpf:
    """`lpf_approximation` of one trace as an overlap-save convolution.

    Output block b holds the grid points [b B, (b + 1) B) and is the irfft
    of the rfft of the K - 1 + B squared samples it sees, times the kernel
    spectrum. Each block is filtered alone and at most once, so its values
    do not depend on which other blocks are filtered.
    """

    def __init__(self, v: SignalTrace, t_p: float):
        if not (t_p > 0.0):
            raise ConfigurationError("pulse duration must be positive")
        self.n_kernel, self.h_max, self.spectrum = _lpf_kernel(t_p, v.step)
        self.length = 2 * (self.spectrum.size - 1)
        self.block = self.length - self.n_kernel + 1
        self.step, self.trace = v.step, v.samples
        self.count = -(-self.trace.size // self.block)
        self.samples = np.empty(self.trace.size)
        self.done = np.zeros(self.count, dtype=bool)

    def compute(self, b: int) -> None:
        """Filter output block b, unless it is done. Its input is v^2 over
        the trace points [b B - K + 1, (b + 1) B), zero outside the trace
        (block 0's lead, the last block's tail)."""
        if not self.done[b]:
            a, lead = b * self.block - self.n_kernel + 1, self.n_kernel - 1
            lo, hi = max(a, 0), min(a + self.length, self.trace.size)
            squared = np.zeros(self.length)
            np.multiply(self.trace[lo:hi], self.trace[lo:hi], out=squared[lo - a : hi - a])
            spectrum = np.fft.rfft(squared) * self.spectrum
            out = self.samples[b * self.block : (b + 1) * self.block]
            out[:] = np.fft.irfft(spectrum, self.length)[lead : lead + out.size] * self.step
            self.done[b] = True

    def bounds(self) -> np.ndarray:
        """Per block, an upper bound on the output at its grid points and
        the next one: step * max(h) * the sum of v^2 over the input they
        see, as h >= 0. Block b's points see chunk b, the trace points
        [b B - K + 1, (b + 1) B - K + 1), and the next block's first point
        adds the head of chunk b + 1, its first K points. The chunks after
        the first are the rows of one strided view, each row's sums taken
        over its own points, so their rounding is relative to themselves."""
        v, size, head = self.trace, self.block, self.n_kernel
        chunks, heads = np.zeros(self.count + 1), np.zeros(self.count + 1)
        first = min(size - head + 1, v.size)
        chunks[0] = v[:first] @ v[:first]
        rows = (v.size - first) // size
        view = v[first : first + rows * size].reshape(rows, size)
        chunks[1 : rows + 1] = np.einsum("ij,ij->i", view, view)
        heads[1 : rows + 1] = np.einsum("ij,ij->i", view[:, :head], view[:, :head])
        rest = v[first + rows * size :]
        chunks[rows + 1], heads[rows + 1] = rest @ rest, rest[:head] @ rest[:head]
        return (chunks[: self.count] + heads[1 : self.count + 1]) * (self.step * self.h_max)


def lpf_approximation(v: SignalTrace, t_p: float) -> SignalTrace:
    """Second-order low-pass approximation of the energy detector: v^2
    convolved with h(t) = beta^2 t exp(-beta t), beta = 1.4615 / t_p."""
    lpf = _BlockLpf(v, t_p)
    for b in range(lpf.count):
        lpf.compute(b)
    return SignalTrace(start_time=v.start_time, step=v.step, samples=lpf.samples)


def iterative_toa(energy: SignalTrace, cfg: DetectorBankConfig) -> ToaEstimate:
    """Run the Q+1-pass delay-bank refinement over [0, t_ob] on the CTMA
    integrator output `energy`, i.e. `_windowed_energy(v, cfg.t_p)` of the
    received trace v.

    Branch m of a pass owns the slot starting (M - m) slot-widths into the
    current interval (branch indexing runs backwards in time), and the
    branch with the largest held maximum wins; ties go to the larger m,
    i.e. the earlier slot. The slots tile the grid, so that branch owns the
    first maximum of `energy` over [0, t_ob), found once; each pass walks
    to its first slot that ends after it. The single received trace is
    re-presented to every pass, delay lines being modeled as ideal.
    """
    require_resolvable(cfg, energy.step)
    if energy.start_time > 0.0 or energy.end_time < cfg.t_ob - 0.5 * energy.step:
        raise ConfigurationError("trace must cover the observation window [0, t_ob]")

    i0, i1 = energy.index_range(0.0, cfg.t_ob)
    peak = i0 + int(np.argmax(energy.samples[i0:i1]))
    m_count = cfg.branches
    selected: list[int] = []
    taus: list[float] = []
    slot_start = tau = 0.0
    for q in range(1, cfg.stages + 2):
        width = cfg.t_ob / m_count**q
        best_j = 0  # slot ends grow to the trace size, above the peak
        while energy.index_range(slot_start, slot_start + (best_j + 1) * width)[1] <= peak:
            best_j += 1
        selected.append(m_count - best_j)  # earlier slot = larger branch index
        slot_start += best_j * width
        taus.append(slot_start)
        tau += best_j * cfg.t_ob / m_count**q  # (M - m_hat) t_ob / M^q
    return ToaEstimate(selected=tuple(selected), taus=tuple(taus), tau=tau)


def _interpolate(v: np.ndarray, pos: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Samples at grid positions pos, linear between grid points j and j + 1."""
    return v[j] + (pos - j) * (v[j + 1] - v[j])


def sampling_toas(v: SignalTrace, t_p: float, rates) -> list[float]:
    """Nyquist-style baseline at every rate f_s in rates: sample the
    low-pass detector output `lpf_approximation(v, t_p)` at f_s (phase
    anchored at t = 0), each sample linear between the two grid points
    around its instant, and return the time of the earliest largest sample.

    Sample k is at t = k / f_s, for every k with t inside the trace, at grid
    position pos = (t - start) / step, between grid points j and j + 1,
    j = int(pos) clipped to n - 2. It belongs to the block of j, and each
    block takes its own samples from the k near its time span.

    Only the blocks that can hold a rate's largest sample are filtered. A
    sample between grid points j and j + 1 is at most the larger of the
    two, so at most the `_BlockLpf.bounds` of the block of j. Each rate
    visits blocks in descending bound order and skips those holding none
    of its samples. It filters block b, and b + 1 when a sample of b has j
    on b's last point and so reads b + 1's first, until its largest sample
    is above b's bound plus 1e-9 times the largest bound, a margin far
    above the rounding of the bounds and transforms. Every sample left out is then below the rate's
    maximum, and ties keep the earliest sample, as `np.argmax` does. A
    block filtered for one rate is not filtered again for the next.
    """
    lpf = _BlockLpf(v, t_p)
    bound = lpf.bounds()
    margin = 1e-9 * bound.max()
    order = np.argsort(-bound, kind="stable").tolist()
    bound = bound.tolist()
    start, step, n, size = v.start_time, v.step, len(v), lpf.block
    toas = []
    for f_s in rates:
        require_within_grid_rate(f_s, step)
        first = math.ceil(start * f_s - 1e-9)
        last = math.floor(v.end_time * f_s + 1e-9)
        if first > last:
            raise ConfigurationError(f"the trace holds no sample at {f_s:.3e} Hz")
        best, best_k = -np.inf, first
        for b in order:
            if best > bound[b] + margin:
                break
            # The k within 2 of block b's time span, then those whose j is in it.
            j0, j1 = b * size, (b + 1) * size
            k0 = max(first, math.floor((start + j0 * step) * f_s) - 2)
            k1 = min(last, math.ceil((start + j1 * step) * f_s) + 2)
            t = np.arange(k0, k1 + 1) / f_s
            pos = (t - start) / step
            j = np.minimum(pos.astype(np.int64), n - 2)
            lo, hi = np.searchsorted(j, (j0, j1))
            if hi > lo:
                lpf.compute(b)
                if j[hi - 1] == j1 - 1:  # its sample reads block b + 1's first point
                    lpf.compute(b + 1)
                values = _interpolate(lpf.samples, pos[lo:hi], j[lo:hi])
                i = int(np.argmax(values))
                if values[i] > best or (values[i] == best and k0 + lo + i < best_k):
                    best, best_k = values[i], k0 + lo + i
        toas.append(float(best_k / f_s))
    return toas


def require_within_grid_rate(f_s: float, step: float) -> None:
    """Reject a sampling rate above the grid rate 1 / step (beyond rounding)."""
    grid_rate = 1.0 / step
    if f_s > grid_rate * (1.0 + 1e-12):
        raise ConfigurationError(
            f"sampling rate {f_s:.3e} Hz exceeds the grid rate {grid_rate:.3e} Hz"
        )

