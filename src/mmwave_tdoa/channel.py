"""Absorption + spreading channel: frequency response, molecular noise, propagation.

The frequency response over a path of length R is

    H(f, R) = [c0 / (4 pi R f_c)] * exp(-j 2 pi f R / c0) * exp(-0.5 k(f) R),

a frequency-flat spreading amplitude, the propagation delay R/c0, and the
medium absorption with coefficient k(f) read from a tabulated file. The
absorbing medium also re-emits: the noise power integrates a background
term (thermal emission of the absorbing path) and a self-induced term
(re-emission of the pulse's own absorbed energy) over the receiver band.
"""
from __future__ import annotations

import csv
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SimulationError
from .trace import SignalTrace, power_spectrum

C0 = 299_792_458.0  # vacuum speed of light, m/s
BOLTZMANN = 1.380649e-23  # J/K


@dataclass(frozen=True)
class AbsorptionTable:
    """Medium absorption coefficient k(f) in 1/m, tabulated over frequency."""

    frequencies: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        k = np.asarray(self.k, dtype=np.float64)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "k", k)
        if f.ndim != 1 or f.size < 2 or f.shape != k.shape:
            raise ConfigurationError("absorption table needs >= 2 (frequency, k) rows")
        if not np.all(np.diff(f) > 0.0):
            raise ConfigurationError("absorption table frequencies must strictly increase")
        if not np.all(np.isfinite(k)):
            raise ConfigurationError("absorption coefficients must be finite")
        if np.any(k < 0.0):
            raise ConfigurationError("absorption coefficients must be non-negative")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.frequencies[0]), float(self.frequencies[-1])

    def covers(self, band: tuple[float, float]) -> bool:
        lo, hi = self.span
        return lo <= band[0] and band[1] <= hi

    def coefficient(self, frequencies) -> np.ndarray:
        """Linear interpolation of k(f); values outside the span hold the edges."""
        return np.interp(np.abs(frequencies), self.frequencies, self.k)


@dataclass(frozen=True)
class ChannelSpec:
    """One node-to-receiver path: length, pulse center frequency, receiver band, temperature."""

    distance: float
    center_frequency: float
    band: tuple[float, float]
    temperature: float = 296.0

    def __post_init__(self):
        if not (self.distance > 0.0):
            raise ConfigurationError("path length must be positive")
        if not (0.0 < self.band[0] < self.band[1]):
            raise ConfigurationError("band limits must be ordered and positive")
        if not (self.center_frequency > 0.0):
            raise ConfigurationError("center frequency must be positive")
        if not (self.temperature > 0.0):
            raise ConfigurationError("temperature must be positive")


def ingest_absorption(path, mole_fractions: dict[str, float] | None = None) -> AbsorptionTable:
    """Load an absorption table from CSV.

    Two layouts are accepted:
      frequency_hz,k_per_m            -- the summed medium coefficient (no
                                         mole-fraction map), read as one
                                         unnamed species at fraction 1.0
      frequency_hz,species,K_per_m    -- per-species coefficients, combined as
                                         k(f) = sum_j fraction_j * K_j(f) using
                                         the supplied mole-fraction map

    The file is UTF-8 text, with or without a leading byte-order mark. Each
    row is checked as it is read, so on malformed input ConfigurationError
    names the first faulty row in file order.
    """
    # species -> its frequencies and coefficients, in file order
    grids: dict[str | None, tuple[list[float], list[float]]] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ConfigurationError(f"{path}: empty absorption file")
            header = [h.strip().lower() for h in header]
            per_species = header == ["frequency_hz", "species", "k_per_m"]
            if header == ["frequency_hz", "k_per_m"]:
                if mole_fractions is not None:
                    raise ConfigurationError(
                        f"{path}: a summed k_per_m table takes no species_fractions map"
                    )
                mole_fractions = {None: 1.0}
            elif not per_species:
                raise ConfigurationError(
                    f"{path}: unrecognized header {header!r}; expected "
                    "'frequency_hz,k_per_m' or 'frequency_hz,species,K_per_m'"
                )
            elif mole_fractions is None:
                raise ConfigurationError(f"{path}: per-species table needs a mole-fraction map")
            for lineno, row in enumerate(reader, start=2):
                if not any(cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise ConfigurationError(
                        f"{path}: row {lineno}: {len(row)} cells where the header has "
                        f"{len(header)}: {row!r}"
                    )
                try:
                    freq, value = float(row[0]), float(row[1 + per_species])
                except ValueError:
                    raise ConfigurationError(
                        f"{path}: row {lineno}: malformed row {row!r}"
                    ) from None
                if not (math.isfinite(freq) and math.isfinite(value)):
                    raise ConfigurationError(f"{path}: row {lineno}: non-finite value in {row!r}")
                if value < 0.0:
                    raise ConfigurationError(
                        f"{path}: row {lineno}: negative absorption coefficient {value}"
                    )
                species = row[1].strip() if per_species else None
                if species not in mole_fractions:
                    raise ConfigurationError(
                        f"{path}: no mole fraction given for species {species!r}"
                    )
                freqs, values = grids.setdefault(species, ([], []))
                if freqs and not freq > freqs[-1]:
                    raise ConfigurationError(
                        f"{path}: row {lineno}: frequencies must strictly increase"
                    )
                freqs.append(freq)
                values.append(value)
    except OSError as exc:
        raise ConfigurationError(f"cannot read absorption table {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read absorption table {path}: not UTF-8 text ({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise ConfigurationError(f"{path}: row {reader.line_num}: {exc}") from None

    reference, k = [], 0.0
    for species, (freqs, values) in grids.items():
        if reference and freqs != reference:
            raise ConfigurationError(
                f"{path}: species {species!r} is not tabulated on the same "
                "frequency grid as the others"
            )
        reference = freqs
        k = k + mole_fractions[species] * np.array(values)
    # An empty summed table lacks its unnamed species; AbsorptionTable rejects it.
    unknown = sorted(set(mole_fractions).difference(grids, [None]))
    if unknown:
        raise ConfigurationError(
            f"{path}: species_fractions names species the table does not hold: "
            + ", ".join(map(repr, unknown))
        )
    return AbsorptionTable(frequencies=np.array(reference), k=k)


def _require_band_covered(table: AbsorptionTable, band: tuple[float, float]) -> None:
    if not table.covers(band):
        lo, hi = table.span
        raise ConfigurationError(
            f"absorption table spans [{lo:.3e}, {hi:.3e}] Hz but the band "
            f"[{band[0]:.3e}, {band[1]:.3e}] Hz must be covered"
        )


def transmit_psd(pulse: SignalTrace, band: tuple[float, float], power: float):
    """One-sided PSD of the transmitted pulse, scaled so its integral over
    the band equals the pulse power. Returns (frequencies, psd). Raises
    ConfigurationError if the pulse has no measurable power in the band
    (a band narrower than the spectrum's bin spacing holds fewer than two
    bins). The spectrum is taken of the pulse's shape at unit peak, so a
    pulse power near the smallest double does not underflow it."""
    shape = pulse.samples / np.max(np.abs(pulse.samples))
    freqs, density = power_spectrum(SignalTrace(pulse.start_time, pulse.step, shape))
    in_band = (freqs >= band[0]) & (freqs <= band[1])
    integral = np.trapezoid(density[in_band], freqs[in_band])
    if not (np.isfinite(integral) and integral > 0.0):
        raise ConfigurationError(
            f"the pulse spectrum, sampled every {freqs[1] - freqs[0]:.3e} Hz, has no "
            f"measurable power in the band [{band[0]:.3e}, {band[1]:.3e}] Hz"
        )
    return freqs, density * (power / integral)


def noise_background_psd(spec: ChannelSpec, k: np.ndarray) -> np.ndarray:
    """Thermal emission of the absorbing path seen by the receiver, W/Hz."""
    emissivity = 1.0 - np.exp(-k * spec.distance)
    aperture = (C0 / (np.sqrt(4.0 * np.pi) * spec.center_frequency)) ** 2
    return BOLTZMANN * spec.temperature * emissivity * aperture


def noise_self_psd(spec: ChannelSpec, k: np.ndarray, pulse_psd: np.ndarray) -> np.ndarray:
    """Re-emission of the pulse's own absorbed energy, W/Hz."""
    emissivity = 1.0 - np.exp(-k * spec.distance)
    spread = (C0 / (4.0 * np.pi * spec.distance * spec.center_frequency)) ** 2
    return pulse_psd * emissivity * spread


def noise_variance(spec: ChannelSpec, table: AbsorptionTable, pulse_psd) -> float:
    """Total molecular-absorption noise power over the band, in watts.

    pulse_psd is the (frequencies, psd) pair from transmit_psd. Both noise
    terms vanish identically for a transparent medium (k = 0): nothing is
    absorbed, so nothing is re-emitted.
    """
    _require_band_covered(table, spec.band)
    psd_freqs, psd_values = pulse_psd
    f = np.linspace(spec.band[0], spec.band[1], 4097)
    k = table.coefficient(f)
    s_g = np.interp(f, psd_freqs, psd_values)
    total = noise_background_psd(spec, k) + noise_self_psd(spec, k, s_g)
    return float(np.trapezoid(total, f))


def _fast_length(minimum: int) -> int:
    """Smallest 2^a 3^b 5^c >= minimum: a length pocketfft transforms at full speed."""
    best = 1 << (minimum - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = p35
            while length < minimum:
                length *= 2
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


def _in_band_bins(n: int, step: float, band: tuple[float, float]) -> tuple[int, int]:
    """The first and last n-point rfft bins inside the band, ka and kb: the
    bins k whose frequencies k * (1 / (n step)), the products that
    `np.fft.rfftfreq` forms, lie in [f1, f2], found from the band's ends
    without an array over the grid (kb < ka when no bin does). Raises
    ConfigurationError unless they keep the share 2 (f2 - f1) step of a
    white sequence's power that `_band_limited_noise` scales by, within
    1 %: a band above the grid's Nyquist frequency 1 / (2 step), or one
    that holds few bins or none, keeps another share."""
    spacing, top = 1.0 / (n * step), n // 2

    def first_bin(f: float, past) -> int:
        """The first k in 0..top + 1 with past(k * spacing, f), a test that
        holds from some k on, as the products grow with k: searched from
        the bin f / spacing rounded up."""
        k = math.ceil(min(f / spacing, top + 1))
        while k > 0 and past((k - 1) * spacing, f):
            k -= 1
        while k <= top and not past(k * spacing, f):
            k += 1
        return k

    ka, kb = first_bin(band[0], operator.ge), first_bin(band[1], operator.gt) - 1
    bins = max(kb - ka + 1, 0)
    ratio = bins / (n * (band[1] - band[0]) * step)
    if not abs(ratio - 1.0) <= 0.01:
        raise ConfigurationError(
            f"the band [{band[0]:.3e}, {band[1]:.3e}] Hz holds {bins} rfft bins of the "
            f"{n}-point grid of step {step:.3e} s, {ratio:.4g} times the share "
            f"2 (f2 - f1) step of the noise power; it must lie below the grid's Nyquist "
            f"frequency {0.5 / step:.3e} Hz and span many {1.0 / (n * step):.3e} Hz bins"
        )
    return ka, kb


def _band_pass(n: int, step: float, band: tuple[float, float]) -> np.ndarray:
    """The n-point circular band-pass that keeps the rfft bins inside the
    band (`_in_band_bins`, which checks them), `irfft(mask, n)` in closed
    form, so that no transform runs at the length n (a slow one when n has
    large prime factors). The M bins ka..kb sum to h[t] = (2/n)
    cos(pi (ka + kb) t / n) sin(pi M t / n) / sin(pi t / n), h[0] = 2 M / n.
    The band starts above bin 0 (`ExperimentConfig` keeps it positive); a
    Nyquist bin n / 2 in it is counted once, as irfft does."""
    ka, kb = _in_band_bins(n, step, band)
    m = kb - ka + 1

    def sin_quarter_turns(s):
        """sin(pi s / (2 n)) of int64 s, the angle folded into [-pi/2, pi/2]
        exactly in integers (s stays below 4 n^2, no overflow), so that no
        sine loses its relative precision near a multiple of pi."""
        s = (s + n) % (4 * n) - n
        return np.sin(np.pi / (2 * n) * np.where(s > n, 2 * n - s, s))

    # h is even, h[t] = h[n - t]: build t <= n / 2, where pi t / n <= pi / 2.
    t = np.arange(1, n // 2 + 1)
    half = (
        sin_quarter_turns(2 * (ka + kb) * t + n)
        * sin_quarter_turns(2 * m * t)
        / np.sin(np.pi / n * t)
        * (2 / n)
    )
    kernel = np.empty(n)
    kernel[0] = 2 * m / n
    kernel[1 : n // 2 + 1] = half
    kernel[n // 2 + 1 :] = half[: (n - 1) // 2][::-1]
    if 2 * kb == n:
        kernel[::2] -= 1 / n
        kernel[1::2] += 1 / n
    return kernel


_HELPER = None  # (pid, executor) of the process's one transform helper thread
_HELPER_LOCK = threading.Lock()


def _helper():
    """The one-thread executor that `_transform_pair` runs its second
    transform on. Started by the first caller in each process, so runs
    without noise start no thread, and a forked child, which the thread is
    not forked into, starts its own."""
    global _HELPER
    with _HELPER_LOCK:
        if _HELPER is None or _HELPER[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _HELPER = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="noise-fft"))
        return _HELPER[1]


def _transform_pair(transform, inputs, length: int, out: np.ndarray) -> None:
    """transform(inputs[i], length, out=out[i]) for i = 0, 1, the second on
    `_helper`'s thread beside the first on this one: numpy's pocketfft
    releases the GIL, so the two run on two cores. The caller allocates
    `out`, so the helper's own heap holds only pocketfft's scratch."""
    pending = _helper().submit(transform, inputs[1], length, out=out[1])
    try:
        transform(inputs[0], length, out=out[0])
    finally:
        pending.result()


@functools.lru_cache(maxsize=4)
def _noise_kernel_spectrum(
    n: int, step: float, band: tuple[float, float]
) -> tuple[int, np.ndarray]:
    """The half length M = `_fast_length(n)` and, as the rows of one
    array, three rfft at M of the n-point `_band_pass(n, step, band)` h:
    of its even samples h[0::2], of its odd samples h[1::2], and of its odd
    samples delayed one step. `_band_limited_noise` combines them into a
    linear convolution of 2 M points. Memoized on its values, and
    read-only, because every noisy trace of an experiment shares it: the
    first noisy trace builds it."""
    length = _fast_length(n)
    kernel = _band_pass(n, step, band)
    spectra = np.empty((3, length // 2 + 1), dtype=np.complex128)
    _transform_pair(np.fft.rfft, (kernel[0::2], kernel[1::2]), length, spectra)
    np.multiply(spectra[1], _delay_phase(length, step, step), out=spectra[2])
    spectra.flags.writeable = False
    return length, spectra


def _keep_heap_pages(n: int) -> None:
    """Allocate and free one untouched block of 4 n doubles, so that later
    arrays of up to that size reuse heap pages. Its one caller is
    `PathCache`, for the largest arrays a trace allocates, the noise's two
    rows of transforms at the half length `_fast_length(n_out)`: 2
    `_fast_length(n_out)` points.

    glibc's malloc serves each block above its mmap threshold with freshly
    mapped zeroed pages and unmaps them on free. It raises that threshold
    to the largest mapped block freed, and gives the heap's free top back to
    the kernel only above twice it. After this call each trace's fresh
    arrays and pocketfft's per-call scratch come from pages the heap keeps,
    instead of faulting in new ones on every trace: without it a noisy
    desk trace faults in about 6,300 fresh pages. The outputs do not
    change; other allocators just see one untouched allocation."""
    np.empty(4 * n)


def _band_limited_noise(rng, n: int, step: float, band: tuple[float, float], power: float):
    """White Gaussian noise restricted to the band, with total power `power`.

    The n-point white draw x goes through the n-point circular band-pass h
    of `_noise_kernel_spectrum(n, step, band)` as a linear convolution y =
    h * x of 2n - 1 points, folded back onto n points: the same noise as
    zeroing the out-of-band bins of an n-point rfft, to rounding, without a
    transform at the length n (a slow one when n has large prime factors).
    y is found as its even and odd points (Cooley and Tukey's decimation in
    time), each an irfft at the half length M: with E and O the rfft at M
    of x[0::2] and x[1::2], and He, Ho and Hd the kernel's even, odd and
    delayed odd rows, y[0::2] = irfft(He E + Hd O) and y[1::2] = irfft(Ho E
    + He O). Each pair of transforms runs on two threads (`_transform_pair`).
    """
    # A unit-variance white sequence keeps the fraction 2 * (f2 - f1) * step
    # of its power inside the band (within 1 %, by `_in_band_bins`); rescale
    # to the requested total power.
    scale = np.sqrt(power / (2.0 * (band[1] - band[0]) * step))
    if not np.isfinite(scale):
        raise ConfigurationError(f"noise power {power:.3e} W overflows the noise scale")
    length, (even, odd, delayed) = _noise_kernel_spectrum(n, step, band)
    white = rng.standard_normal(n)
    spectra = np.empty((2, length // 2 + 1), dtype=np.complex128)
    _transform_pair(np.fft.rfft, (white[0::2], white[1::2]), length, spectra)
    del white
    # In place, row 0 becomes He E + Hd O and row 1 Ho E + He O.
    on_even, on_odd = spectra
    odd_on_even = odd * on_even
    on_even *= even
    on_even += delayed * on_odd
    on_odd *= even
    on_odd += odd_on_even
    del odd_on_even
    halves = np.empty((2, length))
    _transform_pair(np.fft.irfft, spectra, length, halves)
    del spectra, on_even, on_odd
    # y[k] = halves[k % 2][k // 2]; point k + n of y wraps onto k < n - 1.
    received = np.empty(n)
    for parity in (0, 1):
        part, wrapped = received[parity::2], (n - parity) // 2
        offset = (parity + n) // 2
        np.add(
            halves[parity][:wrapped],
            halves[(parity + n) % 2][offset : offset + wrapped],
            out=part[:wrapped],
        )
        part[wrapped:] = halves[parity][wrapped : part.size]
    received *= scale
    return received


def arrival_start(pulse: SignalTrace, distance: float, window: float) -> float:
    """When the support of the pulse emitted at t = 0 starts arriving over a
    path of length `distance`; raises unless all of it arrives in [0, window]."""
    start = distance / C0 + pulse.start_time
    if start < 0.0:
        raise ConfigurationError(f"pulse support starts at {start:.3e} s, before the window opens")
    end = distance / C0 + pulse.end_time
    if end > window:
        raise ConfigurationError(
            f"observation window {window:.3e} s too short; needs at least "
            f"{end:.3e} s to contain the received pulse"
        )
    return start


PHASE_BLOCK = 512  # bins per row of the delay-phase table


def _delay_phase(nfft: int, step: float, delay: float) -> np.ndarray:
    """exp(-2 pi i f delay) on the rfft bins f = k / (nfft step), as the
    product hi[k // B] * lo[k % B] of two tables of at most B = PHASE_BLOCK
    exponentials: equal to the per-bin exponential to rounding (both carry
    an error of a few eps times the phase), at a fraction of its cost."""
    bins = nfft // 2 + 1
    turn = -2j * np.pi * delay / (nfft * step)  # phase per bin
    lo = np.exp(turn * np.arange(min(bins, PHASE_BLOCK)))
    hi = np.exp((turn * PHASE_BLOCK) * np.arange(-(-bins // PHASE_BLOCK)))
    return np.multiply.outer(hi, lo).ravel()[:bins]


GUARD = 204.8e-12  # s of zero padding each side of a path's pulse: 4,096 steps of 0.05 ps


class PathCache:
    """The parts of `propagate` that no path or noise seed changes, for one
    pulse, absorption table and observation window: the received trace's
    points n_out, the pulse spectrum and the absorption exponent -0.5 k(f)
    at the short transform length L = `_fast_length(pulse + 2 G)`, with G
    the `GUARD` in grid steps, and the experiment's one block of kept heap
    pages (`_keep_heap_pages`), sized for the noise's transforms. It holds
    no per-path state."""

    def __init__(self, pulse: SignalTrace, table: AbsorptionTable, window: float):
        self.pulse, self.table, self.window = pulse, table, window
        self.n_out = int(round(window / pulse.step)) + 1
        self.guard = int(round(GUARD / pulse.step))
        self.length = _fast_length(pulse.samples.size + 2 * self.guard)
        _keep_heap_pages(2 * _fast_length(self.n_out))
        self.spectrum = np.fft.rfft(pulse.samples, self.length)
        self.absorption = -0.5 * table.coefficient(np.fft.rfftfreq(self.length, pulse.step))

    def piece(self, spec: ChannelSpec) -> tuple[int, np.ndarray]:
        """The noise-free waveform received over the path of spec, as the
        grid index i0 of its first point and its L points: the pulse
        spectrum times H(f, R) of the module docstring, the one place it is
        applied. i0 lies G steps before the grid point at or below the
        pulse's arrival, so the phase delays the pulse by G steps and a
        fraction, and G steps of the piece's end guard its wrap-around. The
        table must cover the band, the whole pulse must arrive inside the
        window and the piece must be finite; all three are checked on every
        call."""
        _require_band_covered(self.table, spec.band)
        start = arrival_start(self.pulse, spec.distance, self.window)
        step = self.pulse.step
        i0 = math.floor(start / step) - self.guard
        amplitude = C0 / (4.0 * np.pi * spec.distance * spec.center_frequency)
        product = self.spectrum * (amplitude * np.exp(self.absorption * spec.distance))
        product *= _delay_phase(self.length, step, start - i0 * step)
        piece = np.fft.irfft(product, self.length)
        if not np.isfinite(piece).all():
            raise ConfigurationError(
                f"the waveform received over {spec.distance:.3e} m at "
                f"{spec.center_frequency:.3e} Hz is not finite"
            )
        return i0, piece


def propagate(cache: PathCache, spec: ChannelSpec, seed, noise_power: float) -> SignalTrace:
    """Received waveform on [0, cache.window]: the cache's pulse through the
    channel of `spec` and its absorption table, plus noise.

    The pulse's own time origin is emitted at t = 0, so a waveform feature
    at pulse-frame time u is received at u + R/c0. The delay is applied as
    a spectral phase, which realizes fractional-step delays exactly in the
    band-limited sense. The noise has variance `noise_power`, which must
    be finite and non-negative (0 disables it; see noise_variance for the
    channel's own). The path's clean
    piece (`PathCache.piece`) is added in place into the noise draw, or
    into zeros without noise, clipped to the window.
    Deterministic given the seed.
    """
    if not math.isfinite(noise_power):
        raise ConfigurationError(f"noise power must be finite, not {noise_power}")
    if noise_power < 0.0:
        raise SimulationError("noise power must be non-negative")
    i0, piece = cache.piece(spec)
    step = cache.pulse.step
    if noise_power > 0.0:
        rng = np.random.default_rng(seed)
        received = _band_limited_noise(rng, cache.n_out, step, spec.band, noise_power)
    else:
        received = np.zeros(cache.n_out)
    lo, hi = max(i0, 0), min(i0 + piece.size, cache.n_out)
    received[lo:hi] += piece[lo - i0 : hi - i0]
    return SignalTrace._from_checked(0.0, step, received)
