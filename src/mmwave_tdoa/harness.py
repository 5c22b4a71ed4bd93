"""Monte Carlo experiment runner: end-to-end localization accuracy.

One experiment draws node positions uniformly in an L x L deployment,
synthesizes a pulse, propagates it to the three receivers with independent
noise, estimates the three TOAs with every configured estimator, solves
for the position, and records one TrialResult per estimator per trial.
Everything is deterministic given the root seed: per-trace noise seeds are
derived from (root, position, run, receiver), so no two traces share a
noise stream and results do not depend on evaluation order.
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import numbers
import os
import pickle
import signal
import sys
import threading
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .channel import (
    C0,
    ChannelSpec,
    PathCache,
    _in_band_bins,
    _require_band_covered,
    arrival_start,
    ingest_absorption,
    noise_variance,
    propagate,
    transmit_psd,
)
from .detector import (
    DetectorBankConfig,
    _windowed_energy,
    energy_peak,
    iterative_toa,
    lpf_approximation,
    require_resolvable,
    require_within_grid_rate,
    sampling_toas,
)
from .errors import ConfigurationError
from .locate import BsLayout, ToaTriplet, solve_position, tdoa_ranges
from .pulse import DEFAULT_STEP, PulseSpec, effective_duration, generate_pulse
from .trace import SignalTrace

TOA_MODES = ("peak", "start-corrected")
R1_MODES = ("known-clock", "quadratic")
ESTIMATORS = ("ctma", "sampling", "both")
# Ceiling on the points of one received trace (t_ob / step + 1), 84 times
# the default 10 ns, 0.05 ps grid: every trace, transform and cached
# spectrum grows with it.
MAX_GRID_POINTS = 2**24
# Ceiling on n_positions: `run_experiment` draws every position before the
# first trace, so an unbounded count never returns.
MAX_POSITIONS = 2**20


def _real(name: str, value) -> float:
    """value as a float, if it is a finite number (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def _integer(name: str, value) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _items(name: str, value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ConfigurationError(f"{name} must be a list, got {value!r}")


def _reals(name: str, value, length: int | None = None) -> tuple[float, ...]:
    out = tuple(_real(name, v) for v in _items(name, value))
    if length is not None and len(out) != length:
        raise ConfigurationError(f"{name} must hold {length} numbers, got {len(out)}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; mirrors the JSON config file 1:1."""

    layout_size: float = 2.0
    pulse_order: int = 2
    pulse_center_frequency: float = 200e9
    pulse_power: float = 1e-6
    energy_fraction: float = 0.9999
    band: tuple[float, float] = (100e9, 300e9)
    absorption_path: str | None = None  # None selects the packaged table
    species_fractions: dict | None = None
    mq_pairs: tuple[tuple[int, int], ...] = ((2, 11),)
    sampling_rates: tuple[float, ...] = (600e9,)
    estimator: str = "both"
    n_positions: int = 10
    n_runs: int = 500
    seed: int = 1
    t_ob: float = 10e-9
    step: float = DEFAULT_STEP
    temperature: float = 296.0
    toa_mode: str = "peak"
    r1_mode: str = "known-clock"
    noise: bool = True
    guard_radius: float = 0.01
    toa_position: tuple[float, float] = (0.5, 0.75)

    def __post_init__(self):
        for field in dataclasses.fields(self):
            check = {"float": _real, "int": _integer}.get(field.type)
            if check is not None:
                check(field.name, getattr(self, field.name))
        if not isinstance(self.noise, bool):
            raise ConfigurationError(f"noise must be true or false, got {self.noise!r}")
        if self.absorption_path is not None and not isinstance(self.absorption_path, str):
            raise ConfigurationError("absorption_path must be a file path string or null")
        if self.species_fractions is not None:
            if not isinstance(self.species_fractions, dict):
                raise ConfigurationError("species_fractions must map species names to numbers")
            for species, fraction in self.species_fractions.items():
                if not 0.0 <= _real(f"species_fractions[{species!r}]", fraction) <= 1.0:
                    raise ConfigurationError(f"species_fractions[{species!r}] must be in [0, 1]")
        band = _reals("band", self.band, length=2)
        pairs = tuple(
            tuple(_integer("mq_pairs entry", v) for v in _items("mq_pairs entry", pair))
            for pair in _items("mq_pairs", self.mq_pairs)
        )
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigurationError("mq_pairs entries must be (branches, stages)")
        rates = _reals("sampling_rates", self.sampling_rates)
        toa_position = _reals("toa_position", self.toa_position, length=2)

        if not (self.layout_size > 0.0):
            raise ConfigurationError("layout_size must be positive")
        for name in ("n_positions", "n_runs"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.n_positions > MAX_POSITIONS:
            raise ConfigurationError(f"n_positions must be at most {MAX_POSITIONS} (2**20)")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        for name in ("t_ob", "step", "temperature"):
            if not (getattr(self, name) > 0.0):
                raise ConfigurationError(f"{name} must be positive")
        if not (0.0 < band[0] < band[1]):
            raise ConfigurationError("band limits must be ordered and positive")
        if not all(f_s > 0.0 for f_s in rates):
            raise ConfigurationError("sampling_rates must be positive")
        # Positions are drawn by rejection outside the guard rings; below
        # half the layout size at least 40% of the square stays open.
        if not (0.0 <= self.guard_radius < 0.5 * self.layout_size):
            raise ConfigurationError("guard_radius must lie in [0, layout_size / 2)")
        if self.toa_mode not in TOA_MODES:
            raise ConfigurationError(f"toa_mode must be one of {TOA_MODES}")
        if self.r1_mode not in R1_MODES:
            raise ConfigurationError(f"r1_mode must be one of {R1_MODES}")
        if self.estimator not in ESTIMATORS:
            raise ConfigurationError(f"estimator must be one of {ESTIMATORS}")
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "mq_pairs", pairs)
        object.__setattr__(self, "sampling_rates", rates)
        object.__setattr__(self, "toa_position", toa_position)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("a config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        def unique_keys(pairs):
            data = {}
            for key, value in pairs:
                if key in data:
                    raise ConfigurationError(f"config {path} names {key!r} twice")
                data[key] = value
            return data

        try:
            with open(path, encoding="utf-8-sig") as handle:
                data = json.load(handle, object_pairs_hook=unique_keys)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config {path} is not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigurationError(f"config {path} nests too deeply to parse") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class TrialResult:
    """One localization attempt by one estimator; its fields, in order,
    are the columns of trials.csv."""

    estimator: str  # "ctma" or "sampling"
    alpha: int | None  # branches ** (stages + 1) for ctma rows
    f_s_hz: float | None  # sampling rate for sampling rows
    position_index: int
    run_index: int
    true_x_m: float
    true_y_m: float
    est_x_m: float
    est_y_m: float
    tau1_s: float
    tau2_s: float
    tau3_s: float
    error_m: float


def default_absorption_path() -> str:
    from importlib.resources import files

    return str(files("mmwave_tdoa").joinpath("data/standard_air_50_500ghz.csv"))


@dataclass(frozen=True)
class PreparedExperiment:
    """One config's validated set-up, built once by `prepare`:

    - config: the experiment; every stage reads it.
    - t_p: the pulse's effective duration, the span of `_trace_toas`'s
      energy window and LPF, and the shift of "start-corrected" TOAs.
    - psd: the transmit PSD, None without noise; `_trial_toas` reads it.
    - paths: the one `PathCache`, with the pulse and absorption table;
      `_trial_toas` builds each path's clean piece on it and reads its
      table for the noise power, and `propagate` reads it.
    - layout: the receivers; `_trial_toas` and `toa_sweep` take each path
      length from it, and `_localize` solves on it.
    - banks, sampling_rates: the sweep points `_trace_toas` estimates at.
    - ctma_offset, lpf_offset: each estimator's peak delay on the clean
      pulse, the R1 offset of `_localize` (`peak_offset_s` in `toa_sweep`).
    """

    config: ExperimentConfig
    t_p: float
    psd: tuple[np.ndarray, np.ndarray] | None
    paths: PathCache
    layout: BsLayout
    banks: tuple[DetectorBankConfig, ...]
    sampling_rates: tuple[float, ...]
    ctma_offset: float
    lpf_offset: float


def prepare(cfg: ExperimentConfig) -> PreparedExperiment:
    """Validate everything that can fail, before any trial runs."""
    spec = PulseSpec(
        order=cfg.pulse_order,
        center_frequency=cfg.pulse_center_frequency,
        power=cfg.pulse_power,
        energy_fraction_for_duration=cfg.energy_fraction,
    )
    _require_bounded_grid(cfg, spec)
    path = default_absorption_path() if cfg.absorption_path is None else cfg.absorption_path
    table = _check_field("absorption_path", ingest_absorption, path, cfg.species_fractions)
    _check_field("band", _require_band_covered, table, cfg.band)
    tx = generate_pulse(spec, cfg.step)
    # A pulse_power that underflows the pulse to zero, or overflows its
    # energy or the calibration traces, fails a check that names it.
    with np.errstate(over="ignore", invalid="ignore"):
        t_p = _check_field("pulse_power", effective_duration, tx, cfg.energy_fraction)
        ctma_offset, lpf_offset = _check_field("pulse_power", _estimator_offsets, tx, t_p)
    psd = _check_field("band", transmit_psd, tx, cfg.band, cfg.pulse_power) if cfg.noise else None
    paths = PathCache(tx, table, window=cfg.t_ob)
    if cfg.noise:
        _check_field("band", _in_band_bins, paths.n_out, cfg.step, cfg.band)

    # Every path is longer than guard_radius and no longer than the diagonal.
    _check_field("guard_radius", arrival_start, tx, cfg.guard_radius, cfg.t_ob)
    _check_field("t_ob", arrival_start, tx, cfg.layout_size * math.sqrt(2.0), cfg.t_ob)

    use_ctma = cfg.estimator in ("ctma", "both")
    use_sampling = cfg.estimator in ("sampling", "both")
    banks = tuple(
        _check_field("mq_pairs", DetectorBankConfig, m, q, cfg.t_ob, t_p)
        for m, q in (cfg.mq_pairs if use_ctma else ())
    )
    for bank in banks:
        _check_field("mq_pairs", require_resolvable, bank, cfg.step)
    rates = tuple(cfg.sampling_rates) if use_sampling else ()
    for f_s in rates:
        _check_field("sampling_rates", require_within_grid_rate, f_s, cfg.step)
    if not banks and not rates:
        raise ConfigurationError(f"estimator {cfg.estimator!r} has no configured sweep points")
    alphas = [bank.alpha for bank in banks]
    for name, points in (("mq_pairs alpha", alphas), ("sampling_rates", rates)):
        if len(set(points)) < len(points):
            raise ConfigurationError(
                f"{name} values {list(points)} repeat; two sweep points would share a row"
            )
    x, y = cfg.toa_position
    if not (0.0 <= x <= cfg.layout_size and 0.0 <= y <= cfg.layout_size):
        raise ConfigurationError("toa_position must lie inside the deployment area")
    layout = BsLayout.corner(cfg.layout_size)
    if not np.all(_distances(layout, x, y) > cfg.guard_radius):
        raise ConfigurationError(
            f"toa_position must lie farther than guard_radius = {cfg.guard_radius} "
            "from every receiver"
        )

    return PreparedExperiment(
        config=cfg,
        t_p=t_p,
        psd=psd,
        paths=paths,
        layout=layout,
        banks=banks,
        sampling_rates=rates,
        ctma_offset=ctma_offset,
        lpf_offset=lpf_offset,
    )


def _check_field(field: str, check, *args):
    """Return check(*args), naming the config field at fault in its ConfigurationError."""
    try:
        return check(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{field}: {exc}") from None


def _require_bounded_grid(cfg: ExperimentConfig, spec: PulseSpec) -> None:
    """Reject a config whose dense grids would outgrow memory, before any
    array is built: every received trace spans t_ob on the step grid, and
    the pulse (and its calibration trace) spans the pulse support."""
    points = cfg.t_ob / cfg.step + 1.0
    if points > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"step = {cfg.step:.3e} s over t_ob = {cfg.t_ob:.3e} s needs {points:.4g} "
            f"grid points per trace, above the limit of {MAX_GRID_POINTS} (2**24); "
            "raise step or shorten t_ob"
        )
    support = 2.0 * spec.half_width
    if support > cfg.t_ob:
        raise ConfigurationError(
            f"pulse_center_frequency = {cfg.pulse_center_frequency:.3e} Hz with "
            f"pulse_order = {cfg.pulse_order} gives a pulse support of {support:.3e} s, "
            f"longer than t_ob = {cfg.t_ob:.3e} s"
        )


def _draw_positions(cfg: ExperimentConfig, layout: BsLayout) -> tuple[tuple[float, float], ...]:
    """Uniform over the open square, outside a guard ring around each receiver."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E33]))
    out = []
    while len(out) < cfg.n_positions:
        x, y = rng.uniform(0.0, cfg.layout_size, size=2)
        if np.all(_distances(layout, x, y) > cfg.guard_radius):
            out.append((float(x), float(y)))
    return tuple(out)


def _distances(layout: BsLayout, x, y) -> np.ndarray:
    """Path length from (x, y) to each receiver, in layout order."""
    anchors = layout.positions()
    return np.hypot(anchors[:, 0] - x, anchors[:, 1] - y)


def _estimator_offsets(tx: SignalTrace, t_p: float) -> tuple[float, float]:
    """Systematic peak delays of each estimator on the clean pulse.

    Both detectors peak after the pulse's own time origin (by about half
    the duration for the windowed integral, more for the low-pass form);
    these calibrated offsets anchor the reference absolute range, while
    the TOA differences cancel them on their own.
    """
    pad = int(round(4.0 * t_p / tx.step))
    samples = np.concatenate([np.zeros(pad), tx.samples, np.zeros(pad)])
    cal = SignalTrace(
        start_time=tx.start_time - pad * tx.step, step=tx.step, samples=samples
    )
    energy = _windowed_energy(cal, t_p).samples
    i0, i1 = cal.index_range(cal.start_time + t_p, cal.end_time + 0.5 * cal.step)
    ctma_peak = cal.start_time + (i0 + int(np.argmax(energy[i0:i1]))) * cal.step
    filtered = lpf_approximation(cal, t_p)
    lpf_peak = filtered.times()[int(np.argmax(filtered.samples))]
    return float(ctma_peak), float(lpf_peak)


def _trace_seed(root: int, position: int, run: int, receiver: int):
    """Noise seed derivation rule; distinct per (root, position, run, receiver)."""
    return np.random.SeedSequence([root, position, run, receiver])


class Timings(dict):
    """Wall seconds by key, as `run_experiment` describes them, 0.0 for a
    key not timed yet; `shards` counts the trial-run shards, whose times
    they sum."""

    shards = 1

    def __missing__(self, key):
        return 0.0


def _run_toas(prep: PreparedExperiment, positions, timings, dump_dir) -> list:
    """(position index, run index, toas) for every run at each of positions,
    in that order, where toas[b] lists receiver b's TOA for every bank and
    then every sampling rate (see `_trace_toas`).

    The (position, run) trial-runs split into contiguous shards, one per
    usable core (`_shard_count`), run at once by `_in_shards`; each adds
    its stage times into timings, a `Timings`, and timings.shards counts
    them. The first shard runs in this process, so the traces of position
    0, run 0 are dumped from here."""
    cells = list(itertools.product(range(len(positions)), range(prep.config.n_runs)))
    count = _shard_count(len(cells))
    edges = [len(cells) * k // count for k in range(count + 1)]

    def shard(k):
        own = defaultdict(float)
        toas = list(_trial_toas(prep, positions, cells[edges[k] : edges[k + 1]], own, dump_dir))
        return toas, dict(own)

    toas = []
    for shard_toas, shard_timings in _in_shards(shard, count):
        toas += shard_toas
        for key, seconds in shard_timings.items():
            timings[key] += seconds
    timings.shards = count
    return [(p_idx, r_idx, run) for (p_idx, r_idx), run in zip(cells, toas)]


def _trial_toas(prep: PreparedExperiment, positions, cells, timings, dump_dir):
    """Yield the toas of each (position index, run index) of cells in turn.

    Each position's three paths are set up once for its runs: the channel,
    the noise power and the clean piece (`PathCache.piece`), timed as
    "propagate". Each trace lives only inside its own `_trace_toas` call,
    so one received trace is in memory at a time."""
    cfg, psd, paths = prep.config, prep.psd, prep.paths
    for p_idx, runs in itertools.groupby(cells, key=lambda cell: cell[0]):
        chspecs = [
            ChannelSpec(
                distance=float(d),
                center_frequency=cfg.pulse_center_frequency,
                band=cfg.band,
                temperature=cfg.temperature,
            )
            for d in _distances(prep.layout, *positions[p_idx])
        ]
        powers = [0.0 if psd is None else noise_variance(s, paths.table, psd) for s in chspecs]
        pieces = [_timed(timings, "propagate", paths.piece, s) for s in chspecs]
        for _, r_idx in runs:
            dump = dump_dir if p_idx == 0 and r_idx == 0 else None
            yield [
                _trace_toas(
                    prep, chspecs[b], pieces[b], powers[b],
                    _trace_seed(cfg.seed, p_idx, r_idx, b), b, dump, timings,
                )
                for b in range(3)
            ]


def _shard_count(trial_runs: int) -> int:
    """One shard per usable core, at most one per trial-run. A single shard
    off Linux, and while another thread is running: a forked child holds
    only the thread that forked it, so what another thread was doing, or a
    lock it held, would never finish in the child."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(_usable_cores(), trial_runs)


def _usable_cores() -> int:
    """The cores this process may run on; the tests set the shard count here."""
    return len(os.sched_getaffinity(0))


def _in_shards(work, count: int) -> list:
    """[work(0), ..., work(count - 1)]: work(0) in this process and each
    other in a child forked for it (`_serve_shard`), all at once.

    A shard whose pipe or fork fails (EAGAIN, EMFILE, ENOMEM) runs here
    after the children, as does every later one, in shard order.
    A child's ConfigurationError is raised here, the first in shard order,
    which is the one a single shard would have met first; any other failure
    of a child raises RuntimeError with its traceback. Every child is
    reaped before this returns or raises, and killed first if this process
    is unwinding from an error."""
    if count == 1:
        return [work(0)]
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, the read end of its pipe)
    try:
        for k in range(1, count):
            pipe = ()
            try:
                pipe = read, write = os.pipe()
                with warnings.catch_warnings():
                    # Python 3.12+ warns of any thread it counts, a BLAS pool's
                    # included; no other Python thread runs here (`_shard_count`).
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                for fd in pipe:
                    os.close(fd)
                break
            if pid == 0:
                _serve_shard(work, k, read, write)
            os.close(write)
            children.append((pid, read))
        done = [work(0)] + [_receive_shard(read, k) for k, (_, read) in enumerate(children, 1)]
        return done + [work(k) for k in range(len(done), count)]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)


def _serve_shard(work, shard: int, read: int, write: int) -> None:
    """In a forked child: pickle ("result", work(shard)), or ("error", the
    ConfigurationError it raised), or ("crash", any other failure's
    traceback), to the pipe `write`, and leave by `os._exit`, which runs
    none of the parent's exit handlers and flushes none of its buffers."""
    code = 1
    try:
        os.close(read)
        try:
            message = ("result", work(shard))
        except ConfigurationError as exc:
            message = ("error", exc)
        except Exception:
            message = ("crash", traceback.format_exc())
        with open(write, "wb") as pipe:
            pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _receive_shard(read: int, shard: int):
    """The result that shard's child pickled to the pipe `read`."""
    with open(read, "rb", closefd=False) as pipe:
        try:
            kind, value = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            kind, value = "crash", "it ended before sending its result"
    if kind == "error":
        raise value
    if kind == "crash":
        raise RuntimeError(f"trial-run shard {shard} failed: {value}")
    return value


def _trace_toas(prep, spec, piece, noise_power, seed, receiver, dump_dir, timings) -> list[float]:
    """Propagate one received trace of the path spec, whose clean piece is
    given, with its seed, write it under dump_dir if given, and return its
    TOA at every bank, each walking its slots from the one windowed-energy
    peak, and then at every sampling rate, from one pass that filters only
    the LPF blocks some rate's largest sample can lie in."""
    trace = _timed(
        timings, "propagate", propagate, prep.paths, spec, seed=seed,
        noise_power=noise_power, piece=piece,
    )
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        rows = (
            {"time_s": t, "value": v}
            for t, v in zip(trace.times().tolist(), trace.samples.tolist())
        )
        write_rows_csv(rows, os.path.join(dump_dir, f"pos000_run000_bs{receiver + 1}.csv"))
    toas = []
    if prep.banks:
        peak = _timed(timings, "ctma", energy_peak, trace, prep.t_p, prep.config.t_ob)
        toas = [
            _timed(timings, ("ctma", bank.alpha, None), iterative_toa, trace, peak, bank).tau
            for bank in prep.banks
        ]
    if prep.sampling_rates:
        toas += _timed(timings, "sampling", sampling_toas, trace, prep.t_p, prep.sampling_rates)
    return toas


def run_experiment(cfg: ExperimentConfig, dump_dir=None):
    """Run the full Monte Carlo and return (trials, summary, timings).

    timings, a `Timings`, maps each sweep point's (estimator, alpha, f_s)
    key to the wall time spent on it alone (a bank's refinement and its
    position solves; a rate's position solves), each estimator family
    ("ctma", "sampling") to the time of the per-trace stage its points
    share (the windowed-energy peak; the LPF with every rate's sampling),
    and "propagate" to the time of every path's clean piece and every
    `propagate` call, noise included (see `stage_seconds`). Each time sums
    over the trial-run shards, and timings.shards holds their number.
    """
    prep = prepare(cfg)
    positions = _draw_positions(cfg, prep.layout)
    # (key, offset, field) per sweep point, in the order of each receiver's
    # TOA list: banks, then rates. With noise any slot or sample can win, so
    # only the run finds a point too coarse to localize, and names it.
    points = [
        (("ctma", b.alpha, None), prep.ctma_offset, f"mq_pairs (alpha {b.alpha})")
        for b in prep.banks
    ] + [
        (("sampling", None, f_s), prep.lpf_offset, f"sampling_rates ({f_s:g} Hz)")
        for f_s in prep.sampling_rates
    ]
    trials: list[TrialResult] = []
    timings = Timings()
    for p_idx, r_idx, toas in _run_toas(prep, positions, timings, dump_dir):
        for (key, offset, field), taus in zip(points, zip(*toas)):
            at = f"{field}, position {p_idx}, run {r_idx}"
            args = (prep, positions[p_idx], taus, offset, *key, p_idx, r_idx)
            trials.append(_timed(timings, key, _check_field, at, _localize, *args))
    summary = {"config": dataclasses.asdict(cfg), "results": summarize(trials)}
    return trials, summary, timings


def stage_seconds(timings) -> dict:
    """Seconds per stage of a run, from `run_experiment`'s timings:
    propagation (noise included), then each estimator family with its
    shared stage, its sweep points and their position solves."""
    stages = {"propagate": 0.0, "ctma": 0.0, "sampling": 0.0}
    for key, seconds in timings.items():
        stages[key if isinstance(key, str) else key[0]] += seconds
    return stages


def _timed(timings, key, fn, *args, **kwargs):
    """fn(*args, **kwargs), adding its wall time to timings[key]."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[key] += time.perf_counter() - start
    return out


def _localize(prep, position, taus, offset, estimator, alpha, f_s, p_idx, r_idx) -> TrialResult:
    """Solve one trial from its energy-peak TOAs and peak offset; "start-corrected"
    only reports each TOA less t_p, a shift that cancels out of every range."""
    cfg = prep.config
    x, y = position
    triplet = ToaTriplet(*taus, common_offset_correction=offset)
    est_x, est_y = solve_position(prep.layout, tdoa_ranges(triplet), r1_mode=cfg.r1_mode)
    if cfg.toa_mode == "start-corrected":
        taus = [t - prep.t_p for t in taus]
    return TrialResult(
        estimator=estimator,
        alpha=alpha,
        f_s_hz=f_s,
        position_index=p_idx,
        run_index=r_idx,
        true_x_m=x,
        true_y_m=y,
        est_x_m=est_x,
        est_y_m=est_y,
        tau1_s=taus[0],
        tau2_s=taus[1],
        tau3_s=taus[2],
        error_m=math.hypot(est_x - x, est_y - y),
    )


def aede(trials) -> float:
    """Average Euclidean distance error: the mean over positions of each
    position's mean over the runs it holds. Requires one homogeneous
    estimator group and no (position, run) cell twice."""
    trials = list(trials)
    if not trials:
        raise ConfigurationError("cannot average an empty trial collection")
    groups = {(t.estimator, t.alpha, t.f_s_hz) for t in trials}
    if len(groups) > 1:
        raise ConfigurationError(
            f"mixed estimator groups in one average: {sorted(groups, key=str)}"
        )
    cells: dict[int, dict[int, float]] = {}
    for t in trials:
        runs = cells.setdefault(t.position_index, {})
        if t.run_index in runs:
            raise ConfigurationError(
                f"duplicate trial for position {t.position_index}, run {t.run_index}"
            )
        runs[t.run_index] = t.error_m
    per_position = [float(np.mean(list(runs.values()))) for runs in cells.values()]
    return float(np.mean(per_position))


def summarize(trials) -> list[dict]:
    """Per-sweep-point AEDE rows, ctma points first in ascending alpha,
    then sampling points in ascending rate."""
    groups: dict[tuple, list[TrialResult]] = {}
    for t in trials:
        groups.setdefault((t.estimator, t.alpha, t.f_s_hz), []).append(t)

    def order(key):
        estimator, alpha, f_s = key
        return (0, alpha or 0, 0.0) if estimator == "ctma" else (1, 0, f_s or 0.0)

    rows = []
    for key in sorted(groups, key=order):
        estimator, alpha, f_s = key
        rows.append(
            {
                "estimator": estimator,
                "alpha": alpha,
                "f_s_hz": f_s,
                "aede_m": aede(groups[key]),
                "n_trials": len(groups[key]),
            }
        )
    return rows


def toa_sweep(cfg: ExperimentConfig, dump_dir=None):
    """Per-run TOA estimates versus alpha at toa_position; returns (rows,
    timings), timings keyed as `run_experiment`'s."""
    prep = dataclasses.replace(prepare(cfg), sampling_rates=())
    if not prep.banks:
        raise ConfigurationError(
            f"simulate-toa needs a delay bank, but estimator {cfg.estimator!r} with "
            f"mq_pairs {[list(p) for p in cfg.mq_pairs]} configures none"
        )
    dists = _distances(prep.layout, *cfg.toa_position)
    timings = Timings()
    rows = []
    for _, r_idx, toas in _run_toas(prep, (cfg.toa_position,), timings, dump_dir):
        for b, (dist, taus) in enumerate(zip(dists, toas)):
            for bank, tau in zip(prep.banks, taus):
                rows.append(
                    {
                        "alpha": bank.alpha,
                        "branches": bank.branches,
                        "stages": bank.stages,
                        "bs": b + 1,
                        "run_index": r_idx,
                        "tau_hat_s": tau,
                        "true_delay_s": float(dist) / C0,
                        "peak_offset_s": prep.ctma_offset,
                    }
                )
    rows.sort(key=lambda r: (r["alpha"], r["run_index"], r["bs"]))
    return rows, timings


def write_summary_json(summary: dict, path) -> None:
    """Write a JSON object with sorted keys: summary.json and run_meta.json."""
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_rows_csv(rows, path) -> None:
    """Write an iterable of dict rows as CSV with `csv.writer`, the header
    from the first row's keys: "" for None, repr for a float, str otherwise,
    and a cell holding a comma, quote or line break quoted."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ConfigurationError("no rows to write")
    columns = list(first.keys())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in itertools.chain((first,), rows))
