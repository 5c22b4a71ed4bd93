"""Span tracer installed from outside the simulator.

The simulator's modules look up their collaborators as module globals at
call time (`harness.propagate`, `detector.lpf_approximation`,
`numpy.fft.rfft`, ...). Replacing those globals with timing wrappers
records a span at each layer boundary without touching `src/`:

    span = (name, start, end, parent span index, trial-run id)

Spans stay in memory and are written out once, when the command ends.
Spans opened inside the Monte Carlo loop carry the id of the trial-run
they serve; per-trace figures count only those, so set-up work (the
calibration pass in `prepare`, say) does not blur them. FFT calls are
counted (calls, transform points, slow lengths, seconds) against the layer
of the innermost open span rather than recorded as spans, so a layer's
self time includes the transforms it runs.

A target that no longer exists (a private helper renamed or removed) is
skipped; its metrics then read 0 calls.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, function) pairs wrapped as spans. Every global in the package
# that refers to the same function object is replaced, so a function
# imported into several modules is traced wherever it is called from.
SPAN_TARGETS = (
    ("pulse", "generate_pulse"),
    ("pulse", "effective_duration"),
    ("channel", "ingest_absorption"),
    ("channel", "transmit_psd"),
    ("channel", "noise_variance"),
    ("channel", "propagate"),
    ("channel", "_band_limited_noise"),
    ("detector", "_windowed_energy"),
    ("detector", "ctma_output"),
    ("detector", "iterative_toa"),
    ("detector", "lpf_approximation"),
    ("detector", "sampling_toa"),
    ("locate", "tdoa_ranges"),
    ("locate", "solve_position"),
    ("harness", "prepare"),
    ("harness", "run_experiment"),
    ("harness", "sweep_report"),
    ("harness", "toa_sweep"),
    ("harness", "summarize"),
    ("harness", "write_trials_csv"),
    ("harness", "write_summary_json"),
    ("harness", "write_rows_csv"),
)
# The Monte Carlo loop; trial-run ids apply only inside it.
LOOP_SPANS = ("harness.run_experiment", "harness.toa_sweep")
FFT_FUNCTIONS = ("rfft", "irfft")
PACKAGE = "mmwave_tdoa"


def largest_prime_factor(n: int) -> int:
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def is_slow_length(n: int) -> bool:
    """A transform length with a prime factor above 7 misses pocketfft's fast radices."""
    return n > 1 and largest_prime_factor(n) > 7


class Tracer:
    """Collects spans and FFT counters for one command invocation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.trial = None
        # layer -> [calls, points, slow calls, seconds]; "setup" holds the
        # transforms run outside any trial-run.
        self.fft: dict[str, list] = {}
        self.paths: set = set()
        self.propagate_calls = 0

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.trial])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        if self.spans[index][0] in LOOP_SPANS:
            self.trial = None

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _propagate_span(self, name: str, fn):
        signature = inspect.signature(fn)
        timed = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            entropy = getattr(arguments.get("seed"), "entropy", None)
            # Seeds derive from (root, position, run, receiver); spans that
            # follow belong to that trial-run until the next propagate.
            if isinstance(entropy, (list, tuple)) and len(entropy) >= 3:
                self.trial = f"{entropy[1]}:{entropy[2]}"
            else:
                self.trial = str(self.propagate_calls // 3)
            self.propagate_calls += 1
            self.paths.add(
                (
                    id(arguments.get("pulse")),
                    id(arguments.get("table")),
                    repr(arguments.get("spec")),
                    repr(arguments.get("emit_time")),
                    repr(arguments.get("window")),
                )
            )
            return timed(*args, **kwargs)

        return wrapper

    def _fft(self, fn, shape):
        @functools.wraps(fn)
        def wrapper(a, n=None, *args, **kwargs):
            start = time.perf_counter()
            out = fn(a, n, *args, **kwargs)
            elapsed = time.perf_counter() - start
            if n is None:
                # irfft's length is its output's; rfft transforms its input.
                n = shape(out)[-1] if fn.__name__ == "irfft" else shape(a)[-1]
            if self.trial is None or not self._stack:
                layer = "setup"
            else:
                layer = self.spans[self._stack[-1]][0].split(".")[0]
            entry = self.fft.setdefault(layer, [0, 0, 0, 0.0])
            entry[0] += 1
            entry[1] += int(n)
            entry[2] += int(is_slow_length(int(n)))
            entry[3] += elapsed
            return out

        return wrapper

    # -- installation ----------------------------------------------------
    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import numpy

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        for short, func in SPAN_TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            original = getattr(module, func, None)
            if not callable(original):
                continue
            name = f"{short}.{func}"
            make = self._propagate_span if name == "channel.propagate" else self.span
            wrapper = make(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        for func in FFT_FUNCTIONS:
            self._replace(numpy.fft, func, self._fft(getattr(numpy.fft, func), numpy.shape))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds (over all spans, and
        over the spans inside trial-runs); FFT counters; path counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        names: dict[str, dict] = {}
        in_loop: dict[str, dict] = {}
        for (name, start, end, _, trial), covered in zip(self.spans, child_time):
            for table in (names, in_loop) if trial is not None else (names,):
                entry = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - covered
        return {
            "spans": names,
            "loop_spans": in_loop,
            "fft": self.fft,
            "distinct_paths": len(self.paths),
        }

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "trial")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
            handle.write("\n")
