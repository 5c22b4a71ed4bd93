"""Repository benchmark: Monte Carlo workloads of the mmwave-tdoa CLI.

    python3 bench/run.py --workload desk --seed 3 --seconds 30 --trace 0

Run from the repository root. The benchmark generates a config from the
workload and seed, then runs the CLI command on it again and again, each
time in a fresh single-threaded process (`bench/child.py`), until
--seconds have passed. Every invocation's outputs go through the
correctness gate. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
invocations of the run). With --trace 1 the run alternates untraced and
traced invocations; the traced ones give the per-layer metrics and the
ROADMAP's per-trace stage table, and the pair gives the tracing overhead.

The end-to-end times are normalized to a reference host speed. The host
is shared, and its speed drifts by tens of percent over seconds to
minutes, so wall times of the same code spread too far between runs to
resolve a change. Every invocation times a fixed probe kernel (`bench/calibrate.py`)
right before and after its command; its set-up and command times are
divided by the mean probe time over REFERENCE_PROBE_S. The wall-clock
figures and the probe time are kept as per-layer metrics.

Workloads (all on the 2 m desk layout, 10 ns window, 0.05 ps grid):

- desk: `sweep`, 3 banks x 3 sampling rates, both estimators, noise on.
  The paper's reference experiment; it exercises every layer.
- bank-runs: `simulate-toa`, 5 banks, CTMA only, noise on, one position
  and many runs. Mostly channel time; the same clean waveform repeats on
  every run; no LPF or locate work.
- rates-noiseless: `simulate-tdoa`, 5 sampling rates, sampling only, no
  noise, quadratic r1 mode, many positions x 1 run. Mostly LPF time; no
  noise, no clean-waveform reuse, no bank work.

Inputs come from a pool of REFERENCE_SEEDS configs: --seed n selects
config seed n mod REFERENCE_SEEDS, for which `bench/reference.json` holds
the sha256 of the recorded outputs (see `bench/record_reference.py`).
Every workload's outputs are byte-stable for a fixed config, so the gate
requires them to match those bytes exactly.

Results (provenance, output hashes, every invocation's report and spans)
are kept under `.bench_out/<workload>/` in the working directory.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from calibrate import REFERENCE_PROBE_S

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_SEEDS = 100
PACKAGE_DIR = os.path.join("src", "mmwave_tdoa")
ABSORPTION_TABLE = os.path.join(PACKAGE_DIR, "data", "standard_air_50_500ghz.csv")
OUT_ROOT = ".bench_out"

# Gross-miss bounds: 10 mm of position, or the 33 ps a 10 mm range takes.
POSITION_MISS_M = 0.010
TOA_MISS_S = 33e-12

RUN_DEADLINE_S = 170.0
MIN_TIMEOUT_S = 10.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

BASE_CONFIG = {
    "layout_size": 2.0,
    "pulse_order": 2,
    "pulse_center_frequency": 200e9,
    "pulse_power": 1e-6,
    "energy_fraction": 0.9999,
    "band": [100e9, 300e9],
    "t_ob": 10e-9,
    "step": 5e-14,
    "temperature": 296.0,
    "toa_mode": "peak",
    "guard_radius": 0.01,
}
DESK_BANKS = [[12, 2], [2, 11], [10, 3]]
DESK_RATES = [300e9, 600e9, 1000e9]
FULL_BANKS = [[12, 2], [2, 11], [10, 3], [2, 13], [12, 3]]
FULL_RATES = [300e9, 600e9, 1000e9, 2000e9, 3000e9]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    positions: int
    runs: int
    settings: dict
    stable_outputs: tuple[str, ...]  # byte-identical for a fixed config and seed
    other_outputs: tuple[str, ...] = ()

    @property
    def trial_runs(self) -> int:
        """Trial-runs (one position x one run cell) per invocation."""
        return self.runs if self.command == "simulate-toa" else self.positions * self.runs

    def config(self, seed: int) -> dict:
        input_seed = seed % REFERENCE_SEEDS
        cfg = dict(BASE_CONFIG, n_positions=self.positions, n_runs=self.runs, seed=input_seed)
        cfg.update(self.settings)
        if self.command == "simulate-toa":
            rng = random.Random(f"{self.name}:{input_seed}")
            cfg["toa_position"] = [rng.uniform(0.2, 1.8), rng.uniform(0.2, 1.8)]
        return cfg

    def sweep_points(self, cfg: dict) -> int:
        """Delay banks plus sampling rates the configured estimator runs."""
        banks = len(cfg["mq_pairs"]) if cfg["estimator"] in ("ctma", "both") else 0
        rates = len(cfg["sampling_rates"]) if cfg["estimator"] in ("sampling", "both") else 0
        return banks + rates

    def operations(self, cfg: dict) -> int:
        """Operations per invocation: TOA estimates (one per bank and
        receiver) for simulate-toa, localization attempts otherwise."""
        if self.command == "simulate-toa":
            return self.runs * self.sweep_points(cfg) * 3
        return self.trial_runs * self.sweep_points(cfg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            command="sweep",
            positions=2,
            runs=2,
            settings={
                "mq_pairs": DESK_BANKS,
                "sampling_rates": DESK_RATES,
                "estimator": "both",
                "r1_mode": "known-clock",
                "noise": True,
            },
            stable_outputs=("trials.csv", "summary.json"),
            other_outputs=("sweep.csv", "run_meta.json"),
        ),
        Workload(
            name="bank-runs",
            command="simulate-toa",
            positions=1,
            runs=8,
            settings={
                "mq_pairs": FULL_BANKS,
                "sampling_rates": FULL_RATES,
                "estimator": "ctma",
                "r1_mode": "known-clock",
                "noise": True,
            },
            stable_outputs=("toa_vs_alpha.csv",),
        ),
        Workload(
            name="rates-noiseless",
            command="simulate-tdoa",
            positions=6,
            runs=1,
            settings={
                "mq_pairs": FULL_BANKS,
                "sampling_rates": FULL_RATES,
                "estimator": "sampling",
                "r1_mode": "quadratic",
                "noise": False,
            },
            stable_outputs=("trials.csv", "summary.json"),
            other_outputs=("run_meta.json",),
        ),
    )
}


# -- helpers -----------------------------------------------------------------
def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unavailable"


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def child_env(root: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_invocation(
    root: str, workload: Workload, cfg_path: str, out_dir: str, trace: bool, timeout: float
) -> dict:
    """Run one fresh child process; return its report, or {"crashed": why}."""
    report_path = out_dir + ".report.json"
    argv = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        "--command",
        workload.command,
        "--config",
        cfg_path,
        "--out",
        out_dir,
        "--report",
        report_path,
    ]
    if trace:
        argv.append("--trace")
    try:
        proc = subprocess.run(
            argv,
            cwd=root,
            env=child_env(root),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out"}
    if proc.returncode != 0 or not os.path.exists(report_path):
        tail = proc.stdout.decode(errors="replace")[-2000:]
        return {"crashed": f"child exited {proc.returncode}: {tail}"}
    with open(report_path) as handle:
        return json.load(handle)


# -- correctness gate ----------------------------------------------------------
def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _aede_by_tag(rows: list[dict]) -> dict:
    """Mean over positions of the per-position mean error, per sweep point."""
    cells: dict = {}
    for row in rows:
        tag = (row["estimator"], row["alpha"], row["f_s_hz"])
        cells.setdefault(tag, {}).setdefault(row["position_index"], []).append(
            float(row["error_m"])
        )
    return {
        tag: statistics.fmean(statistics.fmean(v) for v in per_pos.values())
        for tag, per_pos in cells.items()
    }


def check_localization(workload: Workload, cfg: dict, out_dir: str):
    """Gate for trials.csv/summary.json outputs. Returns (failed ops, problems)."""
    expected = workload.operations(cfg)
    rows = read_rows(os.path.join(out_dir, "trials.csv"))
    with open(os.path.join(out_dir, "summary.json")) as handle:
        results = json.load(handle)["results"]
    problems = []
    errors = [float(r["error_m"]) for r in rows]
    misses = sum(1 for e in errors if not (math.isfinite(e) and e <= POSITION_MISS_M))
    failed = misses + max(0, expected - len(rows))
    if len(rows) != expected:
        problems.append(f"trials.csv has {len(rows)} rows, expected {expected}")
    if misses:
        problems.append(f"{misses} localization errors above {POSITION_MISS_M} m")

    aede = [float(r["aede_m"]) for r in results]
    if len(aede) != workload.sweep_points(cfg) or not all(math.isfinite(a) for a in aede):
        problems.append(f"expected {workload.sweep_points(cfg)} finite AEDE points: {aede}")
    recomputed = _aede_by_tag(rows)
    for r in results:
        tag = (
            r["estimator"],
            "" if r["alpha"] is None else str(r["alpha"]),
            "" if r["f_s_hz"] is None else repr(float(r["f_s_hz"])),
        )
        if tag not in recomputed or not math.isclose(recomputed[tag], r["aede_m"], rel_tol=1e-9):
            problems.append(f"summary AEDE {r['aede_m']!r} for {tag} disagrees with trials.csv")

    return failed, problems


def check_toa(workload: Workload, cfg: dict, out_dir: str):
    """Gate for toa_vs_alpha.csv: every estimate within the gross-miss bound."""
    expected = workload.operations(cfg)
    rows = read_rows(os.path.join(out_dir, "toa_vs_alpha.csv"))
    problems = []
    misses = 0
    for r in rows:
        error = float(r["tau_hat_s"]) - float(r["true_delay_s"]) - float(r["peak_offset_s"])
        if not (math.isfinite(error) and abs(error) <= TOA_MISS_S):
            misses += 1
    if len(rows) != expected:
        problems.append(f"toa_vs_alpha.csv has {len(rows)} rows, expected {expected}")
    if misses:
        problems.append(f"{misses} TOA errors above {TOA_MISS_S} s")
    return misses + max(0, expected - len(rows)), problems


def check_outputs(workload: Workload, cfg: dict, out_dir: str):
    """Run the workload's gate; a missing or unreadable output fails every operation."""
    gate = check_toa if workload.command == "simulate-toa" else check_localization
    try:
        return gate(workload, cfg, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return workload.operations(cfg), [f"unreadable outputs: {exc!r}"]


def compare_reference(workload: Workload, out_dir: str, reference: dict | None) -> list[str]:
    """Require the byte-stable outputs to match the reference recorded for the same config."""
    if reference is None:
        return ["no reference recorded for this config"]
    problems = []
    for name in workload.stable_outputs:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path) or sha256_file(path) != reference["sha256"][name]:
            problems.append(f"{name} bytes differ from the reference")
    return problems


def output_hashes(workload: Workload, out_dir: str) -> dict:
    hashes = {}
    for name in workload.stable_outputs + workload.other_outputs:
        path = os.path.join(out_dir, name)
        hashes[name] = sha256_file(path) if os.path.exists(path) else None
    return hashes


def reference_entry(workload: Workload, cfg: dict, out_dir: str) -> dict:
    """What bench/reference.json records for one config."""
    return {"sha256": {n: sha256_file(os.path.join(out_dir, n)) for n in workload.stable_outputs}}


# -- metrics -------------------------------------------------------------------
def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(report: dict, workload: Workload) -> dict:
    """Per-layer metrics of one traced invocation.

    Suffixes: `ms_per_call`/`us_per_call` are self time (not covered by a
    child span) per call inside the trial-runs, `total_ms_per_call` adds
    the children; `calls_per_trace` counts calls inside the trial-runs per
    received trace (three per trial-run); `.ms` is inclusive time and
    `self_ms` self time, both per command invocation, set-up included.
    """
    trace = report["trace"]
    spans, loop = trace["spans"], trace["loop_spans"]
    cells = workload.trial_runs
    traces = 3 * cells

    def calls(name):
        return loop.get(name, {}).get("calls", 0)

    def per_call(name, key="self_s", scale=1e3):
        n = calls(name)
        return loop[name][key] * scale / n if n else 0.0

    def total_ms(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names) * 1e3

    def self_ms(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names) * 1e3

    propagations = calls("channel.propagate")
    m = {
        "channel.propagate.calls_per_trial_run": propagations / cells,
        "channel.propagate.ms_per_call": per_call("channel.propagate"),
        "channel.propagate.total_ms_per_call": per_call("channel.propagate", "total_s"),
        "channel.propagate.distinct_paths_per_call": (
            trace["distinct_paths"] / propagations if propagations else 0.0
        ),
        "channel._band_limited_noise.calls_per_trace": (
            calls("channel._band_limited_noise") / traces
        ),
        "channel._band_limited_noise.ms_per_call": per_call("channel._band_limited_noise"),
        "detector.lpf_approximation.calls_per_trace": calls("detector.lpf_approximation") / traces,
        "detector.lpf_approximation.ms_per_call": per_call("detector.lpf_approximation"),
        "detector.sampling_toa.calls_per_trace": calls("detector.sampling_toa") / traces,
        "detector.sampling_toa.ms_per_call": per_call("detector.sampling_toa"),
        "detector.iterative_toa.calls_per_trace": calls("detector.iterative_toa") / traces,
        "detector.iterative_toa.ms_per_call": per_call("detector.iterative_toa"),
        "detector._windowed_energy.calls_per_trace": calls("detector._windowed_energy") / traces,
        "detector._windowed_energy.ms_per_call": per_call("detector._windowed_energy"),
        "locate.tdoa_ranges.us_per_call": per_call("locate.tdoa_ranges", scale=1e6),
        "locate.solve_position.us_per_call": per_call("locate.solve_position", scale=1e6),
        "harness.prepare.ms": total_ms("harness.prepare"),
        "pulse.generate_pulse.ms": total_ms("pulse.generate_pulse"),
        "pulse.effective_duration.ms": total_ms("pulse.effective_duration"),
        "channel.ingest_absorption.ms": total_ms("channel.ingest_absorption"),
        "channel.transmit_psd.ms": total_ms("channel.transmit_psd"),
        "channel.noise_variance.ms": total_ms("channel.noise_variance"),
        "harness.summarize.ms": total_ms("harness.summarize"),
        "harness.write.ms": total_ms(
            "harness.write_trials_csv", "harness.write_summary_json", "harness.write_rows_csv"
        ),
        "harness.loop.self_ms": self_ms(
            "harness.run_experiment", "harness.toa_sweep", "harness.sweep_report"
        ),
        "cli.main.self_ms": self_ms("cli.main"),
    }
    fft = {layer: v for layer, v in trace["fft"].items() if layer != "setup"}
    for layer in ("all", "channel", "detector"):
        rows = list(fft.values()) if layer == "all" else [fft.get(layer, [0, 0, 0, 0.0])]
        prefix = "fft" if layer == "all" else f"fft.{layer}"
        m[f"{prefix}.calls_per_trace"] = sum(r[0] for r in rows) / traces
        m[f"{prefix}.points_per_trace"] = sum(r[1] for r in rows) / traces
        m[f"{prefix}.slow_len_calls_per_trace"] = sum(r[2] for r in rows) / traces
        m[f"{prefix}.ms_per_trace"] = sum(r[3] for r in rows) * 1e3 / traces
    return m


STAGE_ROWS = (
    ("propagate with noise (total)", "channel.propagate", "total_s"),
    ("- clean path (self)", "channel.propagate", "self_s"),
    ("- _band_limited_noise", "channel._band_limited_noise", "self_s"),
    ("lpf_approximation", "detector.lpf_approximation", "self_s"),
    ("sampling_toa (LPF excluded)", "detector.sampling_toa", "self_s"),
    ("_windowed_energy", "detector._windowed_energy", "self_s"),
    ("iterative_toa (energy excluded)", "detector.iterative_toa", "self_s"),
)


def stage_table(reports: list[dict], workload: Workload) -> str:
    """The ROADMAP's per-trace stage table, medians over traced invocations."""
    traces = 3 * workload.trial_runs
    lines = [
        f"per-trace stage table: {workload.name}, median of {len(reports)} traced invocations",
        "| Stage | ms per call | calls per trace | ms per trace |",
        "|---|---|---|---|",
    ]
    for label, name, key in STAGE_ROWS:
        per_call, per_trace, counts = [], [], []
        for r in reports:
            entry = r["trace"]["loop_spans"].get(name, {"calls": 0, key: 0.0})
            counts.append(entry["calls"] / traces)
            per_trace.append(entry[key] * 1e3 / traces)
            per_call.append(entry[key] * 1e3 / entry["calls"] if entry["calls"] else 0.0)
        lines.append(
            f"| {label} | {median(per_call):.2f} | {median(counts):g} | {median(per_trace):.2f} |"
        )
    fft_ms = [
        sum(v[3] for k, v in r["trace"]["fft"].items() if k != "setup") * 1e3 / traces
        for r in reports
    ]
    wall = [r["command_s"] * 1e3 / traces for r in reports]
    lines.append(f"| all FFTs | | | {median(fft_ms):.2f} |")
    lines.append(f"| command wall time | | | {median(wall):.2f} |")
    return "\n".join(lines)


# -- running a workload ---------------------------------------------------------
@dataclass
class RunRecord:
    """Everything one benchmark run observed."""

    attempted: int = 0
    failed: int = 0
    invocations: int = 0
    problems: list = field(default_factory=list)
    plain: list = field(default_factory=list)  # reports of untraced invocations
    traced: list = field(default_factory=list)  # reports of traced invocations
    hashes: dict | None = None  # output sha256 of the first good invocation


def run_workload(root, workload, cfg_path, reference, seconds, trace, out_root) -> RunRecord:
    """Invoke the workload until `seconds` pass, gating every invocation.

    With `trace`, invocations alternate untraced and traced, at least one
    of each."""
    with open(cfg_path) as handle:
        cfg = json.load(handle)
    started = time.monotonic()
    record = RunRecord()
    ops = workload.operations(cfg)
    min_invocations = 2 if trace else 1
    while record.invocations < min_invocations or time.monotonic() - started < seconds:
        # A hung child is killed in time for the run to end by RUN_DEADLINE_S.
        timeout = RUN_DEADLINE_S - (time.monotonic() - started)
        if timeout < MIN_TIMEOUT_S:
            record.problems.append("run deadline reached")
            break
        use_trace = trace and record.invocations % 2 == 1
        out_dir = os.path.join(out_root, f"inv-{record.invocations:03d}")
        report = run_invocation(root, workload, cfg_path, out_dir, use_trace, timeout)
        record.invocations += 1
        record.attempted += ops
        tag = f"invocation {record.invocations}"
        if "crashed" in report or report["exit_code"] != 0:
            record.failed += ops
            record.problems.append(f"{tag}: {report.get('crashed') or report['output']}")
            continue
        failed, found = check_outputs(workload, cfg, out_dir)
        found += compare_reference(workload, out_dir, reference)
        record.failed += failed
        record.problems += [f"{tag}: {p}" for p in found]
        if report["setup_s"] is None:
            record.problems.append(f"{tag}: no prepare() call was seen")
            continue
        if record.hashes is None:
            record.hashes = output_hashes(workload, out_dir)
        (record.traced if use_trace else record.plain).append(report)
    return record


def host_slowdown(report: dict) -> float:
    """Mean probe time around an invocation over the reference probe time."""
    return statistics.fmean(report["probe_s"]) / REFERENCE_PROBE_S


def trial_runs_per_s(reports: list[dict], workload: Workload, normalized: bool = True) -> float:
    """Median over invocations of trial-runs per (normalized) second of command time."""
    return median(
        [
            workload.trial_runs * (host_slowdown(r) if normalized else 1.0) / r["command_s"]
            for r in reports
        ]
    )


def end_to_end_metrics(record: RunRecord, workload: Workload) -> dict:
    return {
        "trial_runs_per_s": trial_runs_per_s(record.plain, workload),
        "setup_s": median([r["setup_s"] / host_slowdown(r) for r in record.plain]),
        "peak_rss_mb": median([r["maxrss_kb"] / 1024.0 for r in record.plain]),
        "ok_ratio": 1.0 - record.failed / record.attempted,
    }


def per_layer_metrics(record: RunRecord, workload: Workload) -> dict:
    per_invocation = [layer_metrics(r, workload) for r in record.traced]
    metrics = {name: median([m[name] for m in per_invocation]) for name in per_invocation[0]}
    plain = trial_runs_per_s(record.plain, workload)
    traced = trial_runs_per_s(record.traced, workload)
    metrics["traced.trial_runs_per_s"] = traced
    metrics["tracing_overhead_ratio"] = plain / traced
    metrics["wall.trial_runs_per_s"] = trial_runs_per_s(record.plain, workload, normalized=False)
    metrics["wall.setup_s"] = median([r["setup_s"] for r in record.plain])
    metrics["host.probe_ms"] = median([t * 1e3 for r in record.plain for t in r["probe_s"]])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, PACKAGE_DIR, "__init__.py")):
        print(f"error: no {PACKAGE_DIR} under {root}; run from the repo root", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    reference = load_reference().get("workloads", {}).get(workload.name, {}).get(str(cfg["seed"]))
    out_root = os.path.join(root, OUT_ROOT, workload.name)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    cfg_path = os.path.join(out_root, "config.json")
    with open(cfg_path, "w") as handle:
        json.dump(cfg, handle, indent=2, sort_keys=True)
        handle.write("\n")

    record = run_workload(
        root, workload, cfg_path, reference, args.seconds, bool(args.trace), out_root
    )
    correct = not record.problems and record.failed == 0
    if not (record.traced if args.trace else record.plain):
        metrics = {}  # every invocation crashed: nothing was measured
    elif args.trace:
        metrics = per_layer_metrics(record, workload)
        print(stage_table(record.traced, workload))
    else:
        metrics = end_to_end_metrics(record, workload)

    sample = (record.plain or record.traced or [{}])[0]
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "config_seed": cfg["seed"],
        "trace": args.trace,
        "invocations": record.invocations,
        "nproc": os.cpu_count(),
        "python": sample.get("python"),
        "numpy": sample.get("numpy"),
        "git_commit": git_commit(root),
        "config_sha256": sha256_file(cfg_path),
        "absorption_table_sha256": sha256_file(os.path.join(root, ABSORPTION_TABLE)),
        "thread_env": THREAD_ENV,
        "output_sha256": record.hashes,
    }
    for problem in record.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    units = load_units(root)
    result = {
        "correct": correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "")} for name, v in metrics.items()},
    }
    with open(os.path.join(out_root, "result.json"), "w") as handle:
        full = {"provenance": provenance, "problems": record.problems, **result}
        json.dump(full, handle, indent=2)
        handle.write("\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def load_units(root: str) -> dict:
    """Metric units as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
