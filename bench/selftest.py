"""Self-test of the benchmark, mostly at tiny sizes.

    python3 bench/selftest.py

Run from the repository root (about a minute). It checks that:

- every metric BENCHMARK.json names is printed, with its unit, by
  `bench/run.py` on every workload, and the run passes its gate;
- counts repeat exactly across two traced runs of the same config;
- the self times of a traced invocation's spans sum to no more than its
  wall time, and every span lies inside its parent;
- a corrupted copy of each byte-stable output file fails the gate;
- outside a checkout (only BENCHMARK.json and bench/) the benchmark exits
  non-zero without printing a result.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run

COUNT_UNITS = ("calls/trace", "points/trace", "calls/trial-run", "paths/call")
SELFTEST_SEED = 7


class Checks:
    def __init__(self):
        self.failures = 0

    def __call__(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failures += not ok


def tiny(workload: run.Workload) -> run.Workload:
    runs = 2 if workload.command == "simulate-toa" else 1
    return dataclasses.replace(workload, positions=1, runs=runs)


def write_config(workload: run.Workload, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(workload.config(SELFTEST_SEED), handle)
    return path


def corruptions(path: str):
    """Yield (label, corrupted text) variants of one output file."""
    with open(path) as handle:
        text = handle.read()
    lines = text.splitlines(keepends=True)
    yield "truncated", "".join(lines[:-1])
    if path.endswith(".csv"):
        fields = lines[1].rstrip("\n").split(",")
        fields[-1] = repr(float(fields[-1]) * 3.0 + 1e-3)
        altered = [lines[0], ",".join(fields) + "\n"] + lines[2:]
        yield "last field of first row altered", "".join(altered)
    else:
        data = json.loads(text)
        data["results"][0]["aede_m"] *= 3.0
        yield "first AEDE point altered", json.dumps(data, indent=2, sort_keys=True) + "\n"


def within(span: dict, parent: dict) -> bool:
    return parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def check_tiny(check: Checks, root: str, workload: run.Workload, work: str, spec: dict) -> None:
    name = workload.name
    cfg_path = write_config(workload, os.path.join(work, "config.json"))
    with open(cfg_path) as handle:
        cfg = json.load(handle)

    # The tiny config has no recorded reference: record one here.
    ref_dir = os.path.join(work, "ref")
    report = run.run_invocation(root, workload, cfg_path, ref_dir, False, run.RUN_DEADLINE_S)
    check(report.get("exit_code") == 0, f"{name}: tiny invocation exits 0")
    reference = run.reference_entry(workload, cfg, ref_dir)

    record = run.run_workload(
        root, workload, cfg_path, reference, 0, False, os.path.join(work, "plain")
    )
    check(
        not record.problems and record.failed == 0,
        f"{name}: tiny run passes the gate {record.problems}",
    )
    metrics = run.end_to_end_metrics(record, workload)
    declared = [m["name"] for m in spec["end_to_end"]]
    check(sorted(metrics) == sorted(declared), f"{name}: end-to-end metrics are the declared ones")

    traced = [
        run.run_workload(
            root, workload, cfg_path, reference, 0, True, os.path.join(work, f"traced{i}")
        )
        for i in range(2)
    ]
    layers = [run.per_layer_metrics(r, workload) for r in traced]
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(sorted(layers[0]) == sorted(declared), f"{name}: per-layer metrics are the declared ones")
    counts = [n for n, unit in declared.items() if unit in COUNT_UNITS]
    differing = [n for n in counts if layers[0][n] != layers[1][n]]
    check(
        not differing,
        f"{name}: {len(counts)} counts repeat exactly across two traced runs {differing}",
    )

    for i, r in enumerate(traced):
        rep = r.traced[0]
        self_total = sum(s["self_s"] for s in rep["trace"]["spans"].values())
        wall = rep["command_s"]
        check(
            self_total <= wall,
            f"{name}: span self times {self_total:.4f} s <= wall {wall:.4f} s",
        )
        with open(os.path.join(work, f"traced{i}", "inv-001.report.spans.json")) as handle:
            spans = json.load(handle)
        nested = all(
            s["start"] <= s["end"]
            and (s["parent"] is None or within(s, spans[s["parent"]]))
            for s in spans
        )
        check(nested, f"{name}: {len(spans)} spans nest inside their parents")

    for output in workload.stable_outputs:
        for label, text in corruptions(os.path.join(ref_dir, output)):
            bad = os.path.join(work, "corrupt")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(ref_dir, bad)
            with open(os.path.join(bad, output), "w") as handle:
                handle.write(text)
            failed, problems = run.check_outputs(workload, cfg, bad)
            problems += run.compare_reference(workload, bad, reference)
            check(failed > 0 or bool(problems), f"{name}: {output} {label} fails the gate")


def check_printed(check: Checks, root: str, spec: dict) -> None:
    """Full-size runs through the command line, one invocation per mode."""
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", "1"]
                + ["--seconds", "0", "--trace", str(trace)],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=run.RUN_DEADLINE_S,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            label = f"{name} --trace {trace}"
            passed = proc.returncode == 0 and result["correct"]
            check(passed, f"{label}: exits 0 and passes the gate")
            check(printed == expected, f"{label}: prints every {key} metric with its unit")


def check_bare(check: Checks, root: str, work: str) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(
        os.path.join(root, "bench"),
        os.path.join(bare, "bench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=run.RUN_DEADLINE_S,
    )
    check(
        proc.returncode != 0 and not proc.stdout.strip(),
        "without the sources: non-zero exit, no result",
    )


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    work = os.path.join(root, run.OUT_ROOT, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    check = Checks()
    check_bare(check, root, work)
    for workload in run.WORKLOADS.values():
        check_tiny(check, root, tiny(workload), os.path.join(work, workload.name), spec)
    check_printed(check, root, spec)
    print(f"{check.failures} failed checks")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
