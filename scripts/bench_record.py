#!/usr/bin/env python3
"""Record a parent-versus-change benchmark comparison as one JSON file.

    python3 scripts/bench_record.py --parent DIR --out BENCH_N.json \\
        [--seconds 15] [--seed 7]

Run from the root of the change's checkout, with the change committed:
the record names the checkout's HEAD as the change, so the script exits 1,
listing the files, while `src/` or `bench/` differ from it. DIR is a
checkout of the parent commit (made with `git archive` or `git clone`); a
`git archive` copy has no `.git`, so its commit is recorded as
"unavailable". For every benchmark workload the script

- runs `bench/run.py --trace 0` in the two checkouts in ten alternating
  pairs (the parent first in even pairs, the change first in odd ones),
  the count a claimed gain is judged on, and keeps
  each run's end-to-end metrics, with their medians and quartiles;
- runs `bench/run.py --trace 1` once in each checkout for the per-layer
  metrics;
- keeps the sha256 of every output file of each side, and names the
  byte-stable ones;
- measures `ru_minflt`, `ru_stime`, `ru_utime` and the wall time
  `wall_s` around one in-process `cli.main` call of the workload's
  command, the median of three fresh processes. The two rusage times are
  CPU seconds of all the process's threads, so beside `wall_s` they tell
  a gain from a second core apart from a gain from less work. Beside
  them, from `RUSAGE_CHILDREN`, go the CPU seconds of the trial-run
  shards the call forked and reaped (`children_ru_utime`,
  `children_ru_stime`), with the largest peak RSS of one of them
  (`children_maxrss_mb`) and the process's own (`maxrss_mb`). The
  benchmark's `peak_rss_mb` reads only the process's own `ru_maxrss`
  (`bench/child.py`), so a shard's memory shows only here.
  The fault count cannot resolve differences below about 12 pages: an
  inert edit (a longer docstring, an unused function) moves it that much,
  since code objects' sizes shift where `cli.main`'s objects land in the
  heap, so a smaller difference reflects heap layout, not code.

Each checkout runs its own `bench/run.py` and `src/`. Nothing under
`bench/` is written; `bench/run.py` leaves its runs under `.bench_out/` of
each checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.dont_write_bytecode = True  # importing bench/run.py leaves no __pycache__ there

import run  # noqa: E402  (bench/run.py)

PAIRS = 10  # alternating parent/change pairs per workload
REPEATS = 3  # fresh processes per side for the rusage probe

# Runs one command in-process and prints the rusage deltas around it.
RUSAGE_PROBE = """
import contextlib, io, json, resource, sys, tempfile, time, os
import numpy.fft, numpy.random
from mmwave_tdoa import cli
command, config = sys.argv[1], json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as work:
    path = os.path.join(work, "config.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    argv = [command, "--config", path, "--out", os.path.join(work, "out")]
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    after, wall = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter() - start
    shards = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"exit_code": code, "ru_minflt": after.ru_minflt - before.ru_minflt,
                  "ru_stime": after.ru_stime - before.ru_stime,
                  "ru_utime": after.ru_utime - before.ru_utime, "wall_s": wall,
                  "maxrss_mb": after.ru_maxrss / 1024,
                  "children_ru_stime": shards.ru_stime - children.ru_stime,
                  "children_ru_utime": shards.ru_utime - children.ru_utime,
                  "children_maxrss_mb": shards.ru_maxrss / 1024}))
"""


def bench_run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run in `checkout`: its provenance and result lines."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    provenance, result = (json.loads(line) for line in lines[-2:])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} failed its gate: {done.stderr[-2000:]}")
    return {**provenance, **result}


def rusage_per_call(checkout: str, workload, seed: int) -> dict:
    env = run.child_env(checkout)
    calls = []
    for _ in range(REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", RUSAGE_PROBE, workload.command,
             json.dumps(workload.config(seed))],
            cwd=checkout, env=env, capture_output=True, text=True, check=True,
        )
        calls.append(json.loads(done.stdout.splitlines()[-1]))
    return {
        key: statistics.median(call[key] for call in calls)
        for key in (
            "ru_minflt", "ru_stime", "ru_utime", "wall_s", "maxrss_mb",
            "children_ru_stime", "children_ru_utime", "children_maxrss_mb",
        )
    } | {"calls": calls}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def record_workload(name: str, sides: dict, args) -> dict:
    runs = {side: [] for side in sides}
    for pair in range(PAIRS):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(bench_run(sides[side], name, args.seed, args.seconds, 0))
            print(f"{name} pair {pair} {side}: {runs[side][-1]['metrics']}", flush=True)
    end_to_end = {}
    for metric in runs["parent"][0]["metrics"]:
        entry = {
            side: spread([r["metrics"][metric]["value"] for r in runs[side]]) for side in sides
        }
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        end_to_end[metric] = entry
    traced = {side: bench_run(sides[side], name, args.seed, args.seconds, 1) for side in sides}
    workload = run.WORKLOADS[name]
    return {
        "end_to_end": end_to_end,
        "per_layer": {
            side: {m: v["value"] for m, v in traced[side]["metrics"].items()} for side in sides
        },
        # Only these outputs are byte-stable; the others hold timings.
        "stable_outputs": list(workload.stable_outputs),
        "output_sha256": {side: runs[side][0]["provenance"]["output_sha256"] for side in sides},
        "rusage_per_call": {
            side: rusage_per_call(sides[side], workload, args.seed)
            for side in sides
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no", "--", "src", "bench"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    if dirty:
        raise SystemExit(f"commit the change first; uncommitted under src/ or bench/:\n{dirty}")
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    record = {
        "command": (
            f"python3 scripts/bench_record.py --parent PARENT --out {args.out} "
            f"--seconds {args.seconds} --seed {args.seed}"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "commits": {side: run.git_commit(path) for side, path in sides.items()},
        "workloads": {
            name: record_workload(name, sides, args) for name in sorted(run.WORKLOADS)
        },
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
