#!/usr/bin/env python3
"""Check that the current code reproduces every recorded benchmark output.

    python3 scripts/check_reference.py

Runs each benchmark workload's config for every config seed in the pool
(see `bench/run.py`) once, in this process through `cli.main`, with the
outputs in a temporary directory. Each run's byte-stable outputs are
hashed and compared with `bench/reference.json` by the benchmark's own
gate (`run.compare_reference`). Prints every mismatch, one line per
workload with its mismatch count and elapsed seconds, and the total; exits
1 if there is any mismatch, 0 otherwise. Nothing under `bench/` is
written. An exact change (one that must not move any output) passes this
before it is benchmarked.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
sys.dont_write_bytecode = True  # importing bench/run.py leaves no __pycache__ there

import run  # noqa: E402  (bench/run.py)
from mmwave_tdoa import cli  # noqa: E402


def check(name: str, workload, seed: int, reference: dict) -> list[str]:
    """Run config seed `seed` of workload `name` once and return how its
    byte-stable outputs differ from `reference` (the "workloads" map of
    `bench/reference.json`); an empty list means they match."""
    cfg = workload.config(seed)
    with tempfile.TemporaryDirectory() as work:
        cfg_path = os.path.join(work, "config.json")
        with open(cfg_path, "w") as handle:
            json.dump(cfg, handle)
        out_dir = os.path.join(work, "out")
        argv = [workload.command, "--config", cfg_path, "--out", out_dir]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            exit_code = cli.main(argv)
        if exit_code != 0:
            return [f"exit code {exit_code}: {captured.getvalue()[-500:]}"]
        return run.compare_reference(workload, out_dir, reference.get(name, {}).get(str(seed)))


def main() -> int:
    reference = run.load_reference().get("workloads", {})
    checked, mismatches = 0, 0
    for name, workload in sorted(run.WORKLOADS.items()):
        started, failed = time.perf_counter(), 0
        for seed in range(run.REFERENCE_SEEDS):
            problems = check(name, workload, seed, reference)
            if problems:
                failed += 1
                print(f"{name} seed {seed}: {'; '.join(problems)}", flush=True)
        elapsed = time.perf_counter() - started
        print(f"{name}: {failed} mismatches out of {run.REFERENCE_SEEDS} "
              f"in {elapsed:.1f} s", flush=True)
        checked += run.REFERENCE_SEEDS
        mismatches += failed
    print(f"{mismatches} mismatches out of {checked}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
