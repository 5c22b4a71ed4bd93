"""Record the outputs the correctness gate compares against.

    python3 bench/record_reference.py

Run from the repository root, on a commit whose outputs are known good.
For every workload and every config seed in the pool (0 to
REFERENCE_SEEDS - 1) it runs one invocation, requires it to pass the gate's
reference-free checks, and stores the sha256 of the byte-stable outputs
in `bench/reference.json`. Re-record only when a change sets out to
alter the outputs (a new noise realization, say), and say so where the
change is described.
"""
from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import run


def record(root: str, workload: run.Workload, seed: int) -> dict:
    cfg = workload.config(seed)
    work = os.path.join(root, run.OUT_ROOT, "reference", workload.name, str(seed))
    os.makedirs(work, exist_ok=True)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as handle:
        json.dump(cfg, handle, indent=2, sort_keys=True)
        handle.write("\n")
    out_dir = os.path.join(work, "out")
    report = run.run_invocation(root, workload, cfg_path, out_dir, False, run.RUN_DEADLINE_S)
    if "crashed" in report or report["exit_code"] != 0:
        why = report.get("crashed") or report["output"]
        raise SystemExit(f"{workload.name} seed {seed}: {why}")
    failed, problems = run.check_outputs(workload, cfg, out_dir)
    if failed or problems:
        raise SystemExit(f"{workload.name} seed {seed}: {failed} failed; {problems}")
    return run.reference_entry(workload, cfg, out_dir)


def main() -> int:
    root = os.getcwd()
    reference = {"seeds": run.REFERENCE_SEEDS, "workloads": {}}
    for name, workload in sorted(run.WORKLOADS.items()):
        seeds = range(run.REFERENCE_SEEDS)
        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            entries = list(pool.map(lambda s: record(root, workload, s), seeds))
        reference["workloads"][name] = {str(s): e for s, e in zip(seeds, entries)}
        print(f"recorded {name}: {len(entries)} seeds", file=sys.stderr)
    with open(run.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
