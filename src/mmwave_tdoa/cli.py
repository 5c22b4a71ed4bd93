"""Command line front end.

Subcommands:
  simulate-toa     TOA-versus-resolution data for one node position
  simulate-tdoa    full localization Monte Carlo (trials.csv, summary.json);
                   `sweep` is a second name for it
  validate-config  check a config and report derived quantities

Every run also writes run_meta.json: its wall time, seconds per stage
(stage_s) and per sweep point alone (point_s, timed as `run_experiment`
says), its shard count and numpy's version. A family's shared stage is its
stage_s less its points.

Exit codes: 0 success, 2 configuration error (a write under --out or
--dump-traces that fails included). Any other exception is a bug and
escapes with its traceback.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .harness import (
    ExperimentConfig,
    prepare,
    run_experiment,
    stage_seconds,
    toa_sweep,
    write_rows_csv,
    write_summary_json,
)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, required=True, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument(
        "--dump-traces",
        action="store_true",
        help="write the first trial's received traces under <out>/traces/",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwave-tdoa",
        description="Sampling-free TDOA localization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for (name, *aliases), text in (
        (("simulate-toa",), "single-position TOA estimates versus resolution"),
        (("simulate-tdoa", "sweep"), "full localization Monte Carlo"),
        (("validate-config",), "validate a config without running"),
    ):
        _add_common_arguments(sub.add_parser(name, aliases=aliases, help=text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.command == "validate-config":
            prep = prepare(cfg)
            print("config OK")
            print(f"  pulse duration t_p = {prep.t_p:.4e} s")
            for bank in prep.banks:
                print(
                    f"  bank M={bank.branches} Q={bank.stages}: alpha={bank.alpha}, "
                    f"resolution={bank.resolution:.4e} s"
                )
            for f_s in prep.sampling_rates:
                print(f"  sampling rate {f_s:.4e} Hz")
            return 0

        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        dump_dir = out / "traces" if args.dump_traces else None

        if args.command == "simulate-toa":
            rows, timings = toa_sweep(cfg, dump_dir=dump_dir)
            write_rows_csv(rows, out / "toa_vs_alpha.csv")
            print(f"wrote {out / 'toa_vs_alpha.csv'} ({len(rows)} rows)")
        else:
            trials, summary, timings = run_experiment(cfg, dump_dir=dump_dir)
            write_rows_csv([vars(t) for t in trials], out / "trials.csv")
            write_summary_json(summary, out / "summary.json")
            for row in summary["results"]:
                print(_format_row(row))
        # Times live outside summary.json so identical runs stay byte-identical.
        # The stage and point times sum over the trial-run shards; the
        # outputs' last bits depend on numpy's transforms.
        meta = {
            "wall_time_s": time.perf_counter() - started,
            "stage_s": stage_seconds(timings),
            "point_s": [
                dict(zip(("estimator", "alpha", "f_s_hz", "seconds"), (*key, seconds)))
                for key, seconds in timings.items() if isinstance(key, tuple)
            ],
            "trial_run_shards": timings.shards,
            "numpy_version": np.__version__,
        }
        write_summary_json(meta, out / "run_meta.json")
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Reading the config and the absorption table names its own errors,
        # so an OSError here comes from a write.
        written = Path(exc.filename or args.out)
        flag = "--dump-traces" if args.out / "traces" in (written, *written.parents) else "--out"
        reason = exc.strerror or exc
        print(f"configuration error: {flag}: cannot write {written}: {reason}", file=sys.stderr)
        return 2


def _format_row(row: dict) -> str:
    if row["estimator"] == "ctma":
        label = f"ctma   alpha={row['alpha']:>6}"
    else:
        label = f"sampling fs={row['f_s_hz']:.3e}"
    return f"{label}  AEDE = {row['aede_m']:.4e} m  ({row['n_trials']} trials)"


if __name__ == "__main__":
    sys.exit(main())
