"""One benchmark invocation: a fresh single-threaded process that runs one CLI command.

    python3 bench/child.py --command sweep --config C --out DIR --report R.json [--trace]

The process runs `mmwave-tdoa <command>` once, in-process through
`cli.main`, as the command line would. Set-up time runs from the start of
this script until the command's first `prepare()` returns, so it covers
`import mmwave_tdoa`, config load and `prepare()`, all cold. Command time
runs from the `cli.main` call until the output files are written, and so
includes that set-up work too. The host-speed probe (`calibrate.py`) runs
once after numpy is imported and before the package is, and once after the
command; set-up time leaves the first probe out. With --trace the span
tracer is installed before the command and removed before the second
probe; the timings of a traced invocation are then traced ones. The report
(timings, probe times, exit code, peak RSS and, when traced, the span
summary) goes to --report as JSON; the spans themselves go next to it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    # The package imports these too. numpy loads its fft and random
    # submodules lazily: they load here, inside set-up time, rather than
    # in the probe that follows.
    import numpy
    import numpy.fft
    import numpy.random

    imported = time.perf_counter()
    from calibrate import probe_s  # bench/ is this script's directory, first on sys.path

    probes = [probe_s()]
    resumed = time.perf_counter()
    from mmwave_tdoa import cli, harness

    tracer = None
    command = cli.main
    if args.trace:
        from tracer import Tracer  # bench/ is this script's directory, first on sys.path

        tracer = Tracer()
        tracer.install()
        command = tracer.span("cli.main", cli.main)

    prepared = []  # when each prepare() call returned
    prepare = harness.prepare

    def timed_prepare(*args, **kwargs):
        result = prepare(*args, **kwargs)
        prepared.append(time.perf_counter())
        return result

    harness.prepare = timed_prepare

    argv = [args.command, "--config", args.config, "--out", args.out]
    captured = io.StringIO()
    command_started = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        exit_code = command(argv)
    command_s = time.perf_counter() - command_started
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    probes.append(probe_s())

    report = {
        "setup_s": (imported - started) + (prepared[0] - resumed) if prepared else None,
        "command_s": command_s,
        "probe_s": probes,
        "exit_code": exit_code,
        "maxrss_kb": maxrss_kb,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "output": captured.getvalue()[-2000:],
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(os.path.splitext(args.report)[0] + ".spans.json")
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
