"""Run one ccselect benchmark workload and print its metrics.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 20 --trace 0

Run from the root of a source tree: ccselect is imported from ``src/`` next
to this directory, never from an installed copy. After set-up the workload's
rounds of cells run until ``--seconds`` have passed (and at least the
workload's minimum number of rounds), then the outputs are checked. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

_SCRIPT_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    Falls back to the time since this module began to run where /proc is
    not available.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "ccselect" / "__init__.py").is_file():
        print(f"error: no ccselect sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    # One process and one BLAS thread, set before NumPy loads its BLAS: on a
    # shared machine a multi-threaded BLAS call waits for its slowest thread,
    # which made timings jump five-fold from one call to the next.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import ccselect as cc
    if Path(cc.__file__).resolve().parent != SRC / "ccselect":
        print(f"error: imported ccselect from {cc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    tracer = tracing.install(cc) if args.trace else None
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](cc, args.seed, workdir)
        setup_s = process_age()

        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        if tracer:
            tracer.begin_timed()
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while rounds < wl.min_rounds or time.perf_counter() - start < args.seconds:
            for cell in wl.cells(rounds):
                attempted += 1
                try:
                    with span("bench.cell"):
                        cell()
                except cc.SelectionError as exc:
                    failed += 1
                    print(f"failed: round {rounds}: {exc!r}", file=sys.stderr)
            rounds += 1
        elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        completed = attempted - failed
        if tracer:
            tracer.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = wl.problems()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    fit_s = float(np.median(wl.fit_times)) if wl.fit_times else float("nan")
    if tracer:
        metrics = tracing.layer_metrics(tracer, max(completed, 1))
        metrics["traced.fit_s"] = (fit_s, "s")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cells_per_s": (completed / elapsed, "1/s"),
            "median_rank": (wl.median_rank(), "rank"),
            "fit_s": (fit_s, "s"),
            "subsets_per_s": (wl.subsets / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(f"# {args.workload} seed={args.seed}: {rounds} rounds, {attempted} cells "
          f"({failed} failed) in {elapsed:.3f} s, BLAS threads {BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
