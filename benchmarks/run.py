"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train-toy --seed 1 --seconds 40 --trace 0

The workload runs in this single process as a closed loop with one caller:
each op starts when the previous one has finished and been checked.  It
imports the library from ``src/`` next to this directory.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs untraced for half the time, then traced for the other half, and
reports the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object; the lines before it repeat every metric with its
unit, plus the environment.  Spans of a traced run go to ``benchmarks/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND_TAIL = 10
SHOWN_PROBLEMS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0, help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only import, generate inputs and build models (timed by setup_s)")
    return p.parse_args(argv)


class Phase:
    """Latencies and counts of one closed-loop stretch of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.frames: list[int] = []
        self.attempted = 0
        self.failed = 0

    @property
    def frames_per_s(self) -> float:
        """Input frames finished per second of timed wall time."""
        return sum(self.frames) / sum(self.latencies)


def run_op(wl, i: int, tracer=None) -> tuple[float, int, list[str]]:
    """(latency, frames, problems) of op i; its arrays are freed on return."""
    inputs = wl.prepare(i)
    if tracer is None:
        t0 = perf_counter()
        result = wl.call(inputs)
        elapsed = perf_counter() - t0
    else:
        tracer.op = i
        excluded = tracer.excluded
        t0 = perf_counter()
        span = tracer.begin("op")
        try:
            result = wl.call(inputs)
        finally:
            tracer.end(span)
        elapsed = perf_counter() - t0 - (tracer.excluded - excluded)
    return elapsed, wl.frames_of(inputs), wl.check(inputs, result)


def run_phase(wl, seconds: float, min_ops: int, tracer=None, untimed_first=False) -> Phase:
    phase = Phase()
    deadline = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline:
        phase.attempted += 1
        try:
            elapsed, frames, problems = run_op(wl, i, tracer)
        except Exception:  # an op that raises is a failed op; the run goes on
            problems = [traceback.format_exc()]
        if problems:
            phase.failed += 1
            if phase.failed <= SHOWN_PROBLEMS:
                print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
        elif not (untimed_first and i == 0):
            phase.latencies.append(elapsed)
            phase.frames.append(frames)
        i += 1
    return phase


def tail(latencies: list[float], preferred: int) -> tuple[float, float]:
    """(percentile, value): the preferred percentile if at least
    MIN_BEYOND_TAIL ops lie beyond it, else the highest that has them.  A
    run too short for even the median to qualify reports its maximum."""
    n = len(latencies)
    for p in (q for q in TAIL_PERCENTILES if q <= preferred):
        if n * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            return p, statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
    return 100, max(latencies)


def time_setup(args) -> float:
    """Median wall time of fresh processes that only set the workload up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def blas_threads() -> str:
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested; OpenBLAS not found to ask)"


def cache_size(level: int) -> str:
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return f"{int(out) / 2**20:g}MiB"
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"


def describe(args, wl, why: str) -> None:
    import numpy

    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          "loop=closed callers=1 threads=1")
    print(f"# why: {why}")
    print(f"# env: python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={len(os.sched_getaffinity(0))} blas_threads={blas_threads()} "
          f"l2={cache_size(2)} l3={cache_size(3)}")
    print(f"# working_set={wl.working_set_bytes() / 2**20:.2f}MiB (computed from array sizes)")


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, so each workload runs single-threaded; set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import graphtransducer

    if not os.path.abspath(graphtransducer.__file__).startswith(SRC + os.sep):
        print(f"graphtransducer was imported from {graphtransducer.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    describe(args, wl, next(w["why"] for w in spec["workloads"] if w["name"] == wl.name))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.trace == 0:
        phase = run_phase(wl, args.seconds, wl.min_ops, untimed_first=True)
        phases = [phase]
        p, tail_s = tail(phase.latencies, wl.tail_percentile)
        metrics = {
            "setup_s": time_setup(args),
            "frames_per_s": phase.frames_per_s,
            "op_p50_ms": statistics.median(phase.latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {"op_tail_ms": f"p{p} of {len(phase.latencies)} ops"}
        extra = wl.report()
    else:
        untraced = run_phase(wl, args.seconds / 2, 1, untimed_first=True)
        tracer = tracing.Tracer(wl.window)
        with tracing.installed(tracer, wl.lookups()):
            traced = run_phase(wl, args.seconds / 2, wl.window, tracer=tracer)
        phases = [untraced, traced]
        metrics = tracer.per_layer(len(traced.latencies), traced.frames_per_s,
                                   untraced.frames_per_s)
        path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.npz")
        written = tracer.save(path)
        print(f"# spans: {len(tracer)} recorded, {written} of the count window written to "
              f"{os.path.relpath(path)}")
        notes, extra = {}, []
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")

    for name, unit in units.items():
        show(name, metrics[name], unit, notes.get(name, ""))
    for name, value, unit in extra:
        show(name, value, unit)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    show("ops_attempted", attempted, "ops")
    show("ops_failed", failed, "ops")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
