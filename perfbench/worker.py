"""One benchmark process: import antizeno, run one warm-up op, print READY.

With ``--role measure`` it then runs passes over the workload's op list until
the time budget is spent and prints one JSON summary line.  With ``--trace 1``
passes alternate untraced and traced, and the summary adds per-layer figures
and the tracer's overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

# Timings are scaled to a reference CPU speed: each op latency is multiplied by
# CALIB_REF_S over the rolling median of a fixed calibration loop timed before
# each op.  On a shared host the CPU's speed drifts by up to 2x over seconds;
# the loop sees the same drift, so the scaled figures track the program.
CALIB_REF_S = 0.002
CALIB_WINDOW = 5  # ops on each side of the rolling median
_CAL_H = np.array([[1.0, 0.3], [0.3, -0.5j]])
_CAL_EYE = np.eye(2)
_CAL_ONES = np.ones(2)


def calibrate() -> float:
    """Seconds for a fixed single-threaded loop of small NumPy/LAPACK calls.

    It mimics the per-call overhead that dominates antizeno's small-matrix work
    without calling antizeno, so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    for _ in range(100):
        w, v = np.linalg.eig(_CAL_H)
        np.linalg.solve(_CAL_EYE - np.abs(v) ** 2 / 3.0, _CAL_ONES)
        np.exp(-1j * w * 0.1).sum()
    return time.perf_counter() - t0


def speed_factors(calib) -> list:
    """CALIB_REF_S over the rolling median of the calibration times."""
    n = len(calib)
    return [
        CALIB_REF_S / statistics.median(calib[max(0, i - CALIB_WINDOW) : i + CALIB_WINDOW + 1]) for i in range(n)
    ]


def run_op(op, workdir, tracer=None):
    """Run one op; return (latency in seconds, failure reason or None)."""
    d = tempfile.mkdtemp(dir=workdir)
    latency = 0.0
    try:
        if op.setup:
            op.setup(d)
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = op.run(d)
        finally:
            latency = time.perf_counter() - t0
            if tracer:
                tracer.active = False
                tracer.fold()
        op.check(out)
        return latency, None
    except (Exception, SystemExit) as exc:  # every failure is counted and the run goes on
        return latency, failure_reason(exc)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def failure_reason(exc) -> str:
    from workloads import GateError

    text = str(exc) if isinstance(exc, GateError) else f"{type(exc).__name__}: {exc}"
    return text[:200]


def run_pass(workload, workdir, tracer=None, first=False) -> dict:
    ops = workload.once + workload.ops if first else workload.ops
    raw, calib, reasons = [], [], {}
    unexpected = 0
    for op in ops:
        calib.append(calibrate())
        latency, reason = run_op(op, workdir, tracer)
        raw.append(latency)
        if reason:
            key = f"{op.kind}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
            unexpected += not op.may_fail
    for kind, check, may_fail in workload.pass_checks:
        try:
            check()
        except Exception as exc:  # same accounting as an op
            key = f"{kind}: {failure_reason(exc)}"
            reasons[key] = reasons.get(key, 0) + 1
            unexpected += not may_fail
    items = len(ops) + len(workload.pass_checks)
    n_once = len(ops) - len(workload.ops)
    latencies = [x * f for x, f in zip(raw, speed_factors(calib))]
    return {
        "traced": tracer is not None,
        "raw_wall_s": sum(raw[n_once:]),
        "raw_latencies": raw,
        "calib_s": calib,
        "wall_s": sum(latencies[n_once:]),
        "latencies": latencies,
        "items": items,
        "failed": sum(reasons.values()),
        "unexpected": unexpected,
        "reasons": reasons,
    }


def summarize(passes, tracer=None) -> dict:
    plain = [p for p in passes if not p["traced"]]
    lat_ms = sorted(1e3 * x for p in plain for x in p["latencies"])
    # add-one estimate of the failure probability from the counts per pass: never 0,
    # and one more failing op per pass doubles it
    failed = sum(p["failed"] for p in plain) / len(plain)
    items = sum(p["items"] for p in plain) / len(plain)
    # once-per-run ops are memory probes: their latencies count, but not in wall_s
    wall = statistics.median(p["wall_s"] for p in plain)
    out = {
        "metrics": {
            "wall_s": wall,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "fail_ratio": (failed + 1) / (items + 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": {
            "wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "op_p50_ms": statistics.median(1e3 * x for p in plain for x in p["raw_latencies"]),
            "op_p90_ms": statistics.quantiles([1e3 * x for p in plain for x in p["raw_latencies"]], n=10)[8],
            "calib_ms": statistics.median(1e3 * x for p in plain for x in p["calib_s"]),
        },
        "ops": len(lat_ms),
        "passes": len(passes),
        "attempted": sum(p["items"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "correct": all(p["unexpected"] == 0 for p in passes),
        "reasons": {},
    }
    for p in passes:
        for k, v in p["reasons"].items():
            out["reasons"][k] = out["reasons"].get(k, 0) + v
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        layers = tracer.metrics(len(traced))
        layers["trace_overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
            p["wall_s"] for p in plain
        )
        out["metrics"] = layers
    return out


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    import antizeno.cli

    if not os.path.abspath(antizeno.cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"perfbench: antizeno imported from {antizeno.cli.__file__}, not {args.src}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    _, reason = run_op(workload.warmup, args.tmp)
    if reason:
        print(f"perfbench: warm-up op failed: {reason}", file=sys.stderr)
        return 3
    print("READY", flush=True)
    print(f"SCALE {CALIB_REF_S / statistics.median(calibrate() for _ in range(5))!r}", flush=True)
    if args.role == "setup":
        return 0

    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    min_passes = 2 if tracer else 1
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(passes) % 2 == 1:
            # wrappers are in place only for traced passes, so plain passes pay nothing
            tracer.install()
            try:
                passes.append(run_pass(workload, args.tmp, tracer, first=not passes))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_pass(workload, args.tmp, first=not passes))
        last = time.perf_counter() - t0
        # start another pass only if it should end within the budget
        if len(passes) >= min_passes and time.perf_counter() - start + last > args.seconds:
            break
    summary = summarize(passes, tracer)
    summary["versions"] = versions()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
