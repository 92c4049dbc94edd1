"""antizeno benchmark: run one workload and print its metrics as JSON.

Usage (from the root of a source checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing is installed.
Each run starts fresh worker processes: with ``--trace 0``, SETUP_SAMPLES of
them time set-up (``import antizeno.cli`` plus one warm-up op) and the last
one goes on to run passes over the workload's op list for about ``--seconds``
seconds.  With ``--trace 1`` one worker alternates untraced and traced passes.
The last line of standard output is the result object; the line before it
records the machine, the thread settings and every failure reason.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ZT_THREADS")


class ChildFailed(RuntimeError):
    pass


def _pump(stream, lines):
    for line in stream:
        lines.put((time.perf_counter(), line))
    lines.put((time.perf_counter(), None))


def run_child(extra, env, deadline):
    """Run worker.py; return (seconds from spawn to READY, its speed scale, last output line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    ready, scale, last = None, None, None
    try:
        while True:
            t, line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                break
            if ready is None and line.strip() == "READY":
                ready = t - t0
            elif scale is None and line.startswith("SCALE "):
                scale = float(line.split()[1])
            elif line.strip():
                last = line
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (queue.Empty, subprocess.TimeoutExpired):
        raise ChildFailed(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=10)
        proc.stdout.close()
    if rc != 0 or scale is None:
        raise ChildFailed(f"worker exited with code {rc}")
    return ready, scale, last


def machine_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def select(names, measured):
    """Metrics listed in BENCHMARK.json, and the listed names the run did not produce."""
    return {n: measured[n] for n in names if n in measured}, [n for n in names if n not in measured]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "antizeno" / "cli.py").is_file():
        print(f"perfbench: no antizeno sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--src", str(src)]
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            common += ["--tmp", tmp]
            n_setup = 0 if args.trace else SETUP_SAMPLES - 1
            setup = [run_child(["--role", "setup", *common], env, deadline)[:2] for _ in range(n_setup)]
            ready, scale, last = run_child(["--role", "measure", "--trace", str(args.trace), *common], env, deadline)
            setup.append((ready, scale))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = json.loads(last)
    measured = dict(summary["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(t * f for t, f in setup)
    metrics, absent = select([m["name"] for m in metric_specs], measured)
    units = {m["name"]: m["unit"] for m in metric_specs}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": summary["ops"],
        "passes": summary["passes"],
        "unscaled": dict(summary["raw"], setup_samples_s=[t for t, _ in setup] if not args.trace else []),
        "failures": summary["reasons"],
        "absent_metrics": absent,
        **machine_record(),
        **summary["versions"],
    }
    print("perfbench record " + json.dumps(record))
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
