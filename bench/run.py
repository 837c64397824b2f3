"""lindet benchmark: one workload per call, one JSON result on the last line.

    python3 bench/run.py --workload detect-averaged --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout that holds ``src/lindet``. Set-up is timed
SETUP_SAMPLES times, each in a fresh worker process from spawn to its
``ready`` line, and ``setup_s`` is their median; the last of those workers
then runs the timed loop. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracing import PER_LAYER
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_SAMPLES = 5
# Whole-run limit, below the 180 s a run may take.
DEADLINE_S = 170.0


def _spawn(args: argparse.Namespace, run_dir: str, setup_only: bool, deadline: float):
    """Start a worker; return (setup seconds, its JSON result)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise RuntimeError(f"worker failed (exit code {code})")
    return setup_s, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lindet", "cli.py")):
        print(f"error: no lindet sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(BENCH, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        samples, imports = [], []
        for i in range(SETUP_SAMPLES):
            setup_s, result = _spawn(args, run_dir, i < SETUP_SAMPLES - 1, deadline)
            samples.append(setup_s)
            imports.append(result["import_s"])
        trace_path = os.path.join(run_dir, "trace.json")
        if os.path.exists(trace_path):
            os.replace(trace_path, os.path.join(BENCH, "out", f"trace-{args.workload}-{args.seed}.json"))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Rates of the run's median pass: for each op of the pass, the median
    # over passes of its time and of its work. A slow stretch of the machine,
    # or a verdict that came early on one seed, then moves a run's figures
    # less than in a ratio of totals; a pass mixes rounds whose costs differ
    # by 400x, so one early verdict of a cheap config would move the total.
    passes = result["passes"]
    columns = list(zip(*passes))
    busy = sum(statistics.median(t for t, _ in col) for col in columns)
    work_per_s = sum(statistics.median(w for _, w in col) for col in columns) / busy
    ops_per_s = len(columns) / busy
    if args.trace:
        metrics = {"import.lindet_s": (statistics.median(imports), "s"),
                   "trace.work_per_s": (work_per_s, "1/s")}
        metrics.update({k: (result["per_layer"][k], u) for k, u in PER_LAYER.items()})
    else:
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "work_per_s": (work_per_s, "1/s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(f"{args.workload}: {len(passes)} passes, {result['attempted']} ops, "
          f"{result['failed']} failed, {sum(t for p in passes for t, _ in p):.2f} s timed, "
          f"set-up samples {[round(s, 3) for s in samples]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
