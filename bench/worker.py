"""One workload process: set-up, the timed loop, then the output checks.

Started by ``run.py``. It prints ``ready`` when the first timed op can
begin, and one JSON line with its results when it ends. With
``--setup-only`` it stops after ``ready``, so that ``run.py`` can time
set-up several times.
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
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import lindet.cli as cli  # noqa: E402  (timed: the import layer)

    import_s = time.perf_counter() - start

    import numpy as np

    import reference
    import validate
    import workloads

    configs = workloads.write_configs(args.workload, ROOT, args.run_dir, args.seed)
    out_path = os.path.join(args.run_dir, "report.json")

    def run(op: workloads.Op) -> tuple[int, str, float]:
        argv = op.argv(configs, out_path)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except Exception:  # an op that crashes counts as failed
                traceback.print_exc()
                rc = None
        return rc, buf.getvalue(), time.perf_counter() - t0

    for op in workloads.warmup_ops(args.workload):
        rc, text, _ = run(op)
        if rc not in (validate.EXIT_ACCEPT, validate.EXIT_REJECT):
            print(f"warm-up op failed with exit code {rc}:\n{text}", file=sys.stderr)
            return 1
    if args.setup_only:
        print("ready", flush=True)
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    rng = np.random.default_rng([args.seed, workloads.WORKLOADS.index(args.workload)])
    records = []  # (op, exit code, stdout, report)
    passes = []  # per pass, (seconds, units of work) of each op
    print("ready", flush=True)
    loop_start = time.perf_counter()
    while not passes or time.perf_counter() - loop_start < args.seconds:
        timings = []
        for op in workloads.pass_ops(args.workload, rng):
            if os.path.exists(out_path):
                os.remove(out_path)
            rc, text, elapsed = run(op)
            report = None
            if op.command == "detect" and os.path.exists(out_path):
                with open(out_path) as fh:
                    report = json.load(fh)
            timings.append((elapsed, validate.work_units(op, text, report)))
            records.append((op, rc, text, report))
        passes.append(timings)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = {}
    if tracer is not None:
        tracer.uninstall()
        per_layer = tracer.metrics(len(passes))
        tracer.write(os.path.join(args.run_dir, "trace.json"))
        if tracer.missing:
            print("missing from the program: " + ", ".join(tracer.missing), file=sys.stderr)

    generators = {name: reference.Generator.from_file(path) for name, path in configs.items()}
    failed = 0
    for op, rc, text, report in records:
        try:
            if op.command == "verify":
                problems = validate.check_verify(rc, text)
            else:
                frames, problems = None, []
                if report is not None and validate.needs_frames(op):
                    frames, problems = validate.replay(configs[op.config], report)
                if not problems:
                    problems = validate.check_detect(op, rc, report, generators[op.config], frames)
        except Exception as exc:  # a malformed report fails its op, not the run
            problems = [f"checking raised {exc!r}"]
        if problems:
            failed += 1
            print(f"FAILED {op}: " + "; ".join(problems[:3]), file=sys.stderr)

    print(json.dumps({
        "import_s": import_s,
        "attempted": len(records),
        "failed": failed,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
