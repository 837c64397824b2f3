#!/usr/bin/env python3
"""Rejection frequency of the detector as the dephasing rate sweeps from
nearly coherent to well past the promise threshold.

For each twirled rate alpha_Z the dissipator norm is alpha_Z * sqrt(2). The
guarantee is one-sided: norms >= epsilon must be rejected with probability
1 - delta, while anything nonzero below the threshold is still rejected at
some intermediate frequency (there is no tolerant acceptance band), with the
mean number of rounds to rejection growing as the rate shrinks. The sweep
prints one line per rate and writes a CSV with columns rate, norm,
rejection_frequency, mean_rounds.
"""

from __future__ import annotations

import argparse
from math import sqrt
from typing import get_args

from lindet.bell import RoundMode
from lindet.cli import write_csv
from lindet.detector import DetectionParams, resolve_promise, run_detection
from lindet.instances import dephasing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--mode", choices=get_args(RoundMode), default="averaged")
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[1e-4, 1e-3, 0.01, 0.05, 0.3536, 0.8],
    )
    parser.add_argument("--out", default="detection_sweep.csv")
    args = parser.parse_args()

    rows = []
    for rate in args.rates:
        lind = dephasing(rate)
        promise = resolve_promise(lind)
        params_base = dict(
            epsilon=args.epsilon,
            delta=args.delta,
            k=promise.k,
            degree=promise.degree,
            l_bound=promise.l_bound,
            mode=args.mode,
        )
        rejections = 0
        rounds_used = 0
        for seed in range(args.seeds):
            report = run_detection(lind, DetectionParams(seed=seed, **params_base))
            rejections += report.verdict == "REJECT"
            rounds_used += len(report.rounds)
        freq = rejections / args.seeds
        mean_rounds = rounds_used / args.seeds
        norm = rate * sqrt(2.0)
        print(
            f"rate {rate:7.4f}  norm {norm:7.4f}  "
            f"rejection {freq:5.2f}  mean rounds {mean_rounds:8.1f}"
        )
        rows.append((rate, norm, freq, mean_rounds))
    write_csv(args.out, "rate,norm,rejection_frequency,mean_rounds", rows)
    print(f"sweep written to {args.out}")


if __name__ == "__main__":
    main()
