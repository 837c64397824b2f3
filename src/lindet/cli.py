"""Command-line interface.

Subcommands:
    detect    run the dissipation detector on a generator config
    curve     Bell identity probability and Choi purity over time (CSV)
    spectrum  generator eigenvalues (CSV)
    bell-dist Bell outcome distribution of the time-t channel (CSV)
    params    derived detection constants and worst-case budgets
    verify    brute-force check suite over random instances

Exit codes: 0 success (detect: ACCEPT), 2 detect: REJECT, 1 any error.
Every command honors a global --seed; when omitted for a randomized command,
a seed is drawn from OS entropy and printed so the run can be replayed.
CSV cells are written with 17 significant digits, so parsing and re-emitting
a file reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from typing import get_args

import numpy as np

from . import checks
from .config import GeneratorConfig, build_lindbladian, load_config
from .detector import (
    DetectionParams,
    DetectionReport,
    Overrides,
    derive_parameters,
    run_detection,
)
from .errors import LindetError
from .model import Lindbladian, twirled_generator
from .bell import RoundMode, bell_distribution
from .paulis import enumerate_all
from .superop import (
    eigenvalues,
    exp,
    from_diagonal,
    from_lindbladian,
    identity_fraction,
    purity,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2


def _say(line: str) -> None:
    """Print one line to stdout and flush it. If the reader has closed stdout
    (as `| head` does), point stdout at the null device, so that neither later
    lines nor the flush at exit fail, and let the command carry on."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path: str, header: str, rows: list[tuple[float, ...]]) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load(config_path: str) -> tuple[GeneratorConfig, Lindbladian]:
    config = load_config(config_path)
    return config, build_lindbladian(config)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    _say(f"seed: {seed} (drawn from entropy; pass --seed to replay)")
    return seed


def cmd_detect(args: argparse.Namespace) -> int:
    config, lind = _load(args.config)
    seed = _resolve_seed(args)
    params = DetectionParams(
        epsilon=args.epsilon,
        delta=args.delta,
        k=args.k,
        degree=args.degree,
        l_bound=args.l_bound,
        mode=args.mode,
        seed=seed,
        overrides=Overrides(
            m=args.override_m,
            rounds=args.override_rounds,
            t_max_factor=args.t_max_factor,
        ),
    )
    report = run_detection(lind, params, max_qubits=config.capacity)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(frames=args.full_report), fh, indent=2)
            fh.write("\n")
    _print_report_summary(report)
    if args.out:
        _say(f"report written to {args.out}")
    return EXIT_OK if report.verdict == "ACCEPT" else EXIT_REJECT


def _print_report_summary(report: DetectionReport) -> None:
    derived = report.derived
    _say(f"verdict: {report.verdict}")
    _say(
        f"epsilon' = {derived.epsilon_prime:.6g}, m = {derived.m}, "
        f"R = {derived.rounds}, t_max = {derived.t_max:.6g} "
        "(round count uses natural logarithms)"
    )
    _say(
        f"rounds executed: {len(report.rounds)}"
        + (
            f" (first rejection at round {report.rejecting_round})"
            if report.rejecting_round is not None
            else ""
        )
    )
    _say(
        f"realized totals: evolution time {report.total_evolution_time:.6g}, "
        f"queries {report.query_count}"
    )
    _say(
        f"worst-case bounds (reference): T = {derived.t_bound:.6g}, "
        f"Q = {derived.q_bound}"
    )
    for warning in report.warnings:
        _say(f"warning: {warning}")


CURVE_HEADER = "t,i_exact,i_twirled,purity"


def curve_rows(config_path: str, t_max: float, points: int) -> list[tuple[float, ...]]:
    """Rows of the ``curve`` CSV: at each of ``points`` times in [0, t_max],
    the Bell identity probability of the exact and of the twirled evolution
    and the Choi purity of the exact channel."""
    config, lind = _load(config_path)
    gen = from_lindbladian(lind, max_qubits=config.capacity)
    twirled = from_diagonal(twirled_generator(lind))
    rows = []
    for t in np.linspace(0.0, t_max, points):
        channel = exp(gen, float(t))
        rows.append(
            (
                float(t),
                identity_fraction(channel),
                identity_fraction(exp(twirled, float(t))),
                purity(channel),
            )
        )
    return rows


def cmd_curve(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise LindetError(f"points must be at least 2, got {args.points}")
    if not 0 < args.t_max < math.inf:
        raise LindetError(f"t-max must be positive and finite, got {args.t_max}")
    write_csv(args.out, CURVE_HEADER, curve_rows(args.config, args.t_max, args.points))
    _say(f"{args.points} samples written to {args.out}")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    config, lind = _load(args.config)
    vals = eigenvalues(from_lindbladian(lind, max_qubits=config.capacity))
    write_csv(args.out, "re,im", [(float(v.real), float(v.imag)) for v in vals])
    _say(f"{vals.size} eigenvalues written to {args.out}")
    return EXIT_OK


def cmd_bell_dist(args: argparse.Namespace) -> int:
    config, lind = _load(args.config)
    channel = exp(from_lindbladian(lind, max_qubits=config.capacity), args.t)
    probs = bell_distribution(channel)
    with open(args.out, "w") as fh:
        fh.write("pauli,probability\n")
        for p, prob in zip(enumerate_all(lind.n), probs):
            fh.write(f"{p},{_fmt(float(prob))}\n")
    _say(f"{probs.size} outcomes written to {args.out}")
    return EXIT_OK


def cmd_params(args: argparse.Namespace) -> int:
    derived = derive_parameters(
        DetectionParams(args.epsilon, args.delta, args.k, args.degree, args.l_bound)
    )
    _say(f"epsilon' = {_fmt(derived.epsilon_prime)}")
    _say(f"m = {derived.m}")
    _say(f"R = {derived.rounds}")
    _say(f"t_max = {_fmt(derived.t_max)}")
    _say(f"T_bound = {_fmt(derived.t_bound)}")
    _say(f"Q_bound = {derived.q_bound}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    results = checks.run_suite(args.suite, args.trials, seed)
    for result in results:
        _say(result.summary())
        for failure in result.failures[:10]:
            _say(
                f"    seed={failure.seed} {failure.label}: lhs={failure.lhs:.12g} "
                f"rhs={failure.rhs:.12g} margin={failure.margin:.3e}"
            )
    return EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindet",
        description="Detect dissipation in Lindbladian dynamics via Bell sampling",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="seed for randomized commands"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the detection procedure")
    p.add_argument("--config", required=True)
    p.add_argument("--epsilon", type=float, required=True, help="promise threshold")
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--k", type=int, default=None, help="promised locality")
    p.add_argument("--degree", type=int, default=None, help="promised degree")
    p.add_argument(
        "--l-bound", type=float, default=None, help="diamond-norm promise on L"
    )
    p.add_argument("--mode", choices=get_args(RoundMode), default="sampled_pauli")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument(
        "--full-report",
        action="store_true",
        help="include per-round Pauli frames in the JSON report",
    )
    p.add_argument("--override-m", type=int, default=None)
    p.add_argument("--override-rounds", type=int, default=None)
    p.add_argument("--t-max-factor", type=float, default=1.0)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("curve", help="identity-probability and purity curves")
    p.add_argument("--config", required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("spectrum", help="generator eigenvalues")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bell-dist", help="Bell outcome distribution at time t")
    p.add_argument("--config", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bell_dist)

    p = sub.add_parser("params", help="derived constants and budgets")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--l-bound", type=float, required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("verify", help="run the brute-force check suite")
    p.add_argument(
        "--suite",
        default="all",
        help="check name or 'all' (known: " + ", ".join(checks.SUITE_NAMES) + ")",
    )
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LindetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
