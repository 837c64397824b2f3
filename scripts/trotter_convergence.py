#!/usr/bin/env python3
"""Convergence of the composed twirled slices to the twirled-generator
evolution as the slice count m grows, at fixed total time.

For a random two-qubit generator, prints the normalized Frobenius deviation
between (twirled slice)^m and exp(t * twirled generator) together with the
computable error bound; the deviation should shrink roughly like 1/m while
the bound stays a valid over-estimate. Also reports the identity-probability
gap, which the detector's analysis budgets at half the bound.
"""

from __future__ import annotations

import argparse

import numpy as np

from lindet.instances import random_lindbladian
from lindet.model import twirled_generator
from lindet.superop import (
    exp,
    from_diagonal,
    from_lindbladian,
    frobenius_normalized,
    identity_fraction,
)
from lindet.twirl import trotter_error_bound, trotterized_twirled


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--t", type=float, default=0.5)
    parser.add_argument("--slices", type=int, nargs="+", default=[1, 4, 16, 64, 256])
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    lind = random_lindbladian(2, rng)
    gen = from_lindbladian(lind)
    target = exp(from_diagonal(twirled_generator(lind)), args.t)
    print(f"total time t = {args.t}, seed = {args.seed}")
    print(f"{'m':>6}  {'frobenius dev':>14}  {'|delta I|':>12}  {'bound':>12}")
    for m in args.slices:
        tau = args.t / m
        composed = trotterized_twirled(gen, tau, m)
        dev = frobenius_normalized(composed - target)
        di = abs(identity_fraction(composed) - identity_fraction(target))
        bound = trotter_error_bound(gen, tau, m)
        print(f"{m:>6}  {dev:14.3e}  {di:12.3e}  {bound:12.3e}")


if __name__ == "__main__":
    main()
