#!/usr/bin/env python3
"""Emit identity-probability and purity curves for the bundled configs.

For each config the CSV has columns t, i_exact, i_twirled, purity: the Bell
identity probability of the exact evolution, the same statistic for the
evolution generated by the twirled (Pauli-diagonal) generator, and the Choi
purity of the exact channel. Purely Hamiltonian dynamics keep purity at 1
while i_exact oscillates; dissipative dynamics pull both down monotonically.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from lindet.cli import CURVE_HEADER, curve_rows, write_csv


def emit(config_path: Path, out_path: Path, t_max: float, points: int) -> None:
    write_csv(str(out_path), CURVE_HEADER, curve_rows(str(config_path), t_max, points))
    print(f"{config_path.name}: {points} samples -> {out_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--configs-dir", type=Path, default=Path(__file__).resolve().parent.parent / "configs"
    )
    parser.add_argument("--out-dir", type=Path, default=Path("curves"))
    parser.add_argument("--t-max", type=float, default=5.0)
    parser.add_argument("--points", type=int, default=200)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for config_path in sorted(args.configs_dir.glob("*.yaml")):
        emit(config_path, args.out_dir / (config_path.stem + ".csv"), args.t_max, args.points)


if __name__ == "__main__":
    main()
