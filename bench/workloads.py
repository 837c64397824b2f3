"""The benchmark's workloads: fixed, seeded lists of lindet operations.

One op is one ``lindet detect`` verdict or one full ``lindet verify`` pass,
given to the program as CLI arguments and YAML files only. A workload runs
whole passes of its op list; every op in a pass draws a fresh seed from the
workload's stream, so a run averages over as many seeds as it has ops.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import reference

EPSILON = 0.5
# delta = 0.75 gives R = ceil(120 ln(4/3)) = 35 rounds at k = 1, so an
# accepting n = 4 verdict takes about 5 s and a pass fits several times in
# one run.
DELTA = 0.75
VERIFY_TRIALS = 10

BUNDLED = ("depolarizing_quarter", "dephasing_strong", "hamiltonian_z", "two_qubit_mixed")
# Generated configs: qubit count -> number of random Pauli terms. Their
# coefficients are scaled to ||H||_op = 1.234, so every seed derives the same
# constants (L = 2 ||H||, m = ceil(76800 ||H||^2) = 116948, t_max = 20): the
# seed changes the terms and their weights, not the amount of work a round
# does. 1.234 keeps 76800 ||H||^2 away from an integer, where rounding in
# ||H|| could move the ceiling.
GENERATED_TERMS = {3: 8, 4: 12}
GENERATED_NORM = 1.234

# Pinned constants of detect-sampled: (config, --override-m, --override-rounds).
# The n = 1 configs keep their derived m (9.6e3 to 2.9e5); the derived m of
# two_qubit_mixed is 2.8e8, which takes about 3,000 s per round.
SAMPLED_PINS = (
    ("depolarizing_quarter", None, 1),
    ("dephasing_strong", None, 1),
    ("hamiltonian_z", None, 2),
    ("two_qubit_mixed", 20000, 1),
)

# Expected CheckResult.instances per verify check at `trials`, from the
# builders in lindet.checks.SUITE.
def verify_instances(trials: int) -> dict[str, int]:
    return {
        "jordan_trace": trials,
        "decay_primitive_dephasing": max(2000, trials),
        "decay_primitive_depolarizing": max(2000, trials),
        "pauli_diag_bound": max(200, trials),
        "twirl_structure": trials,
        "alpha_structure": trials,
        "norm_comparison": max(100, trials),
        "trotter_bounds": max(10, trials // 3),
    }


@dataclass(frozen=True)
class Op:
    """One CLI invocation. ``config`` names a file in the run's config map."""

    command: str  # "detect" or "verify"
    seed: int
    config: str | None = None
    mode: str | None = None
    override_m: int | None = None
    override_rounds: int | None = None

    def argv(self, configs: dict[str, str], out: str) -> list[str]:
        if self.command == "verify":
            return ["--seed", str(self.seed), "verify", "--suite", "all",
                    "--trials", str(VERIFY_TRIALS)]
        args = ["--seed", str(self.seed), "detect", "--config", configs[self.config],
                "--epsilon", repr(EPSILON), "--delta", repr(DELTA),
                "--mode", self.mode, "--out", out]
        if self.override_m is not None:
            args += ["--override-m", str(self.override_m)]
        if self.override_rounds is not None:
            args += ["--override-rounds", str(self.override_rounds)]
        return args


def _random_hamiltonian(n: int, rng: np.random.Generator) -> list[tuple[str, float]]:
    terms: dict[str, float] = {}
    while len(terms) < GENERATED_TERMS[n]:
        codes = rng.integers(0, 4, size=n)
        text = "".join("IXYZ"[c] for c in codes)
        if codes.any() and text not in terms:
            terms[text] = float(rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0)))
    dense = sum(c * reference.pauli_dense(text) for text, c in terms.items())
    scale = GENERATED_NORM / float(np.abs(np.linalg.eigvalsh(dense)).max())
    return [(text, c * scale) for text, c in terms.items()]


def write_configs(workload: str, root: str, run_dir: str, seed: int) -> dict[str, str]:
    """Paths of every config the workload uses; generated ones are written now."""
    configs = {name: os.path.join(root, "configs", f"{name}.yaml") for name in BUNDLED}
    if workload == "detect-averaged":
        for n in GENERATED_TERMS:
            rng = np.random.default_rng([seed, n])
            path = os.path.join(run_dir, f"generated_n{n}.yaml")
            with open(path, "w") as fh:
                fh.write(f"n: {n}\nhamiltonian:\n")
                for text, c in _random_hamiltonian(n, rng):
                    fh.write(f"  - {{pauli: {text}, coeff: {c!r}}}\n")
            configs[f"generated_n{n}"] = path
    return configs


def warmup_ops(workload: str) -> list[Op]:
    """One cheap op per qubit count, with fixed seeds, run during set-up.

    They fill the lazy per-n caches (superop.pauli_vec_basis,
    paulis.chi_table) so that no timed op pays for them.
    """
    if workload == "detect-averaged":
        return [Op("detect", 0, name, "averaged", override_rounds=1)
                for name in ("hamiltonian_z", "two_qubit_mixed", "generated_n3", "generated_n4")]
    if workload == "detect-sampled":
        return [Op("detect", 0, name, "sampled_pauli", override_m=64, override_rounds=1)
                for name in ("hamiltonian_z", "two_qubit_mixed")]
    return [Op("verify", 0)]


def pass_ops(workload: str, rng: np.random.Generator) -> list[Op]:
    """The next pass of the workload, with seeds drawn from its stream."""
    def seed() -> int:
        return int(rng.integers(0, 2**62))

    if workload == "detect-averaged":
        names = BUNDLED + tuple(f"generated_n{n}" for n in GENERATED_TERMS)
        return [Op("detect", seed(), name, "averaged") for name in names]
    if workload == "detect-sampled":
        return [Op("detect", seed(), name, "sampled_pauli", override_m=m, override_rounds=r)
                for name, m, r in SAMPLED_PINS]
    return [Op("verify", seed())]


WORKLOADS = ("detect-averaged", "detect-sampled", "verify-suite")
