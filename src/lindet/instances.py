"""Named and random generator instances shared by checks, tests and scripts.

Random jump sets draw supports uniformly among subsets of size at most k
(resampling until the degree constraint holds), fill every non-identity
Pauli string on the support with an independent standard complex Gaussian
coefficient, and rescale each jump to unit operator norm. This exercises
non-Hermitian jumps and overlapping supports.
"""

from __future__ import annotations

from itertools import combinations
from math import sqrt

import numpy as np

from .model import (
    DiagonalDissipator,
    HamiltonianSpec,
    JumpOperator,
    JumpOperatorSet,
    Lindbladian,
    derive_locality_degree,
)
from .paulis import PauliString, enumerate_all, from_index
from .paulis import letters_from_codes, sample_codes


def dephasing(rate: float, n: int = 1, site: int = 0) -> Lindbladian:
    """Single-site dephasing with twirled rate alpha_Z = rate (jump sqrt(rate) Z)."""
    letters = ["I"] * n
    letters[site] = "Z"
    z = PauliString.from_text("".join(letters))
    jump = JumpOperator(n, frozenset({site}), {z: sqrt(rate)})
    return Lindbladian(n, HamiltonianSpec.from_terms(n, []), JumpOperatorSet(n, (jump,)))


def depolarizing(rate: float, n: int = 1, site: int = 0) -> Lindbladian:
    """Single-site depolarizing: jumps sqrt(rate) X/Y/Z, every non-identity
    mode on the site decays at 4*rate."""
    jumps = []
    for letter in "XYZ":
        letters = ["I"] * n
        letters[site] = letter
        p = PauliString.from_text("".join(letters))
        jumps.append(JumpOperator(n, frozenset({site}), {p: sqrt(rate)}))
    return Lindbladian(
        n, HamiltonianSpec.from_terms(n, []), JumpOperatorSet(n, tuple(jumps))
    )


def random_hamiltonian(
    n: int, rng: np.random.Generator, n_terms: int = 3, scale: float = 1.0
) -> HamiltonianSpec:
    terms = []
    for _ in range(n_terms):
        p = PauliString.from_text(letters_from_codes(sample_codes(n, 1, rng)))
        if p.is_identity:
            continue
        terms.append((p, float(rng.normal(0.0, scale))))
    return HamiltonianSpec.from_terms(n, terms)


def _strings_on_support(n: int, support: frozenset[int]) -> list[PauliString]:
    """All non-identity strings supported inside the given set."""
    return [
        p
        for p in enumerate_all(n, max_qubits=6)
        if not p.is_identity and p.support <= support
    ]


def random_jump(
    n: int, support: frozenset[int], rng: np.random.Generator
) -> JumpOperator:
    """Unit-operator-norm jump with Gaussian Pauli coefficients on the support."""
    strings = _strings_on_support(n, support)
    coeffs = {
        p: complex(rng.normal(), rng.normal()) / sqrt(2.0) for p in strings
    }
    jump = JumpOperator(n, support, coeffs)
    norm = float(np.linalg.norm(jump.dense(), ord=2))
    coeffs = {p: g / norm for p, g in coeffs.items()}
    return JumpOperator(n, support, coeffs)


def random_local_jumps(
    n: int,
    rng: np.random.Generator,
    k_max: int = 2,
    degree_max: int = 2,
    n_jumps: int | None = None,
    max_tries: int = 200,
) -> JumpOperatorSet:
    """Random jump set with derived locality <= k_max and degree <= degree_max."""
    capacity = n * degree_max  # each jump occupies at least one qubit slot
    if n_jumps is None:
        n_jumps = int(rng.integers(1, min(3, capacity) + 1))
    n_jumps = min(n_jumps, capacity)
    candidates = [
        frozenset(c)
        for size in range(1, min(k_max, n) + 1)
        for c in combinations(range(n), size)
    ]
    for _ in range(max_tries):
        supports = [candidates[int(rng.integers(len(candidates)))] for _ in range(n_jumps)]
        per_qubit = [0] * n
        for s in supports:
            for q in s:
                per_qubit[q] += 1
        if max(per_qubit) <= degree_max:
            jumps = tuple(random_jump(n, s, rng) for s in supports)
            js = JumpOperatorSet(n, jumps)
            k, degree = derive_locality_degree(js)
            assert k <= k_max and degree <= degree_max
            return js
    raise RuntimeError("could not sample supports satisfying the degree constraint")


def random_lindbladian(
    n: int,
    rng: np.random.Generator,
    k_max: int = 2,
    degree_max: int = 2,
    with_hamiltonian: bool = True,
) -> Lindbladian:
    ham = (
        random_hamiltonian(n, rng)
        if with_hamiltonian
        else HamiltonianSpec.from_terms(n, [])
    )
    return Lindbladian(n, ham, random_local_jumps(n, rng, k_max, degree_max))


def random_diagonal(
    n: int, rng: np.random.Generator, max_weight: int = 2, n_entries: int | None = None
) -> DiagonalDissipator:
    """Random Pauli-diagonal dissipator with rates on strings of bounded weight."""
    eligible = [
        i
        for i in range(1, 4**n)
        if from_index(n, i).weight <= max_weight
    ]
    if n_entries is None:
        n_entries = int(rng.integers(1, min(5, len(eligible)) + 1))
    chosen = rng.choice(len(eligible), size=min(n_entries, len(eligible)), replace=False)
    alphas = {
        from_index(n, eligible[int(i)]): float(rng.uniform(0.05, 1.0)) for i in chosen
    }
    return DiagonalDissipator(n, alphas)
