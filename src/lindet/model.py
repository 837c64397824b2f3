"""Lindblad generators: Hamiltonian terms, jump-operator sets, and their
structural analysis (locality/degree, the coefficient matrix alpha, the
twirled diagonal generator, and computable norm bounds).

Jump operators are stored only in their Pauli-coefficient representation
L_a = sum_P gamma_{a,P} P with a declared support S_a. The representation
supplied by the user is canonical; the package never re-factors a dissipator
into a different set of jump operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionError
from .paulis import PauliString, chi, matrix


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hamiltonian as a real combination of Pauli strings, one shared n."""

    n: int
    terms: tuple[tuple[PauliString, float], ...] = ()

    @classmethod
    def from_terms(
        cls, n: int, terms: Sequence[tuple[PauliString, float]]
    ) -> "HamiltonianSpec":
        """Merge duplicate strings and drop any identity component (pure phase)."""
        merged: dict[PauliString, float] = {}
        for p, c in terms:
            if p.n != n:
                raise DimensionError(f"Hamiltonian term {p} has n={p.n}, expected {n}")
            merged[p] = merged.get(p, 0.0) + float(c)
        kept = tuple(
            (p, c) for p, c in merged.items() if not p.is_identity and c != 0.0
        )
        return cls(n, kept)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def dense(self) -> np.ndarray:
        d = 2**self.n
        h = np.zeros((d, d), dtype=complex)
        for p, c in self.terms:
            h += c * matrix(p)
        return h


@dataclass(frozen=True)
class JumpOperator:
    """One jump operator: declared support and Pauli coefficients gamma_P.

    Invariants: the identity coefficient is absent (tracelessness), and every
    string with a nonzero coefficient is supported inside the declared set.
    """

    n: int
    support: frozenset[int]
    coefficients: Mapping[PauliString, complex]

    def __post_init__(self) -> None:
        for p, g in self.coefficients.items():
            if p.n != self.n:
                raise DimensionError(f"term {p} has n={p.n}, expected {self.n}")
            if p.is_identity:
                raise ValueError(
                    "jump operators must be traceless: identity term not allowed"
                )
            if g != 0 and not p.support <= self.support:
                raise ValueError(
                    f"term {p} acts outside the declared support {set(self.support)}"
                )
        if not self.support <= frozenset(range(self.n)):
            raise ValueError("support contains qubit indices outside range(n)")
        object.__setattr__(self, "coefficients", dict(self.coefficients))

    def dense(self) -> np.ndarray:
        d = 2**self.n
        m = np.zeros((d, d), dtype=complex)
        for p, g in self.coefficients.items():
            m += g * matrix(p)
        return m


@dataclass(frozen=True)
class JumpOperatorSet:
    n: int
    jumps: tuple[JumpOperator, ...] = ()

    def __post_init__(self) -> None:
        for j in self.jumps:
            if j.n != self.n:
                raise DimensionError(f"jump has n={j.n}, expected {self.n}")

    @property
    def is_empty(self) -> bool:
        return not self.jumps


@dataclass(frozen=True)
class Lindbladian:
    """Generator L = -i[H, .] + D with D built from a jump-operator set."""

    n: int
    hamiltonian: HamiltonianSpec
    dissipator: JumpOperatorSet

    def __post_init__(self) -> None:
        if self.hamiltonian.n != self.n or self.dissipator.n != self.n:
            raise DimensionError("hamiltonian and dissipator must agree on n")


@dataclass(frozen=True)
class DiagonalDissipator:
    """Pauli-diagonal dissipator rho -> sum_P alpha_P (P rho P - rho)."""

    n: int
    alphas: Mapping[PauliString, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for p, a in self.alphas.items():
            if p.n != self.n:
                raise DimensionError(f"entry {p} has n={p.n}, expected {self.n}")
            if p.is_identity:
                raise ValueError("alpha_I must be absent (it generates nothing)")
            if a < 0:
                raise ValueError(f"alpha_{p} = {a} is negative")
        object.__setattr__(self, "alphas", dict(self.alphas))

    @property
    def total_rate(self) -> float:
        return float(sum(self.alphas.values()))


def derive_locality_degree(js: JumpOperatorSet) -> tuple[int, int]:
    """(k, Delta): max declared support size, max #supports containing a qubit.

    Counts declared supports, not the actual nonzero action, so an oversized
    declared support inflates both values. Empty set -> (0, 0).
    """
    if js.is_empty:
        return 0, 0
    k = max(len(j.support) for j in js.jumps)
    per_qubit = [0] * js.n
    for j in js.jumps:
        for q in j.support:
            per_qubit[q] += 1
    return k, max(per_qubit)


def alpha_matrix(
    js: JumpOperatorSet,
) -> dict[tuple[PauliString, PauliString], complex]:
    """Coefficient matrix alpha_{P,Q} = sum_a gamma_{a,P} conj(gamma_{a,Q}).

    Hermitian and positive semidefinite over the occurring index set; only
    pairs sharing some jump support appear.
    """
    out: dict[tuple[PauliString, PauliString], complex] = {}
    for j in js.jumps:
        for p, gp in j.coefficients.items():
            for q, gq in j.coefficients.items():
                key = (p, q)
                out[key] = out.get(key, 0j) + gp * np.conj(gq)
    return out


def alpha_dense(
    js: JumpOperatorSet,
) -> tuple[list[PauliString], np.ndarray]:
    """Dense alpha matrix over the sorted occurring index set (for spectra)."""
    entries = alpha_matrix(js)
    index = sorted({p for p, _ in entries}, key=lambda s: s.text())
    pos = {p: i for i, p in enumerate(index)}
    mat = np.zeros((len(index), len(index)), dtype=complex)
    for (p, q), v in entries.items():
        mat[pos[p], pos[q]] = v
    return index, mat


def twirled_generator(lind: Lindbladian) -> DiagonalDissipator:
    """Pauli twirl of the generator: alpha_P = sum_a |gamma_{a,P}|^2.

    The Hamiltonian contributes nothing; the twirled dynamics is purely
    dissipative and diagonal in the Pauli basis.
    """
    alphas: dict[PauliString, float] = {}
    for j in lind.dissipator.jumps:
        for p, g in j.coefficients.items():
            a = abs(g) ** 2
            if a:
                alphas[p] = alphas.get(p, 0.0) + a
    return DiagonalDissipator(lind.n, alphas)


def diagonal_eigenvalue(diss: DiagonalDissipator, q: PauliString) -> float:
    """Eigenvalue of the diagonal dissipator on mode Q: sum_P alpha_P (chi(P,Q)-1).

    Always <= 0, and exactly 0 on the identity mode.
    """
    if q.n != diss.n:
        raise DimensionError(f"mode {q} has n={q.n}, expected {diss.n}")
    return float(sum(a * (chi(p, q) - 1) for p, a in diss.alphas.items()))


def diagonal_frobenius(diss: DiagonalDissipator) -> float:
    """Normalized Frobenius norm sqrt(Gamma^2 + sum_P alpha_P^2), Gamma = sum alpha_P.

    Matches the dense normalized Frobenius norm of the realized superoperator.
    """
    gamma = diss.total_rate
    return sqrt(gamma**2 + sum(a**2 for a in diss.alphas.values()))


def hamiltonian_operator_norm(h: HamiltonianSpec) -> float:
    if h.is_zero:
        return 0.0
    return float(np.linalg.norm(h.dense(), ord=2))


def diamond_upper_bound(lind: Lindbladian) -> float:
    """Triangle-inequality diamond-norm bound 2||H||_op + 2 sum_a ||L_a||_op^2.

    Valid because ||-i[H,.]||_diamond <= 2||H||_op and each dissipative term
    contributes at most 2||L_a||_op^2; exact diamond norms are out of scope.
    """
    total = 2.0 * hamiltonian_operator_norm(lind.hamiltonian)
    for j in lind.dissipator.jumps:
        total += 2.0 * float(np.linalg.norm(j.dense(), ord=2)) ** 2
    return total
