"""Constructors and structural predicates that only the tests use."""

import numpy as np

from lindet.model import HamiltonianSpec, JumpOperatorSet, Lindbladian
from lindet.paulis import PauliString
from lindet.superop import STRUCT_TOL, SuperOperator, _entry_scale


def identity_superop(n: int) -> SuperOperator:
    return SuperOperator(n, np.eye(4**n, dtype=complex))


def zero_superop(n: int) -> SuperOperator:
    return SuperOperator(n, np.zeros((4**n, 4**n), dtype=complex))


def is_hermiticity_preserving(s: SuperOperator, tol: float = STRUCT_TOL) -> bool:
    """True when the transfer matrix is real within the scaled tolerance."""
    return float(np.abs(s.mat.imag).max()) <= tol * _entry_scale(s.mat)


def is_trace_preserving(s: SuperOperator, tol: float = 1e-9) -> bool:
    """True when the first transfer-matrix row is (1, 0, ..., 0) within tolerance."""
    row = s.mat[0].copy()
    row[0] -= 1.0
    return float(np.abs(row).max()) <= tol * _entry_scale(s.mat)


def is_purely_hamiltonian(lind: Lindbladian) -> bool:
    return lind.dissipator.is_empty


def hamiltonian_only(n: int, terms: list[tuple[str, float]]) -> Lindbladian:
    ham = HamiltonianSpec.from_terms(
        n, [(PauliString.from_text(p), c) for p, c in terms]
    )
    return Lindbladian(n, ham, JumpOperatorSet(n, ()))


def random_hermiticity_preserving_ptm(
    n: int, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """Random real transfer matrix (realness == Hermiticity preservation)."""
    dim = 4**n
    return rng.uniform(-scale, scale, size=(dim, dim))
