"""Constructors and structural predicates that only the tests use."""

import math

import numpy as np

from lindet.model import HamiltonianSpec, JumpOperatorSet, Lindbladian
from lindet.paulis import PauliString, enumerate_all, matrix
from lindet.superop import STRUCT_TOL, SuperOperator, _entry_scale


def identity_superop(n: int) -> SuperOperator:
    return SuperOperator(n, np.eye(4**n))


def zero_superop(n: int) -> SuperOperator:
    return SuperOperator(n, np.zeros((4**n, 4**n)))


def pauli_vec_basis(n: int) -> np.ndarray:
    """Unitary d^2 x d^2 matrix whose columns are vec(P_j)/sqrt(d), canonical order.

    vec stacks columns, so vec(A rho B) = (B^T kron A) vec(rho); this basis is
    the tests' independent reference for the Pauli transfer matrix.
    """
    d = 2**n
    w = np.empty((d * d, 4**n), dtype=complex)
    for j, p in enumerate(enumerate_all(n)):
        w[:, j] = matrix(p).flatten(order="F") / math.sqrt(d)
    return w


def to_vec_basis(s: SuperOperator) -> np.ndarray:
    """Transfer matrix over column-stacked matrix units (computational basis)."""
    w = pauli_vec_basis(s.n)
    return w @ s.mat @ w.conj().T


def lindbladian_vec(lind: Lindbladian) -> np.ndarray:
    """The generator over column-stacked matrix units, built with kron."""
    d = 2**lind.n
    eye = np.eye(d)
    h = lind.hamiltonian.dense()
    svec = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for j in lind.dissipator.jumps:
        la = j.dense()
        lala = la.conj().T @ la
        svec += np.kron(la.conj(), la)
        svec -= 0.5 * (np.kron(eye, lala) + np.kron(lala.T, eye))
    return svec


def choi_reshuffled(s: SuperOperator) -> np.ndarray:
    """Normalized Choi state reshuffled from the column-stacked transfer matrix."""
    d = 2**s.n
    # svec[l*d+k, j*d+i] = <k| E(|i><j|) |l>  ->  J[k*d+i, l*d+j] (unnormalized)
    s4 = to_vec_basis(s).reshape(d, d, d, d)
    return s4.transpose(1, 3, 0, 2).reshape(d * d, d * d) / d


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
