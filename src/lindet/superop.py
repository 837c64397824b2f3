"""Dense superoperator engine.

Superoperators are stored as d^2 x d^2 complex matrices over the orthonormal
basis of normalized Pauli strings {P / sqrt(d)} in canonical order (the Pauli
transfer matrix, PTM). In this basis a Hermiticity-preserving map has a real
matrix and Pauli twirling is the diagonal projection.

Internally, construction from a Lindbladian goes through the column-stacking
vectorization vec(A rho B) = (B^T kron A) vec(rho); the unitary change of
basis to normalized Paulis is cached per qubit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    ConsistencyError,
    DimensionError,
    DomainError,
    NumericError,
)
from .model import DiagonalDissipator, Lindbladian, diagonal_eigenvalue
from .paulis import check_capacity, enumerate_all, matrix

# Structural tolerances: absolute, scaled by the matrix max-entry magnitude.
STRUCT_TOL = 1e-10


@lru_cache(maxsize=8)
def pauli_vec_basis(n: int) -> np.ndarray:
    """Unitary d^2 x d^2 matrix whose columns are vec(P_j)/sqrt(d), canonical order."""
    d = 2**n
    w = np.empty((d * d, 4**n), dtype=complex)
    for j, p in enumerate(enumerate_all(n)):
        w[:, j] = matrix(p).flatten(order="F") / math.sqrt(d)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class SuperOperator:
    """A linear map on operators, as its transfer matrix in the normalized
    Pauli basis. Immutable after construction."""

    n: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        dim = 4**self.n
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (dim, dim):
            raise DimensionError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return 4**self.n

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        return add(self, other)

    def __sub__(self, other: "SuperOperator") -> "SuperOperator":
        return add(self, scale(other, -1.0))

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        return compose(self, other)


def _vec_to_ptm(n: int, svec: np.ndarray) -> np.ndarray:
    w = pauli_vec_basis(n)
    return w.conj().T @ svec @ w


def to_vec_basis(s: SuperOperator) -> np.ndarray:
    """Transfer matrix over column-stacked matrix units (computational basis)."""
    w = pauli_vec_basis(s.n)
    return w @ s.mat @ w.conj().T


def from_lindbladian(
    lind: Lindbladian, max_qubits: int | None = None
) -> SuperOperator:
    """Realize L(rho) = -i[H, rho] + sum_a (L_a rho L_a^dag - 1/2 {L_a^dag L_a, rho})."""
    check_capacity(lind.n, max_qubits)
    d = 2**lind.n
    eye = np.eye(d, dtype=complex)
    svec = np.zeros((d * d, d * d), dtype=complex)
    if not lind.hamiltonian.is_zero:
        h = lind.hamiltonian.dense()
        svec += -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for j in lind.dissipator.jumps:
        la = j.dense()
        lad = la.conj().T
        lala = lad @ la
        svec += np.kron(la.conj(), la)
        svec -= 0.5 * (np.kron(eye, lala) + np.kron(lala.T, eye))
    return SuperOperator(lind.n, _vec_to_ptm(lind.n, svec))


def from_diagonal(diss: DiagonalDissipator) -> SuperOperator:
    """Diagonal transfer matrix with the per-mode decay rates of the dissipator."""
    diag = np.array(
        [diagonal_eigenvalue(diss, q) for q in enumerate_all(diss.n)],
        dtype=complex,
    )
    return SuperOperator(diss.n, np.diag(diag))


def compose(a: SuperOperator, b: SuperOperator) -> SuperOperator:
    """The map a o b (apply b first)."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} != {b.n}")
    return SuperOperator(a.n, a.mat @ b.mat)


def add(a: SuperOperator, b: SuperOperator) -> SuperOperator:
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} != {b.n}")
    return SuperOperator(a.n, a.mat + b.mat)


def scale(a: SuperOperator, c: complex) -> SuperOperator:
    return SuperOperator(a.n, c * a.mat)


def _entry_scale(mat: np.ndarray) -> float:
    return max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)


def identity_fraction(s: SuperOperator) -> float:
    """Tr(S)/d^2: the Bell identity-outcome probability of the map.

    Requires the trace to be real within tolerance (Hermiticity-preserving
    sources); the residue is discarded after the check.
    """
    tr = complex(np.trace(s.mat))
    tol = STRUCT_TOL * _entry_scale(s.mat) * s.dim
    if abs(tr.imag) > tol:
        raise ConsistencyError(
            f"superoperator trace has imaginary residue {tr.imag:.3e} beyond tolerance"
        )
    return tr.real / s.dim


def frobenius_normalized(s: SuperOperator) -> float:
    """sqrt(sum |entries|^2 / d^2); the identity map has norm exactly 1."""
    return float(np.linalg.norm(s.mat)) / 2**s.n


def exp(s: SuperOperator, t: float) -> SuperOperator:
    """Channel e^(t S), by scaling and squaring with a rational approximant
    (safe for the non-normal matrices Lindbladians produce)."""
    if not 0 <= t < math.inf:
        raise DomainError(
            f"evolution time must be non-negative and finite, got t={t} "
            "(the evolution is not invertible in general)"
        )
    return SuperOperator(s.n, scipy.linalg.expm(t * s.mat))


def eigenvalues(s: SuperOperator) -> np.ndarray:
    """All d^2 eigenvalues, counted with algebraic multiplicity."""
    try:
        return np.linalg.eigvals(s.mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solver failed: {exc}") from exc


def lambda_fraction(s: SuperOperator, eps: float) -> float:
    """Fraction of eigenmodes decaying at rate at least eps (multiples of 1/d^2)."""
    if eps <= 0:
        raise DomainError(f"decay threshold must be positive, got {eps}")
    vals = eigenvalues(s)
    return float(np.count_nonzero(-vals.real >= eps)) / s.dim


def choi(s: SuperOperator) -> np.ndarray:
    """Normalized Choi state (E kron I)(|Phi><Phi|), reshuffled from the
    transfer matrix: Hermitian for Hermiticity-preserving maps, unit trace for
    trace-preserving ones."""
    d = 2**s.n
    svec = to_vec_basis(s)
    # svec[l*d+k, j*d+i] = <k| E(|i><j|) |l>  ->  J[k*d+i, l*d+j] (unnormalized)
    s4 = svec.reshape(d, d, d, d)
    j4 = s4.transpose(1, 3, 0, 2)
    return j4.reshape(d * d, d * d) / d


def diamond_bounds(s: SuperOperator) -> tuple[float, float]:
    """Computable (lower, upper) bracket of the diamond norm.

    lower: trace norm of the normalized Choi matrix (the maximally entangled
    input is feasible); upper = d * lower (standard Choi-to-diamond bound).
    Checks that need a diamond norm on the large side of an inequality should
    use .upper, on the small side .lower, preserving inequality direction.
    """
    d = 2**s.n
    lower = float(np.linalg.norm(choi(s), ord="nuc"))
    return lower, d * lower


def purity(s: SuperOperator) -> float:
    """Tr(choi^2): 1 exactly for unitary-conjugation channels, else smaller.

    Equals the mean squared singular value of the transfer matrix.
    """
    c = choi(s)
    return float(np.trace(c @ c).real)
