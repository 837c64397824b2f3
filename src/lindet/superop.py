"""Dense superoperator engine.

A superoperator E is stored as its Pauli transfer matrix (PTM), the d^2 x d^2
matrix M[i, j] = Tr(P_i E(P_j)) / d over the orthonormal basis of normalized
Pauli strings {P / sqrt(d)} in canonical order. Every map the detector
handles (e^(tL), its Pauli-framed and twirled slices) preserves Hermiticity,
so its PTM is real and is stored as float64; a complex matrix is accepted
only by the constructor, which keeps its real part. Pauli twirling is the
diagonal projection in this basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConsistencyError,
    DimensionError,
    DomainError,
    NumericError,
)
from .model import DiagonalDissipator, Lindbladian, diagonal_eigenvalue
from .paulis import check_capacity, enumerate_all, matrix_stack

# Structural tolerances: absolute, scaled by the matrix max-entry magnitude.
STRUCT_TOL = 1e-10


@dataclass(frozen=True)
class SuperOperator:
    """A Hermiticity-preserving linear map on operators, as its real transfer
    matrix in the normalized Pauli basis. Immutable after construction."""

    n: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        dim = 4**self.n
        m = np.asarray(self.mat)
        if m.shape != (dim, dim):
            raise DimensionError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        if np.iscomplexobj(m):
            residue = float(np.abs(m.imag).max())
            if residue > STRUCT_TOL * _entry_scale(m):
                raise ConsistencyError(
                    f"transfer matrix has imaginary residue {residue:.3e} beyond "
                    "tolerance (the map does not preserve Hermiticity)"
                )
            m = m.real
        m = np.array(m, dtype=np.float64)
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


def from_lindbladian(
    lind: Lindbladian, max_qubits: int | None = None
) -> SuperOperator:
    """Realize L(rho) = -i[H, rho] + sum_a (L_a rho L_a^dag - 1/2 {L_a^dag L_a, rho})
    by its definition M[i, j] = Tr(P_i L(P_j)) / d, on all 4^n strings at once."""
    check_capacity(lind.n, max_qubits)
    d = 2**lind.n
    paulis = matrix_stack(lind.n)
    jumps = [j.dense() for j in lind.dissipator.jumps]
    # L(P) = G P + P G^dag + sum_a L_a P L_a^dag, G = -iH - 1/2 sum_a L_a^dag L_a
    g = -1j * lind.hamiltonian.dense()
    for la in jumps:
        g -= 0.5 * (la.conj().T @ la)
    images = g @ paulis
    images += paulis @ g.conj().T
    for la in jumps:
        images += la @ paulis @ la.conj().T
    # Tr(P_i A) = sum_ab conj(P_i[b, a]) A[b, a], since P_i is Hermitian
    flat = paulis.reshape(len(paulis), d * d)
    mat = flat.conj() @ images.reshape(len(paulis), d * d).T
    return SuperOperator(lind.n, mat / d)


def from_diagonal(diss: DiagonalDissipator) -> SuperOperator:
    """Diagonal transfer matrix with the per-mode decay rates of the dissipator."""
    diag = [diagonal_eigenvalue(diss, q) for q in enumerate_all(diss.n)]
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


def scale(a: SuperOperator, c: float) -> SuperOperator:
    return SuperOperator(a.n, c * a.mat)


def _entry_scale(mat: np.ndarray) -> float:
    return max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)


def identity_fraction(s: SuperOperator) -> float:
    """Tr(S)/d^2: the Bell identity-outcome probability of the map."""
    return float(np.trace(s.mat)) / s.dim


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
    out = scipy.linalg.expm(t * s.mat)
    if not np.isfinite(out).all():
        raise NumericError(
            f"the channel exponential at t={t} is not finite "
            "(the evolution time is beyond double precision)"
        )
    return SuperOperator(s.n, out)


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
    """Normalized Choi state (E kron I)(|Phi><Phi|) = sum_ij M_ij P_i kron P_j^T / d^2:
    Hermitian for Hermiticity-preserving maps, unit trace for trace-preserving
    ones."""
    d = 2**s.n
    flat = matrix_stack(s.n).reshape(s.dim, d * d)
    # t[a, b, e, c] = sum_ij P_i[a, b] M_ij P_j[e, c]; P_j^T[c, e] = P_j[e, c]
    t = (flat.T @ (s.mat @ flat)).reshape(d, d, d, d)
    return t.transpose(0, 3, 1, 2).reshape(d * d, d * d) / d**2


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
