"""Dense superoperator engine.

A superoperator E is stored as its Pauli transfer matrix (PTM), the d^2 x d^2
matrix M[i, j] = Tr(P_i E(P_j)) / d over the orthonormal basis of normalized
Pauli strings {P / sqrt(d)} in canonical order. Every map the detector
handles (e^(tL), its Pauli-framed and twirled slices) preserves Hermiticity,
so its PTM is real and is stored as float64; a complex matrix is accepted
only by the constructor, which keeps its real part. Pauli twirling is the
diagonal projection in this basis.

The exponential scales and squares a truncated Taylor polynomial, using only
numpy: a fixed table gives, per degree, the largest 1-norm at which the
polynomial's backward error is at most the unit roundoff u = 2^-53
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), and each polynomial is
evaluated by the Paterson-Stockmeyer scheme. A rotation phase of 1/u radians
or more is refused rather than returned with its phase lost to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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

    @functools.cached_property
    def norm1(self) -> float:
        """Largest absolute column sum of the transfer matrix."""
        return float(np.abs(self.mat).sum(axis=0).max())

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


# Unit roundoff of float64.
_U = 2.0**-53
# (degree m, theta_m): theta_m is the largest ||A||_1 at which the degree-m
# Taylor polynomial T_m(A) = e^(A + E) has ||E||_1 <= u ||A||_1, truncated
# from the roots of sum_{k>m} |c_k| theta^(k-1) = u, where
# log(e^(-x) T_m(x)) = sum_k c_k x^k. Only degrees at which the
# Paterson-Stockmeyer product count rises are listed; degrees beyond 20 cost
# more than one squaring buys.
_TAYLOR_THETA = (
    (1, 2.22044604925031e-16),
    (2, 2.58095680297176e-8),
    (4, 3.39716883997696e-4),
    (6, 9.06565640759510e-3),
    (9, 8.95776020322334e-2),
    (12, 2.99615891381158e-1),
    (16, 7.80287425662657e-1),
    (20, 1.43825259680433),
)


@dataclass(frozen=True)
class _TaylorPlan:
    """Paterson-Stockmeyer evaluation of sum_{k<=degree} A^k / k!: the
    polynomial is sum_j B_j (A^p)^j with B_j = coeffs[j] . (I, A, .., A^(p-1)),
    run by Horner's rule in A^p. When p divides the degree, the top block is
    the scalar 1/degree! and is folded into the first Horner step (lead)."""

    degree: int
    theta: float
    block: int
    coeffs: np.ndarray
    lead: float
    products: int


def _taylor_plan(degree: int, theta: float) -> _TaylorPlan:
    def products(p: int) -> int:
        return p - 1 + degree // p - (degree % p == 0)

    p = min(range(1, degree + 1), key=products)
    rows = degree // p + 1
    coeffs = np.zeros((rows, p))
    for k in range(degree + 1):
        coeffs[divmod(k, p)] = 1.0 / math.factorial(k)
    lead = 0.0
    if degree % p == 0:
        lead = coeffs[-1, 0]
        coeffs = coeffs[:-1]
    return _TaylorPlan(degree, theta, p, coeffs, lead, products(p))


_TAYLOR_PLANS = tuple(_taylor_plan(m, theta) for m, theta in _TAYLOR_THETA)


def _pick_plan(norm: float) -> tuple[_TaylorPlan, int]:
    """The plan and squaring count s with the fewest matrix products that
    keep ||A||_1 / 2^s within the plan's theta; ties go to fewer squarings."""
    best, best_s = _TAYLOR_PLANS[0], 0
    best_cost = math.inf
    frac, expo = math.frexp(norm)
    for plan in _TAYLOR_PLANS:
        # exact: with norm = f 2^e and theta = g 2^h (f, g in [1/2, 1)), the
        # least s with norm / 2^s <= theta is e - h, plus one when f > g
        theta_frac, theta_expo = math.frexp(plan.theta)
        s = 0 if norm <= plan.theta else expo - theta_expo + (frac > theta_frac)
        if plan.products + s <= best_cost:
            best, best_s, best_cost = plan, s, plan.products + s
        if s == 0:
            break  # every later plan costs more and needs no squaring either
    return best, best_s


@functools.cache
def _identity(size: int) -> np.ndarray:
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


def _taylor_exp(a: np.ndarray, plan: _TaylorPlan) -> np.ndarray:
    size = len(a)
    powers = [_identity(size), a]
    for _ in range(plan.block - 1):
        powers.append(powers[-1] @ a)
    top = powers.pop()
    blocks = plan.coeffs @ np.reshape(powers, (plan.block, -1))
    blocks = blocks.reshape(-1, size, size)
    j = len(blocks) - 1
    out = blocks[j] if plan.lead == 0.0 else plan.lead * top + blocks[j]
    for j in range(j - 1, -1, -1):
        out = out @ top + blocks[j]
    return out


def _antisymmetric_norm1(mat: np.ndarray) -> float:
    return float(np.abs(mat - mat.T).sum(axis=0).max()) / 2


def _beyond_precision(t: float, why: str) -> NumericError:
    return NumericError(
        f"the channel exponential at t={t} is not finite in double precision ({why})"
    )


def exp(s: SuperOperator, t: float) -> SuperOperator:
    """Channel e^(t S), by scaling and squaring a truncated Taylor polynomial
    whose degree and squaring count come from the backward-error table above.

    Raises NumericError when t S or the result is not finite, and when
    u t ||(S - S^T)/2||_1 >= 1: the antisymmetric part carries the rotation
    phase, and at that size rounding has consumed all of it.
    """
    if not 0 <= t < math.inf:
        raise DomainError(
            f"evolution time must be non-negative and finite, got t={t} "
            "(the evolution is not invertible in general)"
        )
    norm = t * s.norm1
    if not math.isfinite(norm):
        raise _beyond_precision(t, "t times the generator overflows")
    # ||(S - S^T)/2||_1 <= (1 + d^2)/2 ||S||_1, so most calls skip the phase norm
    if _U * norm * (1 + s.dim) >= 2 and _U * t * _antisymmetric_norm1(s.mat) >= 1:
        raise _beyond_precision(t, "rounding has consumed its rotation phase")
    plan, squarings = _pick_plan(norm)
    a = t * s.mat
    if squarings:
        a *= 2.0**-squarings
    out = _taylor_exp(a, plan)
    for _ in range(squarings):
        out = out @ out
    # without squaring, ||e^A||_1 <= e^theta stays finite
    if squarings and not np.isfinite(out).all():
        raise _beyond_precision(t, "the result overflows")
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
