"""Pauli twirling of superoperators and Trotterized twirled evolution.

In the Pauli transfer basis the twirl is exactly the diagonal projection, so
it zeroes off-diagonal entries.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .superop import SuperOperator, compose, diamond_bounds, exp
from .superop import from_lindbladian  # noqa: F401  (bench/tracing.py wraps it here)


def twirl_exact(s: SuperOperator) -> SuperOperator:
    """Diagonal projection of the transfer matrix; idempotent."""
    return SuperOperator(s.n, np.diag(np.diag(s.mat)))


def twirled_step(generator: SuperOperator, tau: float) -> SuperOperator:
    """One twirled short-time slice: the diagonal projection of e^(tau L).

    CPTP, since twirling is a convex mixture of unitary conjugations composed
    with a channel.
    """
    if tau < 0:
        raise DomainError(f"slice time must be non-negative, got {tau}")
    return twirl_exact(exp(generator, tau))


def diagonal_power(mat: np.ndarray, m: int) -> np.ndarray | None:
    """The m-th power of a diagonal transfer matrix, or None for any other.

    A matrix with no nonzero off-diagonal entry (an exact count, no
    tolerance) is Pauli-diagonal: its m-th power is the elementwise power of
    its diagonal, and it commutes with every Pauli conjugation.
    """
    diag = np.diag(mat)
    if np.count_nonzero(mat) != np.count_nonzero(diag):
        return None
    return np.diag(diag**m)


def trotterized_twirled(generator: SuperOperator, tau: float, m: int) -> SuperOperator:
    """m-fold composition of the twirled slice.

    The twirled slice is diagonal in the transfer basis, so its m-th power is
    the elementwise power of its diagonal; any slice with a nonzero
    off-diagonal entry is composed by a dense matrix power instead.
    """
    if m < 1:
        raise DomainError(f"slice count must be at least 1, got m={m}")
    step = twirled_step(generator, tau).mat
    power = diagonal_power(step, m)
    if power is None:
        power = np.linalg.matrix_power(step, m)
    return SuperOperator(generator.n, power)


def trotter_error_bound(generator: SuperOperator, tau: float, m: int) -> float:
    """Upper bound on ||(twirled slice)^m - e^(tau m T(L))||_diamond.

    Evaluates m (tau^2/2 ||T(L^2) - (T(L))^2||_dia + tau^3/3 ||L||_dia^3) with
    each diamond norm replaced by its computable upper bound, so the result
    stays a valid (looser) bound.
    """
    if tau < 0:
        raise DomainError(f"slice time must be non-negative, got {tau}")
    if m < 1:
        raise DomainError(f"slice count must be at least 1, got m={m}")
    if tau == 0:
        return 0.0
    twirled_of_square = twirl_exact(compose(generator, generator))
    square_of_twirled = compose(twirl_exact(generator), twirl_exact(generator))
    defect_ub = diamond_bounds(twirled_of_square - square_of_twirled)[1]
    gen_ub = diamond_bounds(generator)[1]
    return m * (tau**2 / 2.0 * defect_ub + tau**3 / 3.0 * gen_ub**3)
