"""Second implementations that the program is checked against.

The verify suite (:mod:`lindet.checks`) and the tests compare the program's
channel exponential, twirl and generator realization with the independent
routes below. Nothing on the detection path imports this module.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, NumericError
from .model import Lindbladian
from .paulis import chi_table
from .superop import SuperOperator

# Eigenvector condition-number ceiling for the eigendecomposition exponential.
EIG_COND_LIMIT = 1e8
TWIRL_AVERAGE_MAX_QUBITS = 3


def exp_eig(s: SuperOperator, t: float) -> SuperOperator:
    """Channel e^(t S) through an eigendecomposition (oracle for superop.exp).

    Refuses ill-conditioned eigenvector matrices and decompositions that do
    not reproduce the input, both with :class:`NumericError`.
    """
    vals, vecs = np.linalg.eig(s.mat)
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond >= EIG_COND_LIMIT:
        raise NumericError(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{EIG_COND_LIMIT:.0e}; use superop.exp"
        )
    # Guard against inaccurate eigenpairs from the backend (seen even at
    # small condition numbers); the decomposition must reproduce the input.
    residual = float(np.abs(s.mat @ vecs - vecs * vals).max())
    scale = max(1.0, float(np.abs(s.mat).max()))
    residual_tol = 250 * np.finfo(float).eps * s.dim * scale
    if residual > residual_tol:
        raise NumericError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{residual_tol:.3e}; use superop.exp"
        )
    # the exponential of a real matrix is real; the eigenbasis is complex
    out = (vecs * np.exp(t * vals)) @ np.linalg.inv(vecs)
    return SuperOperator(s.n, out.real)


def twirl_average(s: SuperOperator) -> SuperOperator:
    """Uniform average over all 4^n Pauli conjugations (oracle for twirl_exact).

    Conjugating by the Pauli with index p multiplies transfer-matrix entry
    (i, j) by chi(p, i) chi(p, j), so the average is an entrywise mask.
    """
    if s.n > TWIRL_AVERAGE_MAX_QUBITS:
        raise CapacityError(
            f"brute-force twirl averages 4^n conjugations; n={s.n} exceeds "
            f"{TWIRL_AVERAGE_MAX_QUBITS}"
        )
    signs = chi_table(s.n).astype(float)
    acc = np.zeros_like(s.mat)
    for row in signs:
        acc += (row[:, None] * row[None, :]) * s.mat
    return SuperOperator(s.n, acc / signs.shape[0])


def lindblad_dense_action(lind: Lindbladian, x: np.ndarray) -> np.ndarray:
    """L(X) = -i[H, X] + sum_a (L_a X L_a^dag - 1/2 {L_a^dag L_a, X}) via dense
    matrices (oracle for superop.from_lindbladian)."""
    h = lind.hamiltonian.dense()
    out = -1j * (h @ x - x @ h)
    for j in lind.dissipator.jumps:
        la = j.dense()
        lad = la.conj().T
        lala = lad @ la
        out += la @ x @ lad - 0.5 * (lala @ x + x @ lala)
    return out
