"""Independent reference for the benchmark's output checks.

Nothing here imports lindet. Configs are read with PyYAML, Pauli matrices,
transfer matrices and commutation signs are built with numpy alone, and the
detector's constants are evaluated from the README formulas. The checks in
``validate.py`` compare the program's reports against these values.

Transfer matrices use the normalized Pauli basis in canonical order (text
form over I < X < Y < Z, qubit 0 most significant), so entry [p, q] is
Tr(P_p L(P_q)) / d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import yaml

UNIT_ROUNDOFF = np.finfo(float).eps / 2

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Taylor terms kept for diag(e^(tau L)); the remainder is bounded per call.
TAYLOR_TERMS = 10


def pauli_texts(n: int) -> list[str]:
    texts = [""]
    for _ in range(n):
        texts = [t + c for t in texts for c in "IXYZ"]
    return texts


def pauli_dense(text: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for ch in text:
        out = np.kron(out, _SINGLE[ch])
    return out


def anticommute_count(a: str, b: str) -> int:
    """Sites where both letters are non-identity and differ."""
    return sum(1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y)


def commutation_signs(frame: str) -> np.ndarray:
    """chi(frame, Q) for every Q in canonical order."""
    return np.array(
        [-1.0 if anticommute_count(frame, q) % 2 else 1.0 for q in pauli_texts(len(frame))]
    )


@dataclass(frozen=True)
class Promise:
    """Detector constants evaluated from the README formulas."""

    epsilon_prime: float
    m: int
    rounds: int
    t_max: float


def derive(epsilon: float, delta: float, k: int, degree: int, l_bound: float) -> Promise:
    sparsity = (4 * degree) ** k + 1
    rounds = max(1, math.ceil((40 * 9**k) / 3 * -math.log(delta)))
    m = math.ceil(192 * 9 ** (k - 1) * sparsity**2 * l_bound**2 / epsilon**2)
    return Promise(epsilon / (2 * sparsity), m, rounds, (2 * sparsity) / epsilon)


class Generator:
    """A config's Lindblad generator, built from its Pauli terms."""

    def __init__(self, doc: dict):
        self.n = int(doc["n"])
        self.hamiltonian = [(t["pauli"], float(t["coeff"])) for t in doc.get("hamiltonian") or []]
        self.jumps = [
            [(t["pauli"], complex(float(t["re"]), float(t["im"]))) for t in j["terms"]]
            for j in doc.get("jumps") or []
        ]
        self.declared = (doc.get("declared_k"), doc.get("declared_degree"))

    @classmethod
    def from_file(cls, path: str) -> "Generator":
        with open(path) as fh:
            return cls(yaml.safe_load(fh))

    @property
    def d(self) -> int:
        return 2**self.n

    def _dense(self, terms) -> np.ndarray:
        out = np.zeros((self.d, self.d), dtype=complex)
        for text, c in terms:
            if text != "I" * self.n:
                out += c * pauli_dense(text)
        return out

    def locality_degree(self) -> tuple[int, int]:
        """Declared (k, Delta), or (1, 1) for a purely Hamiltonian config."""
        if not self.jumps:
            return 1, 1
        k, degree = self.declared
        if k is None or degree is None:
            raise ValueError("dissipative benchmark configs declare k and Delta")
        return int(k), int(degree)

    def l_bound(self) -> float:
        """2 ||H||_op + 2 sum_a ||L_a||_op^2, or 1 for the zero generator."""
        total = 2.0 * float(np.linalg.norm(self._dense(self.hamiltonian), ord=2))
        for jump in self.jumps:
            total += 2.0 * float(np.linalg.norm(self._dense(jump), ord=2)) ** 2
        return total if total > 0 else 1.0

    def promise(self, epsilon: float, delta: float) -> Promise:
        k, degree = self.locality_degree()
        return derive(epsilon, delta, k, degree, self.l_bound())

    @cached_property
    def ptm(self) -> np.ndarray:
        """Real transfer matrix of L in the normalized Pauli basis."""
        basis = np.array([pauli_dense(t) for t in pauli_texts(self.n)])
        h = self._dense(self.hamiltonian)
        image = -1j * (h @ basis - basis @ h)
        for jump in self.jumps:
            la = self._dense(jump)
            lal = la.conj().T @ la
            image += la @ basis @ la.conj().T - 0.5 * (lal @ basis + basis @ lal)
        # M[p, q] = Tr(P_p image_q) / d = sum_ij P_p[i, j] image_q[j, i] / d
        mat = basis.reshape(len(basis), -1) @ image.transpose(0, 2, 1).reshape(len(basis), -1).T
        mat /= self.d
        if np.abs(mat.imag).max() > 1e-12 * max(1.0, np.abs(mat).max()):
            raise ValueError("transfer matrix of a Lindbladian must be real")
        return mat.real

    @cached_property
    def _spectral_norm(self) -> float:
        return float(np.linalg.norm(self.ptm, ord=2))

    @cached_property
    def _diag_powers(self) -> np.ndarray:
        """diag(L^j) for j = 1..TAYLOR_TERMS, one row per j."""
        rows, power = [], np.eye(len(self.ptm))
        for _ in range(TAYLOR_TERMS):
            power = power @ self.ptm
            rows.append(np.diag(power).copy())
        return np.array(rows)

    def slice_diag_minus_one(self, tau: float) -> np.ndarray:
        """diag(e^(tau L)) - 1 without cancellation, by Taylor series.

        Falls back to a dense exponential when the series remainder bound
        (tau ||L||_2)^(J+1) / (J+1)! * e^(tau ||L||_2) exceeds 1e-30.
        """
        x = tau * self._spectral_norm
        remainder = x ** (TAYLOR_TERMS + 1) / math.factorial(TAYLOR_TERMS + 1) * math.exp(x)
        if remainder > 1e-30:
            return np.diag(scipy.linalg.expm(tau * self.ptm)) - 1.0
        coeffs = np.array([tau**j / math.factorial(j) for j in range(1, TAYLOR_TERMS + 1)])
        return coeffs @ self._diag_powers

    def averaged_p_identity(self, t: float, m: int) -> float:
        """Identity probability of m twirled slices: mean_q exp(m log1p(diag_q - 1)).

        A diagonal entry at or below 1/2 (only at slice times far beyond the
        benchmark's) is raised to the m-th power directly.
        """
        delta = self.slice_diag_minus_one(t / m)
        near_one = delta > -0.5
        powers = np.where(near_one, np.exp(m * np.log1p(np.where(near_one, delta, 0.0))),
                          (1.0 + delta) ** m)
        return float(np.mean(powers))

    def sampled_p_identity(self, t: float, frames: list[str]) -> float:
        """Identity probability of the framed slice product, slices in order."""
        step = scipy.linalg.expm((t / len(frames)) * self.ptm)
        total = np.eye(len(step))
        signs = {}
        for f in frames:
            s = signs.get(f)
            if s is None:
                s = signs[f] = commutation_signs(f)
            total = (s[:, None] * step * s[None, :]) @ total
        return float(np.trace(total)) / len(step)


# Closed forms for the bundled single-qubit configs.
DEPHASING_ALPHA = 0.5946427498927402**2


def depolarizing_quarter(t: float) -> float:
    return (1.0 + 3.0 * math.exp(-t)) / 4.0


def dephasing_strong(t: float) -> float:
    return (1.0 + math.exp(-2.0 * DEPHASING_ALPHA * t)) / 2.0


def hamiltonian_z_averaged(t: float, m: int) -> float:
    """(1 + cos(2t/m)^m) / 2, with cos(2 tau) - 1 = -2 sin(tau)^2."""
    x = -2.0 * math.sin(t / m) ** 2
    return (1.0 + (math.exp(m * math.log1p(x)) if x > -0.5 else (1.0 + x) ** m)) / 2.0


def hamiltonian_z_sampled(t: float, frames: list[str]) -> float:
    """(1 + cos(2 t S / m)) / 2 with S = #frames in {I, Z} - #frames in {X, Y}."""
    s = sum(1 if f in ("I", "Z") else -1 for f in frames)
    return (1.0 + math.cos(2.0 * t * s / len(frames))) / 2.0


def p_tolerance(mode: str, m: int, dim: int) -> float:
    """Rounding bound on the program's p_identity at slice count m.

    Averaged mode raises each twirled-slice diagonal entry, computed with an
    error of a few units of roundoff, to the m-th power, which multiplies the
    error by m; the trace over dim = d^2 modes adds dim roundoffs. Sampled
    mode multiplies m dense d^2 x d^2 slices, each product adding at most
    dim roundoffs per entry. The factors 8 and 4 allow for the constant of
    the exponential's backward error; both bounds stay below 1e-9 for the
    benchmark's slice counts at n = 1, so a 1e-9 shift is caught.
    """
    if mode == "averaged":
        return 8.0 * UNIT_ROUNDOFF * (m + dim)
    return 4.0 * UNIT_ROUNDOFF * dim * (m + 1)
