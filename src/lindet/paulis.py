"""Exact algebra of n-qubit Pauli strings.

Encoding
--------
A Pauli string is stored as two bit masks ``x_bits`` and ``z_bits`` of
length ``n`` (bit i describes qubit i), with the site letters

    (x, z) = (0, 0) -> I,  (1, 0) -> X,  (1, 1) -> Y,  (0, 1) -> Z.

The single-site matrix convention is ``P(x, z) = i^(x*z) X^x Z^z``, which
makes every Pauli string Hermitian and involutive. Global phases are never
stored on a string.

Text representation: strings over {I, X, Y, Z}, leftmost character = qubit 0.
The canonical enumeration order is lexicographic in that text form with
letter order I < X < Y < Z, so the identity string always comes first and
qubit 0 is the most significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapacityError, DimensionError

# Dense realizations are capped to keep memory and exponential cost
# desk-scale. The default caps superoperators (superop.from_lindbladian) at
# d^2 = 256; configs may raise it up to the hard limit, which is also the one
# cap on Pauli matrices and enumerations.
DEFAULT_MAX_QUBITS = 4
HARD_MAX_QUBITS = 6

_LETTERS = "IXYZ"
_LETTER_BYTES = np.frombuffer(_LETTERS.encode("ascii"), dtype=np.uint8)
# letter code c in {0,1,2,3} -> (x bit, z bit)
_CODE_TO_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))
_BITS_TO_CODE = {bits: code for code, bits in enumerate(_CODE_TO_BITS)}

_SINGLE_QUBIT_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check_capacity(n: int, max_qubits: int | None = None) -> None:
    """Raise :class:`CapacityError` if ``n`` exceeds the dense capacity."""
    limit = DEFAULT_MAX_QUBITS if max_qubits is None else max_qubits
    if limit > HARD_MAX_QUBITS:
        raise CapacityError(
            f"capacity override {limit} exceeds the hard limit {HARD_MAX_QUBITS}"
        )
    if n > limit:
        raise CapacityError(
            f"n={n} exceeds the configured dense capacity {limit} "
            f"(hard limit {HARD_MAX_QUBITS})"
        )


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli word in symplectic bit encoding (no global phase)."""

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got n={self.n}")
        mask = (1 << self.n) - 1
        if not 0 <= self.x_bits <= mask or not 0 <= self.z_bits <= mask:
            raise ValueError("bit masks must fit in n bits")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse a string over {I,X,Y,Z}; leftmost character is qubit 0."""
        if not text:
            raise ValueError("empty Pauli string")
        x = z = 0
        for i, ch in enumerate(text):
            if ch not in _LETTERS:
                raise ValueError(f"invalid Pauli letter {ch!r} in {text!r}")
            xb, zb = _CODE_TO_BITS[_LETTERS.index(ch)]
            x |= xb << i
            z |= zb << i
        return cls(len(text), x, z)

    def letter(self, i: int) -> str:
        """Site letter at qubit i."""
        xb = (self.x_bits >> i) & 1
        zb = (self.z_bits >> i) & 1
        return _LETTERS[_BITS_TO_CODE[(xb, zb)]]

    def text(self) -> str:
        return "".join(self.letter(i) for i in range(self.n))

    def __str__(self) -> str:
        return self.text()

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def support(self) -> frozenset[int]:
        """Indices of non-identity sites; |support| == weight."""
        both = self.x_bits | self.z_bits
        return frozenset(i for i in range(self.n) if (both >> i) & 1)

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0


def _require_same_n(p: PauliString, q: PauliString) -> None:
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} != {q.n}")


def chi(p: PauliString, q: PauliString) -> int:
    """Commutation sign: +1 if P and Q commute, -1 if they anticommute.

    Equals (-1)^(x_P.z_Q + z_P.x_Q mod 2) and factorizes over sites.
    """
    _require_same_n(p, q)
    parity = ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) & 1
    return -1 if parity else 1


def from_index(n: int, idx: int) -> PauliString:
    """The string at position ``idx`` of the canonical enumeration."""
    if not 0 <= idx < 4**n:
        raise ValueError(f"index {idx} out of range for n={n}")
    x = z = 0
    for i in reversed(range(n)):
        xb, zb = _CODE_TO_BITS[idx % 4]
        x |= xb << i
        z |= zb << i
        idx //= 4
    return PauliString(n, x, z)


def enumerate_all(n: int) -> Iterator[PauliString]:
    """All 4^n Pauli strings in canonical order (identity first)."""
    if n < 1:
        raise ValueError(f"qubit count must be positive, got n={n}")
    check_capacity(n, HARD_MAX_QUBITS)
    for idx in range(4**n):
        yield from_index(n, idx)


def sample_codes(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` uniform draws over all 4^n strings as letter codes, shape (size, n).

    This is the only Pauli sampler. Row j holds the values a size-n draw
    would give as the j-th of ``size`` consecutive draws, so a stream's
    draws do not depend on how they are batched.
    """
    if n < 1:
        raise ValueError(f"qubit count must be positive, got n={n}")
    return rng.integers(0, 4, size=(size, n))


def matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix of the string (qubit 0 = leftmost factor)."""
    check_capacity(p.n, HARD_MAX_QUBITS)
    m = np.ones((1, 1), dtype=complex)
    for i in range(p.n):
        m = np.kron(m, _SINGLE_QUBIT_MATRICES[p.letter(i)])
    return m


@lru_cache(maxsize=HARD_MAX_QUBITS)
def matrix_stack(n: int) -> np.ndarray:
    """The 4^n Pauli matrices in canonical order, shape (4^n, 2^n, 2^n). Read-only."""
    stack = np.array([matrix(p) for p in enumerate_all(n)])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=HARD_MAX_QUBITS)
def chi_table(n: int) -> np.ndarray:
    """4^n x 4^n table of commutation signs in canonical index order.

    Entry [i, j] is chi(P_i, P_j). Built by tensoring the single-qubit table,
    which is valid because chi factorizes over sites. Read-only.
    """
    single = np.array(
        [
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [1, -1, 1, -1],
            [1, -1, -1, 1],
        ],
        dtype=np.int8,
    )  # order I, X, Y, Z
    table = np.ones((1, 1), dtype=np.int8)
    for _ in range(n):
        table = np.kron(table, single)
    table.setflags(write=False)
    return table


def indices_from_codes(codes: np.ndarray) -> np.ndarray:
    """Canonical indices for an array of per-site letter codes, shape (..., n)."""
    codes = np.asarray(codes)
    n = codes.shape[-1]
    weights = 4 ** np.arange(n - 1, -1, -1)
    return codes @ weights


def letters_from_codes(codes: np.ndarray) -> str:
    """Letter codes, shape (..., n), as one string of letters in row order.

    A (m, n) array becomes m n-letter Pauli texts joined end to end, one byte
    per letter; :func:`split_letters` recovers the texts.
    """
    return _LETTER_BYTES[codes].tobytes().decode("ascii")


def split_letters(letters: str, count: int) -> list[str]:
    """The ``count`` equal-length Pauli texts joined in ``letters``."""
    if not letters:
        return []
    # zip takes n letters at a time from one iterator
    return list(map("".join, zip(*[iter(letters)] * (len(letters) // count))))
