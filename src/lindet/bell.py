"""Bell-sampling simulation: outcome distributions and per-round shots.

A round of the detection procedure evolves one half of a maximally entangled
pair through m Pauli-framed slices of the black-box channel and measures in
the Bell basis. Shots are simulated by computing the exact conditional
probability of the identity outcome for the composed channel and drawing a
single Bernoulli sample; the full 4^n outcome distribution stays available
for diagnostics.

A sampled round draws its m frames in chunks and composes the framed slices
without one product per slice: a Pauli-diagonal slice commutes with every
frame, so m of them compose to an elementwise power, and any other slice is
composed from products of short frame words, tabulated once per round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import ConsistencyError, DomainError
from .paulis import chi_table, indices_from_codes, letters_from_codes, sample_codes
from .superop import STRUCT_TOL, SuperOperator, exp, identity_fraction
from .superop import from_lindbladian  # noqa: F401  (bench/tracing.py wraps it here)
from .twirl import diagonal_power, trotterized_twirled

logger = logging.getLogger(__name__)

RoundMode = Literal["sampled_pauli", "averaged"]

CLAMP_LOG_THRESHOLD = 1e-9
FRAME_CHUNK_BYTES = 1 << 17
WORD_TABLE_BYTES = 1 << 20
FRAME_DRAW_CHUNK = 1 << 14


@dataclass(frozen=True)
class RoundOutcome:
    """Result of one detection round.

    ``rejected`` is True when the Bell measurement returned an outcome other
    than the identity (the state did not remain |Phi>), which is the event
    that makes the detector reject. ``p_identity`` is the exact conditional
    probability used for the Bernoulli draw, clamped to [0, 1].
    ``pauli_frames`` holds a sampled round's m frames in slice order as one
    string of m*n letters (see :func:`paulis.letters_from_codes`); it is
    empty in averaged mode.
    """

    rejected: bool
    t_used: float
    pauli_frames: str
    p_identity: float


def bell_distribution(s: SuperOperator) -> np.ndarray:
    """Probabilities of all 4^n Bell outcomes, indexed in canonical Pauli order.

    Outcome P has probability (1/d^2) sum_Q chi(P, Q) M[Q, Q] because the
    post-measurement frame composes the channel with conjugation by P. The
    entry at the identity index equals identity_fraction(s). Rounding residue
    in [-STRUCT_TOL, 0) is clipped to 0; a value below that, or a sum off 1
    by more than 1e-9, raises ConsistencyError.
    """
    probs = (chi_table(s.n).astype(float) @ np.diag(s.mat)) / s.dim
    if probs.min() < -STRUCT_TOL or abs(probs.sum() - 1.0) > 1e-9:
        raise ConsistencyError(
            f"Bell outcome vector is not a probability distribution "
            f"(min {probs.min():.3e}, sum {probs.sum():.12f}); input map is not CPTP"
        )
    return np.maximum(probs, 0.0)


def _clamp_probability(p: float) -> float:
    if p < -CLAMP_LOG_THRESHOLD or p > 1 + CLAMP_LOG_THRESHOLD:
        logger.warning("clamping identity probability %.12g to [0, 1]", p)
    return min(1.0, max(0.0, p))


def _framed(step: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The slice S step S in each frame, given one row of signs S per frame."""
    return step * (signs[:, :, None] * signs[:, None, :])


def _word_tables(step: np.ndarray, signs: np.ndarray, m: int) -> list[np.ndarray]:
    """Composed framed slices of every frame word of length 1, 2, 4, ..., L.

    Table j holds the 4^(n 2^j) words of 2^j frames, indexed by the word's
    frames as digits base 4^n, the earliest most significant; entry
    a*W + b of table j+1 is table_j[b] @ table_j[a], the later word on the
    left. A table is built only while it has no more entries than the m
    slices hold words of its length, and while it fits WORD_TABLE_BYTES.
    """
    entries = len(signs)
    if entries > m or entries * step.nbytes > WORD_TABLE_BYTES:
        return []
    tables = [_framed(step, signs)]
    while True:
        last = tables[-1]
        entries = len(last) ** 2
        if entries > m >> len(tables) or entries * step.nbytes > WORD_TABLE_BYTES:
            return tables
        tables.append((last[None] @ last[:, None]).reshape(entries, *step.shape))


def sampled_frame_channel(
    generator: SuperOperator, tau: float, frame_indices: np.ndarray
) -> SuperOperator:
    """Compose conjugated slices U_P o e^(tau L) o U_P for the given frames.

    Pauli conjugation is diagonal (+-1) in the transfer basis, so each slice
    is a sign sandwich of the slice channel; slices apply in sequence order.
    A Pauli-diagonal slice commutes with every sandwich, so the composition
    is its elementwise m-th power whatever the frames. Any other slice is
    composed from tables of framed words (see :func:`_word_tables`): the
    frames are read as words of L frames, looked up in chunks of
    FRAME_CHUNK_BYTES (two words at least), so working memory is bounded for
    any m, and each chunk is composed by pairwise batched products, the later
    word on the left, after earlier chunks. The m mod L frames left over go
    through the smaller tables, one binary digit at a time. With no table
    (m below 4^n, or the 4^n framed slices over budget) a word is one slice,
    framed as it is read.
    """
    step = exp(generator, tau).mat
    m = len(frame_indices)
    power = diagonal_power(step, m)
    if power is not None:
        return SuperOperator(generator.n, power)
    signs = chi_table(generator.n).astype(float)
    tables = _word_tables(step, signs, m)
    length = 1 << max(len(tables) - 1, 0)
    weights = len(signs) ** np.arange(length - 1, -1, -1)
    chunk = max(2, FRAME_CHUNK_BYTES // step.nbytes) * length
    body = m - m % length
    total = np.eye(step.shape[0], dtype=step.dtype)
    for start in range(0, body, chunk):
        words = frame_indices[start : min(start + chunk, body)].reshape(-1, length)
        if tables:
            block = tables[-1][words @ weights]
        else:
            block = _framed(step, signs[words[:, 0]])
        while len(block) > 1:
            paired = block[1::2] @ block[:-1:2]
            block = np.concatenate((paired, block[-1:])) if len(block) % 2 else paired
        total = block[0] @ total
    for level in reversed(range(len(tables) - 1)):
        if m - body >= 1 << level:
            word = frame_indices[body : body + (1 << level)]
            total = tables[level][word @ weights[-len(word) :]] @ total
            body += len(word)
    return SuperOperator(generator.n, total)


def _draw_frames(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, str]:
    """m uniform frames as canonical indices and as one string of letters.

    Drawn FRAME_DRAW_CHUNK slices at a time, which gives the same frames as
    one draw of m (see :func:`paulis.sample_codes`); the indices are kept in
    the smallest unsigned type that holds 4^n - 1.
    """
    indices = np.empty(m, dtype=np.min_scalar_type(4**n - 1))
    letters = []
    for start in range(0, m, FRAME_DRAW_CHUNK):
        codes = sample_codes(n, min(FRAME_DRAW_CHUNK, m - start), rng)
        indices[start : start + len(codes)] = indices_from_codes(codes)
        letters.append(letters_from_codes(codes))
    return indices, "".join(letters)


def run_round(
    generator: SuperOperator,
    t_max: float,
    m: int,
    mode: RoundMode,
    rng: np.random.Generator,
) -> RoundOutcome:
    """Simulate one detection round: draw t ~ U[0, t_max], compose m slices
    of duration tau = t/m, and draw the Bell outcome.

    In "sampled_pauli" mode, m fresh Pauli frames conjugate the slices and
    the exact composed channel feeds the single Bernoulli draw; in "averaged"
    mode the composition of twirled slices is used instead. The expectation
    of the sampled composition over frames equals the averaged composition.
    """
    if t_max <= 0:
        raise DomainError(f"t_max must be positive, got {t_max}")
    if m < 1:
        raise DomainError(f"slice count must be at least 1, got m={m}")
    if mode not in get_args(RoundMode):
        raise DomainError(f"unknown round mode {mode!r}")
    t = float(rng.uniform(0.0, t_max))
    tau = t / m
    if mode == "sampled_pauli":
        indices, frames = _draw_frames(generator.n, m, rng)
        channel = sampled_frame_channel(generator, tau, indices)
    else:
        channel = trotterized_twirled(generator, tau, m)
        frames = ""
    p = _clamp_probability(identity_fraction(channel))
    stayed_identity = bool(rng.random() < p)
    return RoundOutcome(
        rejected=not stayed_identity,
        t_used=t,
        pauli_frames=frames,
        p_identity=p,
    )
