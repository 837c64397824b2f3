"""Bell-sampling simulation: outcome distributions and per-round shots.

A round of the detection procedure evolves one half of a maximally entangled
pair through m Pauli-framed slices of the black-box channel and measures in
the Bell basis. Shots are simulated by computing the exact conditional
probability of the identity outcome for the composed channel and drawing a
single Bernoulli sample; the full 4^n outcome distribution stays available
for diagnostics.
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
from .twirl import trotterized_twirled

logger = logging.getLogger(__name__)

RoundMode = Literal["sampled_pauli", "averaged"]

CLAMP_LOG_THRESHOLD = 1e-9
FRAME_CHUNK_BYTES = 1 << 17


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
    entry at the identity index equals identity_fraction(s).
    """
    probs = (chi_table(s.n).astype(float) @ np.diag(s.mat)) / s.dim
    if probs.min() < -STRUCT_TOL or abs(probs.sum() - 1.0) > 1e-9:
        raise ConsistencyError(
            f"Bell outcome vector is not a probability distribution "
            f"(min {probs.min():.3e}, sum {probs.sum():.12f}); input map is not CPTP"
        )
    return probs


def _clamp_probability(p: float) -> float:
    if p < -CLAMP_LOG_THRESHOLD or p > 1 + CLAMP_LOG_THRESHOLD:
        logger.warning("clamping identity probability %.12g to [0, 1]", p)
    return min(1.0, max(0.0, p))


def sampled_frame_channel(
    generator: SuperOperator, tau: float, frame_indices: np.ndarray
) -> SuperOperator:
    """Compose conjugated slices U_P o e^(tau L) o U_P for the given frames.

    Pauli conjugation is diagonal (+-1) in the transfer basis, so each slice
    is a sign sandwich of the slice channel; slices apply in sequence order.
    Slices are framed in chunks of FRAME_CHUNK_BYTES (two slices at least),
    so working memory is bounded for any m; a chunk is composed by pairwise
    batched products, the later slice on the left, after earlier chunks.
    """
    step = exp(generator, tau).mat
    signs = chi_table(generator.n).astype(float)
    chunk = max(2, FRAME_CHUNK_BYTES // step.nbytes)
    total = np.eye(step.shape[0], dtype=step.dtype)
    for start in range(0, len(frame_indices), chunk):
        s = signs[frame_indices[start : start + chunk]]
        block = step * (s[:, :, None] * s[:, None, :])
        while len(block) > 1:
            paired = block[1::2] @ block[:-1:2]
            block = np.concatenate((paired, block[-1:])) if len(block) % 2 else paired
        total = block[0] @ total
    return SuperOperator(generator.n, total)


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
        codes = sample_codes(generator.n, m, rng)
        channel = sampled_frame_channel(generator, tau, indices_from_codes(codes))
        frames = letters_from_codes(codes)
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
