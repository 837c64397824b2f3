"""Randomized dissipation-detection procedure.

Given black-box evolution channels of an unknown generator promised to be
either purely Hamiltonian or to carry a dissipative part of normalized
Frobenius norm at least epsilon, the detector runs up to R Bell-sampling
rounds of Pauli-framed short-time slices and rejects at the first round
whose Bell outcome leaves the maximally entangled state.

Parameter derivation (natural logarithms throughout, since the round-count
bound comes from exp(-pR) <= delta):

    epsilon' = epsilon / (2 ((4 Delta)^k + 1))
    R        = ceil(40 9^k / 3 * ln(1/delta)), floored at 1
    m        = ceil(192 * 9^(k-1) * ((4 Delta)^k + 1)^2 * L^2 / epsilon^2)
    t_max    = t_max_factor / epsilon'      (factor 1 by default)

The derived constants are loose by design; overrides for m, R and the
t_max factor are accepted and always recorded in the report.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Literal

import numpy as np

from .bell import RoundOutcome, run_round
from .errors import DomainError
from .model import Lindbladian, derive_locality_degree, diamond_upper_bound
from .paulis import check_capacity, split_letters
from .superop import from_lindbladian

logger = logging.getLogger(__name__)

THREADS_ENV_VAR = "LINDET_THREADS"

Verdict = Literal["ACCEPT", "REJECT"]


@dataclass(frozen=True)
class Overrides:
    """Optional replacements for the derived constants; None keeps the default."""

    m: int | None = None
    rounds: int | None = None
    t_max_factor: float = 1.0


@dataclass(frozen=True)
class DetectionParams:
    epsilon: float
    delta: float
    k: int
    degree: int
    l_bound: float
    mode: Literal["sampled_pauli", "averaged"] = "sampled_pauli"
    seed: int = 0
    overrides: Overrides = field(default_factory=Overrides)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if self.k < 1:
            raise DomainError(f"locality must satisfy k >= 1, got {self.k}")
        if self.degree < 1:
            raise DomainError(f"degree must satisfy Delta >= 1, got {self.degree}")
        if self.l_bound <= 0:
            raise DomainError(f"generator bound must be positive, got {self.l_bound}")
        if self.overrides.t_max_factor <= 0:
            raise DomainError("t_max_factor must be positive")


@dataclass(frozen=True)
class DerivedParams:
    epsilon_prime: float
    m: int
    rounds: int
    t_max: float


@dataclass(frozen=True)
class DetectionReport:
    verdict: Verdict
    epsilon_prime: float
    m: int
    rounds_planned: int
    t_max: float
    rounds: tuple[RoundOutcome, ...]
    rejecting_round: int | None
    total_evolution_time: float
    query_count: int
    params: DetectionParams
    t_bound: float
    q_bound: int
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "epsilon_prime": self.epsilon_prime,
            "m": self.m,
            "rounds_planned": self.rounds_planned,
            "t_max": self.t_max,
            "rejecting_round": self.rejecting_round,
            "total_evolution_time": self.total_evolution_time,
            "query_count": self.query_count,
            "t_bound": self.t_bound,
            "q_bound": self.q_bound,
            "warnings": list(self.warnings),
            "params": asdict(self.params),
            "rounds": [
                {
                    "rejected": r.rejected,
                    "t_used": r.t_used,
                    "p_identity": r.p_identity,
                    "pauli_frames": split_letters(r.pauli_frames, self.m),
                }
                for r in self.rounds
            ],
        }
        return out


def derive_parameters(
    epsilon: float,
    delta: float,
    k: int,
    degree: int,
    l_bound: float,
    t_max_factor: float = 1.0,
) -> DerivedParams:
    """Evaluate the constants of the procedure for a given promise."""
    params = DetectionParams(epsilon, delta, k, degree, l_bound)  # validates
    del params
    if t_max_factor <= 0:
        raise DomainError("t_max_factor must be positive")
    sparsity = (4 * degree) ** k + 1
    epsilon_prime = epsilon / (2 * sparsity)
    log_term = -math.log(delta)
    rounds = max(1, math.ceil((40 * 9**k) / 3 * log_term))
    m = math.ceil(192 * 9 ** (k - 1) * sparsity**2 * l_bound**2 / epsilon**2)
    t_max = t_max_factor * (2 * sparsity) / epsilon
    return DerivedParams(epsilon_prime, m, rounds, t_max)


def theoretical_budgets(params: DetectionParams) -> tuple[float, int]:
    """Worst-case total evolution time and query count, evaluated verbatim.

    The query-count expression is printed for reference; realized budgets in
    a report always come from m times the number of executed rounds.
    """
    k, degree = params.k, params.degree
    log_term = -math.log(params.delta)
    t_bound = (80 * 9**k) / 3 * ((4 * degree) ** k + 1) * log_term / params.epsilon
    q_bound = math.ceil(
        2560
        * 9 ** (2 * k - 1)
        * (4 * degree + 1) ** 2
        * params.l_bound**2
        * log_term
        / params.epsilon**2
    )
    return t_bound, q_bound


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        logger.warning("ignoring invalid %s=%r", THREADS_ENV_VAR, raw)
        return 1


def _validate_promise(lind: Lindbladian, params: DetectionParams) -> list[str]:
    warnings: list[str] = []
    derived_k, derived_degree = derive_locality_degree(lind.dissipator)
    if not lind.dissipator.is_empty:
        if (params.k, params.degree) != (derived_k, derived_degree):
            raise DomainError(
                f"declared locality/degree ({params.k}, {params.degree}) do not "
                f"match the generator's derived values ({derived_k}, {derived_degree})"
            )
    actual_bound = diamond_upper_bound(lind)
    if params.l_bound < actual_bound - 1e-12:
        warnings.append(
            f"supplied generator bound {params.l_bound:.6g} is below the "
            f"computable bound {actual_bound:.6g}; the promise may not hold"
        )
    return warnings


def run_detection(
    lind: Lindbladian,
    params: DetectionParams,
    max_qubits: int | None = None,
) -> DetectionReport:
    """Run up to R rounds with early stop at the first rejection.

    Rounds draw their randomness from streams derived deterministically from
    (seed, round index), so reports are identical regardless of the thread
    count; with more than one worker, rounds already started may complete,
    but only outcomes consumed in order up to the stopping point are counted.
    """
    check_capacity(lind.n, max_qubits)
    warnings = _validate_promise(lind, params)
    derived = derive_parameters(
        params.epsilon,
        params.delta,
        params.k,
        params.degree,
        params.l_bound,
        params.overrides.t_max_factor,
    )
    m = params.overrides.m if params.overrides.m is not None else derived.m
    rounds_planned = (
        params.overrides.rounds
        if params.overrides.rounds is not None
        else derived.rounds
    )
    if m < 1 or rounds_planned < 1:
        raise DomainError("overrides must keep m >= 1 and rounds >= 1")
    if (params.overrides.m, params.overrides.rounds) != (None, None):
        warnings.append(
            f"overridden constants in effect: m={m}, rounds={rounds_planned}"
        )

    generator = from_lindbladian(lind, max_qubits)

    def one_round(index: int) -> RoundOutcome:
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, index)))
        return run_round(
            lind, derived.t_max, m, params.mode, rng, generator=generator
        )

    consumed: list[RoundOutcome] = []
    rejecting_round: int | None = None
    workers = _thread_count()
    if workers == 1:
        for i in range(rounds_planned):
            outcome = one_round(i)
            consumed.append(outcome)
            if outcome.rejected:
                rejecting_round = i
                break
    else:
        # Chunked execution: rounds within a chunk may run concurrently, but
        # outcomes are consumed strictly in index order.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            start = 0
            while start < rounds_planned and rejecting_round is None:
                stop = min(start + workers, rounds_planned)
                for i, outcome in zip(
                    range(start, stop), pool.map(one_round, range(start, stop))
                ):
                    consumed.append(outcome)
                    if outcome.rejected:
                        rejecting_round = i
                        break
                start = stop

    verdict: Verdict = "REJECT" if rejecting_round is not None else "ACCEPT"
    t_bound, q_bound = theoretical_budgets(params)
    return DetectionReport(
        verdict=verdict,
        epsilon_prime=derived.epsilon_prime,
        m=m,
        rounds_planned=rounds_planned,
        t_max=derived.t_max,
        rounds=tuple(consumed),
        rejecting_round=rejecting_round,
        total_evolution_time=float(sum(r.t_used for r in consumed)),
        query_count=m * len(consumed),
        params=params,
        t_bound=t_bound,
        q_bound=q_bound,
        warnings=tuple(warnings),
    )
