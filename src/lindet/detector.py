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

import math
from dataclasses import asdict, dataclass, field
from typing import Literal

import numpy as np

from .bell import RoundMode, RoundOutcome, run_round
from .errors import DomainError
from .model import Lindbladian, derive_locality_degree, diamond_upper_bound
from .paulis import check_capacity, split_letters
from .superop import from_lindbladian

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
    mode: RoundMode = "sampled_pauli"
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
        overridden = (self.overrides.m, self.overrides.rounds)
        if any(v is not None and v < 1 for v in overridden):
            raise DomainError("overrides must keep m >= 1 and rounds >= 1")


@dataclass(frozen=True)
class DerivedParams:
    """The constants in effect (overrides applied) and the worst-case budgets."""

    epsilon_prime: float
    m: int
    rounds: int
    t_max: float
    t_bound: float
    q_bound: int


@dataclass(frozen=True)
class Promise:
    """The promise (k, Delta, L) resolved against a generator; ``warnings``
    notes a supplied L below the computable bound."""

    k: int
    degree: int
    l_bound: float
    warnings: tuple[str, ...] = ()


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

    def to_dict(self, frames: bool = True) -> dict:
        """JSON-ready report; ``frames=False`` skips rendering the Pauli frames."""
        rounds = [
            {"rejected": r.rejected, "t_used": r.t_used, "p_identity": r.p_identity}
            for r in self.rounds
        ]
        if frames:
            for row, r in zip(rounds, self.rounds):
                row["pauli_frames"] = split_letters(r.pauli_frames, self.m)
        return {
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
            "rounds": rounds,
        }


def resolve_promise(
    lind: Lindbladian,
    k: int | None = None,
    degree: int | None = None,
    l_bound: float | None = None,
) -> Promise:
    """Resolve the promise (k, Delta, L) of a detection run against ``lind``.

    An omitted k or Delta takes the generator's derived value (1 when it has
    no jumps); a given pair must equal the derived one unless there are no
    jumps. An omitted L takes the computable diamond-norm bound (1.0 for the
    zero generator, for which any positive bound holds); a supplied L is kept
    as given and flagged when below that bound.
    """
    derived_k, derived_degree = derive_locality_degree(lind.dissipator)
    k = (derived_k or 1) if k is None else k
    degree = (derived_degree or 1) if degree is None else degree
    if not lind.dissipator.is_empty and (k, degree) != (derived_k, derived_degree):
        raise DomainError(
            f"declared locality/degree ({k}, {degree}) do not "
            f"match the generator's derived values ({derived_k}, {derived_degree})"
        )
    actual_bound = diamond_upper_bound(lind)
    if l_bound is None:
        return Promise(k, degree, actual_bound if actual_bound > 0 else 1.0)
    warnings: tuple[str, ...] = ()
    if l_bound < actual_bound - 1e-12:
        warnings = (
            f"supplied generator bound {l_bound:.6g} is below the "
            f"computable bound {actual_bound:.6g}; the promise may not hold",
        )
    return Promise(k, degree, l_bound, warnings)


def derive_parameters(params: DetectionParams) -> DerivedParams:
    """Evaluate the constants of the procedure for a given promise, with the
    overrides applied, and the worst-case budgets T and Q.

    T and Q are evaluated verbatim and printed for reference; realized
    budgets in a report always come from m times the number of executed
    rounds.
    """
    epsilon, k, degree = params.epsilon, params.k, params.degree
    sparsity = (4 * degree) ** k + 1
    log_term = -math.log(params.delta)
    m = math.ceil(192 * 9 ** (k - 1) * sparsity**2 * params.l_bound**2 / epsilon**2)
    rounds = max(1, math.ceil((40 * 9**k) / 3 * log_term))
    return DerivedParams(
        epsilon_prime=epsilon / (2 * sparsity),
        m=m if params.overrides.m is None else params.overrides.m,
        rounds=rounds if params.overrides.rounds is None else params.overrides.rounds,
        t_max=params.overrides.t_max_factor * (2 * sparsity) / epsilon,
        t_bound=(80 * 9**k) / 3 * sparsity * log_term / epsilon,
        q_bound=math.ceil(
            2560
            * 9 ** (2 * k - 1)
            * (4 * degree + 1) ** 2
            * params.l_bound**2
            * log_term
            / epsilon**2
        ),
    )


def run_detection(
    lind: Lindbladian,
    params: DetectionParams,
    max_qubits: int | None = None,
) -> DetectionReport:
    """Run up to R rounds with early stop at the first rejection.

    Round i draws from the stream (seed, i), so a report replays exactly from
    its params.
    """
    check_capacity(lind.n, max_qubits)
    promise = resolve_promise(lind, params.k, params.degree, params.l_bound)
    warnings = list(promise.warnings)
    derived = derive_parameters(params)
    if (params.overrides.m, params.overrides.rounds) != (None, None):
        warnings.append(
            f"overridden constants in effect: m={derived.m}, rounds={derived.rounds}"
        )

    generator = from_lindbladian(lind, max_qubits)
    consumed: list[RoundOutcome] = []
    rejecting_round: int | None = None
    for index in range(derived.rounds):
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, index)))
        outcome = run_round(generator, derived.t_max, derived.m, params.mode, rng)
        consumed.append(outcome)
        if outcome.rejected:
            rejecting_round = index
            break

    return DetectionReport(
        verdict="REJECT" if rejecting_round is not None else "ACCEPT",
        epsilon_prime=derived.epsilon_prime,
        m=derived.m,
        rounds_planned=derived.rounds,
        t_max=derived.t_max,
        rounds=tuple(consumed),
        rejecting_round=rejecting_round,
        total_evolution_time=float(sum(r.t_used for r in consumed)),
        query_count=derived.m * len(consumed),
        params=params,
        t_bound=derived.t_bound,
        q_bound=derived.q_bound,
        warnings=tuple(warnings),
    )
