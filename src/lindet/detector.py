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
from dataclasses import asdict, dataclass, field, replace
from typing import Literal

import numpy as np

from .bell import RoundMode, RoundOutcome, run_round
from .errors import DomainError
from .model import Lindbladian, derive_locality_degree, diamond_upper_bound
from .paulis import split_letters
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
    """The inputs of a detection run.

    ``k``, ``degree`` and ``l_bound`` are the promise (locality, degree and a
    diamond-norm bound on the generator). None means "derive from the
    generator": :func:`run_detection` resolves them with
    :func:`resolve_promise` and its report records the resolved values.
    """

    epsilon: float
    delta: float
    k: int | None = None
    degree: int | None = None
    l_bound: float | None = None
    mode: RoundMode = "sampled_pauli"
    seed: int = 0
    overrides: Overrides = field(default_factory=Overrides)

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise DomainError(
                f"epsilon must be positive and finite, got {self.epsilon}"
            )
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if self.k is not None and self.k < 1:
            raise DomainError(f"locality must satisfy k >= 1, got {self.k}")
        if self.degree is not None and self.degree < 1:
            raise DomainError(f"degree must satisfy Delta >= 1, got {self.degree}")
        if self.l_bound is not None and not 0 < self.l_bound < math.inf:
            raise DomainError(
                f"generator bound must be positive and finite, got {self.l_bound}"
            )
        if not 0 < self.overrides.t_max_factor < math.inf:
            raise DomainError("t_max_factor must be positive and finite")
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
class DetectionReport:
    verdict: Verdict
    derived: DerivedParams
    rounds: tuple[RoundOutcome, ...]
    rejecting_round: int | None
    total_evolution_time: float
    query_count: int
    params: DetectionParams
    warnings: tuple[str, ...] = ()

    def to_dict(self, frames: bool = True) -> dict:
        """JSON-ready report; ``frames=False`` skips rendering the Pauli frames."""
        rounds = [
            {"rejected": r.rejected, "t_used": r.t_used, "p_identity": r.p_identity}
            for r in self.rounds
        ]
        if frames:
            for row, r in zip(rounds, self.rounds):
                row["pauli_frames"] = split_letters(r.pauli_frames, self.derived.m)
        return {
            "verdict": self.verdict,
            "epsilon_prime": self.derived.epsilon_prime,
            "m": self.derived.m,
            "rounds_planned": self.derived.rounds,
            "t_max": self.derived.t_max,
            "rejecting_round": self.rejecting_round,
            "total_evolution_time": self.total_evolution_time,
            "query_count": self.query_count,
            "t_bound": self.derived.t_bound,
            "q_bound": self.derived.q_bound,
            "warnings": list(self.warnings),
            "params": asdict(self.params),
            "rounds": rounds,
        }


def resolve_promise(
    lind: Lindbladian, params: DetectionParams
) -> tuple[DetectionParams, tuple[str, ...]]:
    """``params`` with the promise (k, Delta, L) resolved against ``lind``,
    and the warnings the resolution raised.

    An unset k or Delta takes the generator's derived value (1 when it has
    no jumps); a given pair must equal the derived one unless there are no
    jumps. An unset L takes the computable diamond-norm bound (1.0 for the
    zero generator, for which any positive bound holds); a given L is kept
    and flagged when below that bound.
    """
    derived_k, derived_degree = derive_locality_degree(lind.dissipator)
    k = (derived_k or 1) if params.k is None else params.k
    degree = (derived_degree or 1) if params.degree is None else params.degree
    if not lind.dissipator.is_empty and (k, degree) != (derived_k, derived_degree):
        raise DomainError(
            f"declared locality/degree ({k}, {degree}) do not "
            f"match the generator's derived values ({derived_k}, {derived_degree})"
        )
    actual_bound = diamond_upper_bound(lind)
    l_bound, warnings = params.l_bound, ()
    if l_bound is None:
        l_bound = actual_bound if actual_bound > 0 else 1.0
    elif l_bound < actual_bound - 1e-12:
        warnings = (
            f"supplied generator bound {l_bound:.6g} is below the "
            f"computable bound {actual_bound:.6g}; the promise may not hold",
        )
    return replace(params, k=k, degree=degree, l_bound=l_bound), warnings


def derive_parameters(params: DetectionParams) -> DerivedParams:
    """Evaluate the constants of the procedure for a resolved promise, with
    the overrides applied, and the worst-case budgets T and Q.

    T and Q are evaluated verbatim and printed for reference; realized
    budgets in a report always come from m times the number of executed
    rounds. Constants that overflow raise :class:`DomainError`.
    """
    epsilon, k, degree = params.epsilon, params.k, params.degree
    l_bound, overrides = params.l_bound, params.overrides
    if None in (k, degree, l_bound):
        raise DomainError("the promise (k, degree, l_bound) is not resolved")
    try:
        sparsity = (4 * degree) ** k + 1
        log_term = -math.log(params.delta)
        m = math.ceil(192 * 9 ** (k - 1) * sparsity**2 * l_bound**2 / epsilon**2)
        rounds = max(1, math.ceil((40 * 9**k) / 3 * log_term))
        derived = DerivedParams(
            epsilon_prime=epsilon / (2 * sparsity),
            m=m if overrides.m is None else overrides.m,
            rounds=rounds if overrides.rounds is None else overrides.rounds,
            t_max=overrides.t_max_factor * (2 * sparsity) / epsilon,
            t_bound=(80 * 9**k) / 3 * sparsity * log_term / epsilon,
            q_bound=math.ceil(
                2560
                * 9 ** (2 * k - 1)
                * (4 * degree + 1) ** 2
                * l_bound**2
                * log_term
                / epsilon**2
            ),
        )
    except (OverflowError, ZeroDivisionError):
        derived = None
    if derived is None or not math.isfinite(derived.t_max + derived.t_bound):
        raise DomainError(
            f"the derived constants overflow at epsilon={epsilon:g}, "
            f"delta={params.delta:g}, k={k}, degree={degree}, l_bound={l_bound:g}, "
            f"t_max_factor={overrides.t_max_factor:g}"
        )
    return derived


def run_detection(
    lind: Lindbladian,
    params: DetectionParams,
    max_qubits: int | None = None,
) -> DetectionReport:
    """Run up to R rounds with early stop at the first rejection.

    This is where a run's promise is resolved (:func:`resolve_promise`) and
    its dense capacity ``max_qubits`` (default 4) checked, before any round.
    The report records the resolved params, and round i draws from the
    stream (seed, i), so a report replays exactly from its params.
    """
    generator = from_lindbladian(lind, max_qubits)
    params, warnings = resolve_promise(lind, params)
    derived = derive_parameters(params)
    if (params.overrides.m, params.overrides.rounds) != (None, None):
        warnings += (
            f"overridden constants in effect: m={derived.m}, rounds={derived.rounds}",
        )

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
        derived=derived,
        rounds=tuple(consumed),
        rejecting_round=rejecting_round,
        total_evolution_time=float(sum(r.t_used for r in consumed)),
        query_count=derived.m * len(consumed),
        params=params,
        warnings=warnings,
    )
