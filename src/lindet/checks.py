"""Brute-force verification suite.

Every structural inequality the detection procedure relies on is turned into
a runnable check over random instances at small qubit counts, with failures
reported instance by instance. All inequality checks use one-sided slacks
(margin >= -tol) so numerical noise cannot manufacture violations, and every
trial records the seed that regenerates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from . import instances
from .model import (
    DiagonalDissipator,
    Lindbladian,
    alpha_dense,
    alpha_matrix,
    derive_locality_degree,
    diagonal_eigenvalue,
    diagonal_frobenius,
    twirled_generator,
)
from .paulis import enumerate_all
from .superop import (
    diamond_bounds,
    eigenvalues,
    exp,
    frobenius_normalized,
    from_diagonal,
    from_lindbladian,
    identity_fraction,
    lambda_fraction,
)
from .oracles import twirl_average
from .twirl import trotter_error_bound, trotterized_twirled

JORDAN_TOL = 1e-8  # scaled by d^2
EQUALITY_TOL = 1e-10
INEQUALITY_TOL = 1e-9
ONE_SIDED_TOL = 1e-12


@dataclass(frozen=True)
class Failure:
    seed: int
    lhs: float
    rhs: float
    margin: float
    label: str = ""


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: list[Failure] = field(default_factory=list)
    skipped: bool = False
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.skipped:
            return f"{self.name}: SKIPPED ({self.note})"
        status = "PASS" if self.passed else "FAIL"
        worst = min((f.margin for f in self.failures), default=float("nan"))
        tail = "" if self.passed else f" (worst margin {worst:.3e})"
        return f"{self.name}: {status} [{self.instances} instances]{tail}"


def _instance_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


def _record(
    result: CheckResult, seed: int, lhs: float, rhs: float, tol: float, label: str = ""
) -> None:
    margin = rhs - lhs
    if margin < -tol:
        result.failures.append(Failure(seed, lhs, rhs, margin, label))


def check_jordan_trace(
    trials: int, n_max: int, rng: np.random.Generator
) -> CheckResult:
    """Tr(e^(tS)) equals the sum of e^(t eta) over eigenvalues with algebraic
    multiplicity, including non-diagonalizable generators."""
    result = CheckResult("jordan_trace", trials)
    for seed in _instance_seeds(rng, trials):
        sub = np.random.default_rng(seed)
        n = int(sub.integers(1, n_max + 1))
        lind = instances.random_lindbladian(n, sub, k_max=min(2, n))
        gen = from_lindbladian(lind)
        etas = eigenvalues(gen)
        for t in (0.1, 1.0, 5.0):
            lhs = complex(np.trace(exp(gen, t).mat))
            rhs = complex(np.exp(t * etas).sum())
            dev = abs(lhs - rhs)
            _record(result, seed, dev, JORDAN_TOL * gen.dim, 0.0, f"t={t}")
    return result


def check_decay_primitive(
    lind: Lindbladian, epsilon: float, t_samples: int, rng: np.random.Generator
) -> CheckResult:
    """With t ~ U[0, 2/eps] and a positive decaying-mode fraction, the exact
    Bell identity probability drops below 1 - 2*Lambda/3 with frequency > 2/5."""
    result = CheckResult("decay_primitive", t_samples)
    gen = from_lindbladian(lind)
    decay_fraction = lambda_fraction(gen, epsilon)
    if decay_fraction == 0.0:
        result.skipped = True
        result.note = "no mode decays at the requested rate"
        return result
    threshold = 1.0 - 2.0 * decay_fraction / 3.0
    seed = int(rng.integers(0, 2**63 - 1))
    sub = np.random.default_rng(seed)
    times = sub.uniform(0.0, 2.0 / epsilon, size=t_samples)
    hits = sum(
        1 for t in times if identity_fraction(exp(gen, float(t))) <= threshold
    )
    freq = hits / t_samples
    bound = 2.0 / 5.0 - 3.0 * sqrt(0.24 / t_samples)
    _record(result, seed, bound, freq, 0.0, f"Lambda={decay_fraction}")
    return result


def check_pauli_diag_bound(
    trials: int, n_max: int, k_max: int, rng: np.random.Generator
) -> CheckResult:
    """Decay-fraction lower bound for Pauli-diagonal dissipators: for weights
    up to k and r in {0.25, 0.5, 0.75},
    Lambda(D, r ||D||_F) >= (1 - r^2)^2 9^(-k), by full 4^n enumeration."""
    result = CheckResult("pauli_diag_bound", trials)
    for seed in _instance_seeds(rng, trials):
        sub = np.random.default_rng(seed)
        n = int(sub.integers(1, n_max + 1))
        diss = instances.random_diagonal(n, sub, max_weight=min(k_max, n))
        norm = diagonal_frobenius(diss)
        if norm == 0.0:
            continue
        k = max(p.weight for p in diss.alphas)
        rates = [-diagonal_eigenvalue(diss, q) for q in enumerate_all(n)]
        for r in (0.25, 0.5, 0.75):
            thr = r * norm
            lam = sum(1 for rate in rates if rate >= thr) / 4**n
            bound = (1 - r**2) ** 2 * 9.0 ** (-k)
            _record(result, seed, bound, lam, ONE_SIDED_TOL, f"r={r}")
    return result


def check_twirl_structure(trials: int, rng: np.random.Generator) -> CheckResult:
    """Brute-force channel twirl of a generator equals the closed-form
    diagonal dissipator with rates sum_a |gamma_(a,P)|^2."""
    result = CheckResult("twirl_structure", trials)
    for seed in _instance_seeds(rng, trials):
        sub = np.random.default_rng(seed)
        n = int(sub.integers(1, 3))
        lind = instances.random_lindbladian(n, sub, k_max=min(2, n))
        averaged = twirl_average(from_lindbladian(lind))
        closed = from_diagonal(twirled_generator(lind))
        dev = float(np.abs(averaged.mat - closed.mat).max())
        _record(result, seed, dev, EQUALITY_TOL, 0.0)
    return result


def _synthetic_sparse_gram(
    rng: np.random.Generator, size: int = 8, n_vectors: int = 4, support: int = 3
) -> np.ndarray:
    mat = np.zeros((size, size), dtype=complex)
    for _ in range(n_vectors):
        idx = rng.choice(size, size=support, replace=False)
        v = np.zeros(size, dtype=complex)
        v[idx] = rng.normal(size=support) + 1j * rng.normal(size=support)
        mat += np.outer(v, v.conj())
    return mat


def check_alpha_structure(trials: int, rng: np.random.Generator) -> CheckResult:
    """Structure of the jump coefficient matrix: positive semidefinite, row
    sparsity at most (4 Delta)^k, total squared mass controlled by the
    diagonal, and the abstract sparse-PSD inequality on synthetic Gram
    matrices."""
    result = CheckResult("alpha_structure", trials)
    for seed in _instance_seeds(rng, trials):
        sub = np.random.default_rng(seed)
        n = int(sub.integers(1, 4))
        js = instances.random_local_jumps(n, sub, k_max=min(2, n), degree_max=2)
        k, degree = derive_locality_degree(js)
        sparsity = (4 * degree) ** k

        entries = alpha_matrix(js)
        _, dense = alpha_dense(js)
        scale = max(1.0, float(np.abs(dense).max()))
        min_eig = float(np.linalg.eigvalsh(dense).min())
        _record(result, seed, -min_eig, EQUALITY_TOL * scale, 0.0, "psd")

        rows: dict = {}
        for (p, q), v in entries.items():
            if v != 0:
                rows.setdefault(p, set()).add(q)
        max_row = max((len(qs) for qs in rows.values()), default=0)
        _record(result, seed, float(max_row), float(sparsity), 0.0, "row sparsity")

        total = sum(abs(v) ** 2 for v in entries.values())
        diag = sum(abs(v) ** 2 for (p, q), v in entries.items() if p == q)
        _record(
            result,
            seed,
            total,
            (sparsity + 1) * diag,
            INEQUALITY_TOL * max(1.0, diag),
            "mass vs diagonal",
        )

        gram = _synthetic_sparse_gram(sub)
        off_counts = [
            int(np.count_nonzero(np.abs(gram[i]) > 0)) - int(abs(gram[i, i]) > 0)
            for i in range(gram.shape[0])
        ]
        s_row = max(off_counts)
        lhs = float((np.abs(gram) ** 2).sum())
        rhs = (s_row + 1) * float((np.abs(np.diag(gram)) ** 2).sum())
        _record(result, seed, lhs, rhs, INEQUALITY_TOL * max(1.0, rhs), "sparse gram")
    return result


def check_norm_comparison(trials: int, rng: np.random.Generator) -> CheckResult:
    """Dense-norm comparisons between a local dissipator and its twirl:
    ||D||_F <= 2((4 Delta)^k + 1) ||twirl(D)||_F, and the twirl norm dominates
    the non-identity diagonal mass of the coefficient matrix."""
    result = CheckResult("norm_comparison", trials)
    for seed in _instance_seeds(rng, trials):
        sub = np.random.default_rng(seed)
        n = int(sub.integers(1, 4))
        lind = instances.random_lindbladian(
            n, sub, k_max=min(2, n), degree_max=2, with_hamiltonian=False
        )
        k, degree = derive_locality_degree(lind.dissipator)
        dense_norm = frobenius_normalized(from_lindbladian(lind))
        twirled = twirled_generator(lind)
        twirled_norm = frobenius_normalized(from_diagonal(twirled))
        factor = 2.0 * ((4 * degree) ** k + 1)
        _record(
            result,
            seed,
            dense_norm,
            factor * twirled_norm,
            INEQUALITY_TOL * max(1.0, dense_norm),
            "dissipator vs twirl",
        )
        diag_mass = sum(
            abs(v) ** 2 for (p, q), v in alpha_matrix(lind.dissipator).items() if p == q
        )
        _record(
            result,
            seed,
            diag_mass,
            twirled_norm**2,
            INEQUALITY_TOL * max(1.0, diag_mass),
            "diagonal mass vs twirl norm",
        )
    return result


def check_trotter_bounds(trials: int, rng: np.random.Generator) -> CheckResult:
    """The composed twirled slices stay within the computable error bound of
    the twirled-generator evolution, in diamond-norm bracket and in Bell
    identity probability."""
    result = CheckResult("trotter_bounds", trials)
    for seed in _instance_seeds(rng, trials):
        sub = np.random.default_rng(seed)
        n = int(sub.integers(1, 3))
        lind = instances.random_lindbladian(n, sub, k_max=min(2, n))
        gen = from_lindbladian(lind)
        target_gen = from_diagonal(twirled_generator(lind))
        for t in (0.01, 0.1, 0.5):
            for m in (1, 4, 16):
                tau = t / m
                composed = trotterized_twirled(gen, tau, m)
                target = exp(target_gen, t)
                bound = trotter_error_bound(gen, tau, m)
                dn_lower = diamond_bounds(composed - target)[0]
                _record(
                    result,
                    seed,
                    dn_lower,
                    bound,
                    INEQUALITY_TOL,
                    f"diamond t={t} m={m}",
                )
                di = abs(identity_fraction(composed) - identity_fraction(target))
                _record(
                    result, seed, di, bound / 2.0, INEQUALITY_TOL, f"bell t={t} m={m}"
                )
    return result


# Canonical suite: (name, builder). Builders receive (trials, rng); each check
# gets its own stream derived from (seed, position) so single-suite runs
# reproduce the corresponding full-suite result. The depolarizing decay rate
# is chosen so the decaying modes sit strictly inside the threshold.
SUITE: list[tuple[str, object]] = [
    ("jordan_trace", lambda trials, rng: check_jordan_trace(trials, 3, rng)),
    (
        "decay_primitive_dephasing",
        lambda trials, rng: check_decay_primitive(
            instances.dephasing(1.0), 1.0, max(2000, trials), rng
        ),
    ),
    (
        "decay_primitive_depolarizing",
        lambda trials, rng: check_decay_primitive(
            instances.depolarizing(0.26), 1.0, max(2000, trials), rng
        ),
    ),
    (
        "pauli_diag_bound",
        lambda trials, rng: check_pauli_diag_bound(max(200, trials), 3, 2, rng),
    ),
    ("twirl_structure", check_twirl_structure),
    ("alpha_structure", check_alpha_structure),
    (
        "norm_comparison",
        lambda trials, rng: check_norm_comparison(max(100, trials), rng),
    ),
    (
        "trotter_bounds",
        lambda trials, rng: check_trotter_bounds(max(10, trials // 3), rng),
    ),
]

SUITE_NAMES = [name for name, _ in SUITE]


def run_suite(suite: str, trials: int, seed: int) -> list[CheckResult]:
    """Run one named check (or "all") with reproducible per-check streams."""
    results = []
    for position, (name, builder) in enumerate(SUITE):
        if suite != "all" and suite != name:
            continue
        rng = np.random.default_rng(np.random.SeedSequence((seed, position)))
        result = builder(trials, rng)
        result.name = name
        results.append(result)
    if not results:
        raise ValueError(f"unknown check suite {suite!r}; known: all, "
                         + ", ".join(SUITE_NAMES))
    return results
