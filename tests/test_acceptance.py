"""Acceptance suite: one test per target guarantee, each printing a PASS or
FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 02 checks Hamiltonian completeness in the form the method states
it. The Pauli twirl removes -i[H, .] entirely, so the ideal twirled
evolution of dissipation-free dynamics is the identity channel and its Bell
identity probability is 1 within 1e-9 at every drawn time (the m -> infinity
limit). At the derived finite slice count m, a rotation superoperator has
trace |Tr V|^2 < d^2, so each round keeps a residual O((||H|| t)^2 / m); the
criterion bounds that residual by half the computable slice-error bound and
checks that it shrinks like 1/m. The detector is randomized and its exact
rejection probability given the drawn times is printed, not asserted. See
README, "Completeness at finite slice count".
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from lindet import checks, instances
from lindet.cli import main
from lindet.detector import (
    DetectionParams,
    Overrides,
    derive_parameters,
    run_detection,
)
from lindet.model import diamond_upper_bound, twirled_generator
from lindet.oracles import twirl_average
from lindet.superop import (
    SuperOperator,
    exp,
    from_diagonal,
    from_lindbladian,
    identity_fraction,
)
from lindet.twirl import (
    trotter_error_bound,
    trotterized_twirled,
    twirl_exact,
)

from helpers import hamiltonian_only, random_hermiticity_preserving_ptm


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


def test_criterion_01_depolarizing_closed_form_curve(tmp_path):
    gamma = 0.25
    out = tmp_path / "curve.csv"
    code = main(
        [
            "curve",
            "--config",
            "configs/depolarizing_quarter.yaml",
            "--t-max",
            "5.0",
            "--points",
            "100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    worst = 0.0
    for line in out.read_text().splitlines()[1:]:
        t, i_exact = (float(v) for v in line.split(",")[:2])
        worst = max(worst, abs(i_exact - (1 + 3 * math.exp(-4 * gamma * t)) / 4))
    ok = worst <= 1e-9
    assert report(1, "depolarizing curve matches closed form", ok, f"max dev {worst:.2e}")


def test_criterion_02_hamiltonian_completeness():
    # (a) the twirled target is the identity channel within 1e-9 at every
    # drawn time; (b) each round's deficit 1 - p_identity at the derived m is
    # within half the slice-error bound; (c) it shrinks like 1/m when m grows.
    failures = []
    worst_ratio = 0.0
    worst_fine_share = 0.0
    reject_probs = []
    for index in range(10):
        rng = np.random.default_rng(np.random.SeedSequence((2024, index)))
        n = int(rng.integers(1, 4))
        ham = instances.random_hamiltonian(n, rng, n_terms=3)
        lind = hamiltonian_only(
            n, [(str(p), c) for p, c in ham.terms]
        )
        params = DetectionParams(
            epsilon=0.5,
            delta=0.25,
            k=1,
            degree=1,
            l_bound=max(diamond_upper_bound(lind), 1e-6),
            mode="averaged",
            seed=index,
        )
        rep = run_detection(lind, params)
        times = [r.t_used for r in rep.rounds]
        deficits = [1 - r.p_identity for r in rep.rounds]
        reject_probs.append(1 - math.prod(r.p_identity for r in rep.rounds))

        target = twirled_generator(lind)
        target_gen = from_diagonal(target)
        ideal_ok = not target.alphas and all(
            identity_fraction(exp(target_gen, t)) >= 1 - 1e-9 for t in times
        )

        # the bound m (tau^2 a + tau^3 b) with tau = t/m, scaled from t_top by
        # (t/t_top)^2, stays an upper bound for every t <= t_top
        t_top = max(times)
        gen = from_lindbladian(lind)
        half_bound = trotter_error_bound(gen, t_top / rep.derived.m, rep.derived.m) / 2
        scaled = [half_bound * (t / t_top) ** 2 for t in times]
        bound_ok = all(d <= b + 1e-12 for d, b in zip(deficits, scaled))
        worst_ratio = max(worst_ratio, *(d / b for d, b in zip(deficits, scaled)))

        fine = run_detection(
            lind,
            replace(
                params,
                overrides=Overrides(m=100 * rep.derived.m, rounds=len(rep.rounds)),
            ),
        )
        fine_share = max(1 - r.p_identity for r in fine.rounds) / max(deficits)
        worst_fine_share = max(worst_fine_share, fine_share)
        same_times = [r.t_used for r in fine.rounds] == times
        converge_ok = same_times and fine_share <= 1 / 50

        if not (ideal_ok and bound_ok and converge_ok):
            failures.append((index, ideal_ok, bound_ok, converge_ok))
    ok = not failures
    assert report(
        2,
        "hamiltonian-only twirled limit exact, finite-m residual bounded and 1/m",
        ok,
        f"worst deficit/half-bound {worst_ratio:.3f}, worst largest-deficit "
        f"ratio 100m/m {worst_fine_share:.4f}, exact P(reject | drawn times) "
        f"{min(reject_probs):.3f}-{max(reject_probs):.3f} over 10 configs",
    ), f"(index, ideal, bound, convergence) failures: {failures}"


def test_criterion_03_statistical_soundness():
    lind = instances.dephasing(0.3536)
    l_bound = diamond_upper_bound(lind)
    counts = {}
    for mode in ("sampled_pauli", "averaged"):
        rejections = 0
        for seed in range(20):
            params = DetectionParams(
                epsilon=0.5,
                delta=0.1,
                k=1,
                degree=1,
                l_bound=l_bound,
                mode=mode,
                seed=seed,
            )
            rejections += run_detection(lind, params).verdict == "REJECT"
        counts[mode] = rejections
    ok = all(count >= 18 for count in counts.values())
    assert report(3, "dephasing rejected across seeds", ok, f"rejections {counts}")


def test_criterion_04_dissipator_norm_versus_twirl():
    rng = np.random.default_rng(404)
    result = checks.check_norm_comparison(100, rng)
    ok = result.passed and result.instances == 100
    assert report(4, "norm comparison on 100 random jump sets", ok, result.summary())


def test_criterion_05_twirl_oracle_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for index in range(20):
        n = 1 + index % 2
        s = SuperOperator(n, random_hermiticity_preserving_ptm(n, rng))
        dev = float(np.abs(twirl_average(s).mat - twirl_exact(s).mat).max())
        worst = max(worst, dev)
    ok = worst <= 1e-10
    assert report(5, "brute-force twirl equals diagonal projection", ok, f"max dev {worst:.2e}")


def test_criterion_06_trace_exponential_eigenvalue_identity():
    rng = np.random.default_rng(606)
    # coverage sanity: random generators with coherent parts are non-normal
    lind = instances.random_lindbladian(2, np.random.default_rng(1))
    mat = from_lindbladian(lind).mat
    assert np.abs(mat @ mat.conj().T - mat.conj().T @ mat).max() > 1e-6
    result = checks.check_jordan_trace(50, 3, rng)
    ok = result.passed and result.instances == 50
    assert report(6, "trace of exponential equals eigenvalue sum", ok, result.summary())


def test_criterion_07_decay_time_sampling_frequency():
    lind = instances.dephasing(1.0)
    gen = from_lindbladian(lind)
    rng = np.random.default_rng(707)
    samples = 2000
    times = rng.uniform(0.0, 2.0, size=samples)
    hits = sum(
        1 for t in times if identity_fraction(exp(gen, float(t))) <= 2.0 / 3.0
    )
    freq = hits / samples
    expected = 1 - math.log(3) / 4
    sigma = math.sqrt(expected * (1 - expected) / samples)
    ok = abs(freq - expected) <= 3 * sigma and freq >= 0.4
    assert report(
        7,
        "dephasing detection frequency matches closed form",
        ok,
        f"freq {freq:.4f}, expected {expected:.4f} +- {3 * sigma:.4f}",
    )


def test_criterion_08_diagonal_decay_fraction_bound():
    rng = np.random.default_rng(808)
    result = checks.check_pauli_diag_bound(200, 3, 2, rng)
    ok = result.passed and result.instances == 200
    assert report(8, "decay-fraction bound on 200 diagonal dissipators", ok, result.summary())


def test_criterion_09_trotter_bell_consistency():
    rng = np.random.default_rng(909)
    worst_ratio = 0.0
    violations = 0
    for index in range(30):
        n = 1 + index % 2
        lind = instances.random_lindbladian(n, rng, k_max=min(2, n))
        gen = from_lindbladian(lind)
        target_gen = from_diagonal(twirled_generator(lind))
        for t in (0.01, 0.1, 0.5):
            for m in (1, 4, 16):
                composed = trotterized_twirled(gen, t / m, m)
                gap = abs(
                    identity_fraction(composed)
                    - identity_fraction(exp(target_gen, t))
                )
                budget = trotter_error_bound(gen, t / m, m) / 2
                if gap > budget + 1e-9:
                    violations += 1
                if budget > 0:
                    worst_ratio = max(worst_ratio, gap / budget)
    ok = violations == 0
    assert report(
        9,
        "identity-probability gap within half the slice-error bound",
        ok,
        f"worst gap/budget ratio {worst_ratio:.3e} over 270 settings",
    )


def test_criterion_10_parameter_arithmetic():
    derived = derive_parameters(DetectionParams(0.5, math.exp(-1), 1, 1, 1.0))
    t_bound = derived.t_bound
    exact = (
        derived.epsilon_prime == 0.05
        and derived.m == 19200
        and derived.rounds == 120
        and derived.t_max == 20.0
        and t_bound == 2400.0
    )
    halved = derive_parameters(DetectionParams(0.25, math.exp(-1), 1, 1, 1.0))
    scaling = halved.t_max == 2 * derived.t_max and halved.t_bound == 2 * t_bound
    ok = exact and scaling
    assert report(
        10,
        "derived constants exact and inverse-threshold scaling",
        ok,
        f"(eps', m, R, t_max) = ({derived.epsilon_prime}, {derived.m}, "
        f"{derived.rounds}, {derived.t_max}), T = {t_bound}",
    )
