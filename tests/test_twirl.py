import numpy as np
import pytest

from lindet import instances
from lindet.errors import CapacityError, DomainError
from lindet.model import DiagonalDissipator, twirled_generator
from lindet.oracles import twirl_average
from lindet.paulis import PauliString
from lindet.superop import (
    SuperOperator,
    diamond_bounds,
    exp,
    frobenius_normalized,
    from_diagonal,
    from_lindbladian,
    identity_fraction,
    choi,
)
from lindet.twirl import (
    trotter_error_bound,
    trotterized_twirled,
    twirl_exact,
    twirled_step,
)

from helpers import (
    hamiltonian_only,
    identity_superop,
    is_trace_preserving,
    random_hermiticity_preserving_ptm,
)


def P(text):
    return PauliString.from_text(text)


class TestTwirlProjection:
    def test_diagonal_fixed_point(self):
        s = from_diagonal(DiagonalDissipator(1, {P("Z"): 1.0}))
        assert np.array_equal(twirl_exact(s).mat, s.mat)

    def test_kills_hamiltonian_generator(self):
        gen = from_lindbladian(hamiltonian_only(1, [("Z", 1.0)]))
        assert np.abs(twirl_exact(gen).mat).max() < 1e-12

    def test_idempotent(self, rng):
        s = SuperOperator(2, random_hermiticity_preserving_ptm(2, rng))
        once = twirl_exact(s)
        assert np.array_equal(twirl_exact(once).mat, once.mat)

    def test_preserves_identity_fraction_exactly(self, rng):
        s = SuperOperator(1, random_hermiticity_preserving_ptm(1, rng))
        assert identity_fraction(twirl_exact(s)) == identity_fraction(s)


class TestTwirlAverage:
    def test_identity(self):
        s = identity_superop(2)
        assert np.allclose(twirl_average(s).mat, s.mat, atol=1e-14)

    def test_matches_projection(self, rng):
        for n in (1, 2):
            for _ in range(5):
                s = SuperOperator(n, random_hermiticity_preserving_ptm(n, rng))
                assert (
                    np.abs(twirl_average(s).mat - twirl_exact(s).mat).max() < 1e-10
                )

    def test_matches_twirled_generator(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 3))
            lind = instances.random_lindbladian(n, rng, k_max=min(2, n))
            averaged = twirl_average(from_lindbladian(lind))
            closed = from_diagonal(twirled_generator(lind))
            assert np.abs(averaged.mat - closed.mat).max() < 1e-10

    def test_capacity(self, rng):
        with pytest.raises(CapacityError):
            twirl_average(identity_superop(4))


class TestTwirledStep:
    def test_zero_time(self, rng):
        gen = from_lindbladian(instances.random_lindbladian(1, rng))
        assert np.allclose(twirled_step(gen, 0.0).mat, np.eye(4))

    def test_hamiltonian_step_closed_form(self):
        # the twirl of a Z-rotation keeps diagonal (1, cos, cos, 1), so the
        # identity probability is (2 + 2cos(2 w tau)) / 4
        omega, tau = 0.8, 0.37
        gen = from_lindbladian(hamiltonian_only(1, [("Z", omega)]))
        step = twirled_step(gen, tau)
        assert identity_fraction(step) == pytest.approx(
            (2 + 2 * np.cos(2 * omega * tau)) / 4, abs=1e-12
        )

    def test_diagonal_dynamics_unchanged(self):
        gen = from_lindbladian(instances.dephasing(0.9))
        tau = 0.4
        assert np.abs(twirled_step(gen, tau).mat - exp(gen, tau).mat).max() < 1e-10

    def test_step_is_cptp(self, rng):
        gen = from_lindbladian(instances.random_lindbladian(2, rng))
        step = twirled_step(gen, 0.3)
        assert is_trace_preserving(step)
        assert np.linalg.eigvalsh(choi(step)).min() >= -1e-10

    def test_negative_time(self, rng):
        with pytest.raises(DomainError):
            twirled_step(from_lindbladian(instances.dephasing(1.0)), -0.5)


class TestTrotterizedTwirled:
    def test_single_slice(self, rng):
        gen = from_lindbladian(instances.random_lindbladian(1, rng))
        tau = 0.2
        assert np.array_equal(
            trotterized_twirled(gen, tau, 1).mat, twirled_step(gen, tau).mat
        )

    def test_hamiltonian_closed_form(self):
        omega, t, m = 0.8, 3.0, 16
        gen = from_lindbladian(hamiltonian_only(1, [("Z", omega)]))
        composed = trotterized_twirled(gen, t / m, m)
        assert identity_fraction(composed) == pytest.approx(
            (2 + 2 * np.cos(2 * omega * t / m) ** m) / 4, abs=1e-12
        )

    def test_deviation_shrinks_with_slice_count(self, rng):
        lind = instances.random_lindbladian(2, rng)
        gen = from_lindbladian(lind)
        t = 0.5
        target = exp(from_diagonal(twirled_generator(lind)), t)
        devs = [
            frobenius_normalized(trotterized_twirled(gen, t / m, m) - target)
            for m in (1, 4, 16, 64)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_output_cptp(self, rng):
        gen = from_lindbladian(instances.random_lindbladian(2, rng))
        for t, m in ((0.1, 4), (0.5, 16)):
            composed = trotterized_twirled(gen, t / m, m)
            assert is_trace_preserving(composed)
            assert np.linalg.eigvalsh(choi(composed)).min() >= -1e-10

    def test_bad_slice_count(self, rng):
        with pytest.raises(DomainError):
            trotterized_twirled(from_lindbladian(instances.dephasing(1.0)), 0.1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_matrix_power_of_twirled_slice(self, n, rng):
        gen = from_lindbladian(instances.random_lindbladian(n, rng))
        t = 0.7
        for m in (1, 2, 16, 116948, 10**8):
            got = trotterized_twirled(gen, t / m, m).mat
            want = np.linalg.matrix_power(twirled_step(gen, t / m).mat, m)
            # entrywise rounding allowance 8u(m + d^2), u = 2^-53
            tol = 8 * 2**-53 * (m + gen.dim)
            assert np.abs(got - want).max() <= tol, (n, m)

    def test_composes_a_non_diagonal_slice_in_full(self, monkeypatch, rng):
        gen = from_lindbladian(instances.random_lindbladian(2, rng))
        monkeypatch.setattr("lindet.twirl.twirled_step", exp)
        t = 0.7
        for m in (1, 2, 16):
            full = exp(gen, t / m).mat
            assert np.abs(full - np.diag(np.diag(full))).max() > 0
            assert np.array_equal(
                trotterized_twirled(gen, t / m, m).mat, np.linalg.matrix_power(full, m)
            )


class TestTrotterErrorBound:
    def test_zero_time(self, rng):
        gen = from_lindbladian(instances.random_lindbladian(1, rng))
        assert trotter_error_bound(gen, 0.0, 4) == 0.0

    def test_hamiltonian_defect_positive(self):
        # the twirl of the squared rotation generator is a nonzero diagonal
        # while the squared twirled generator vanishes, so the bound is > 0
        gen = from_lindbladian(hamiltonian_only(1, [("Z", 1.0)]))
        t_of_sq = twirl_exact(gen @ gen)
        assert np.abs(twirl_exact(gen).mat).max() < 1e-12
        assert np.abs(t_of_sq.mat).max() > 1.0
        assert trotter_error_bound(gen, 0.1, 1) > 0.0

    def test_diagonal_generator_commutes(self):
        # for diagonal dynamics the quadratic defect vanishes exactly and the
        # bound reduces to the cubic tail
        tau, m = 0.2, 8
        gen = from_lindbladian(instances.dephasing(0.7))
        defect = twirl_exact(gen @ gen) - (twirl_exact(gen) @ twirl_exact(gen))
        assert np.abs(defect.mat).max() < 1e-12
        ub = diamond_bounds(gen)[1]
        assert trotter_error_bound(gen, tau, m) == pytest.approx(
            m * tau**3 / 3 * ub**3, rel=1e-9
        )

    def test_bounds_actual_deviation(self, rng):
        # the detector budgets the identity-probability gap at half the bound
        for _ in range(5):
            lind = instances.random_lindbladian(2, rng)
            gen = from_lindbladian(lind)
            target_gen = from_diagonal(twirled_generator(lind))
            for t in (0.01, 0.1, 0.5):
                for m in (1, 4, 16):
                    composed = trotterized_twirled(gen, t / m, m)
                    target = exp(target_gen, t)
                    bound = trotter_error_bound(gen, t / m, m)
                    gap = abs(
                        identity_fraction(composed) - identity_fraction(target)
                    )
                    assert gap <= bound / 2 + 1e-9
                    assert diamond_bounds(composed - target)[0] <= bound + 1e-9
