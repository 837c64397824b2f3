import math

import mpmath
import numpy as np
import pytest

from lindet import instances
from lindet.errors import CapacityError, ConsistencyError, DomainError, NumericError
from lindet.model import (
    DiagonalDissipator,
    HamiltonianSpec,
    JumpOperatorSet,
    Lindbladian,
)
from lindet.oracles import exp_eig, lindblad_dense_action
from lindet.paulis import PauliString, enumerate_all, matrix, matrix_stack
from lindet.superop import (
    _TAYLOR_PLANS,
    _TAYLOR_THETA,
    SuperOperator,
    _pick_plan,
    _taylor_exp,
    add,
    choi,
    compose,
    diamond_bounds,
    eigenvalues,
    exp,
    frobenius_normalized,
    from_diagonal,
    from_lindbladian,
    identity_fraction,
    lambda_fraction,
    purity,
    scale,
)

from helpers import (
    choi_reshuffled,
    hamiltonian_only,
    identity_superop,
    is_hermiticity_preserving,
    is_trace_preserving,
    lindbladian_vec,
    pauli_vec_basis,
    to_vec_basis,
    zero_superop,
)


def P(text):
    return PauliString.from_text(text)


def dephasing_gen(rate=1.0):
    return from_diagonal(DiagonalDissipator(1, {P("Z"): rate}))


def random_channel(n, rng, t=None):
    lind = instances.random_lindbladian(n, rng, k_max=min(2, n))
    if t is None:
        t = float(rng.uniform(0.1, 1.5))
    return exp(from_lindbladian(lind), t)


class TestConstruction:
    def test_zero_generator(self):
        lind = Lindbladian(
            1, HamiltonianSpec.from_terms(1, []), JumpOperatorSet(1, ())
        )
        assert np.abs(from_lindbladian(lind).mat).max() == 0.0

    def test_depolarizing_diagonal(self):
        gamma = 0.25
        gen = from_lindbladian(instances.depolarizing(gamma))
        assert np.allclose(
            gen.mat, np.diag([0, -4 * gamma, -4 * gamma, -4 * gamma]), atol=1e-12
        )

    def test_hamiltonian_rotation_block(self):
        omega = 0.9
        gen = from_lindbladian(hamiltonian_only(1, [("Z", omega)]))
        vals = np.sort_complex(eigenvalues(gen))
        assert np.allclose(vals.real, 0, atol=1e-12)
        assert np.allclose(
            sorted(vals.imag), [-2 * omega, 0, 0, 2 * omega], atol=1e-12
        )

    def test_action_matches_dense_formula(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 3))
            lind = instances.random_lindbladian(n, rng, k_max=min(2, n))
            svec = to_vec_basis(from_lindbladian(lind))
            d = 2**n
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            got = (svec @ x.flatten(order="F")).reshape(d, d, order="F")
            want = lindblad_dense_action(lind, x)
            assert np.abs(got - want).max() < 1e-10

    def test_matches_column_stacked_construction(self, rng):
        for n in (1, 2, 3, 4, 4):
            lind = instances.random_lindbladian(n, rng, k_max=min(2, n))
            w = pauli_vec_basis(n)
            want = w.conj().T @ lindbladian_vec(lind) @ w
            assert np.abs(from_lindbladian(lind).mat - want).max() < 1e-12

    def test_columns_match_dense_action_at_capacity_5(self, rng):
        # column j expands L(P_j) = sum_i M[i, j] P_i
        lind = instances.random_lindbladian(5, rng, k_max=2)
        gen = from_lindbladian(lind, max_qubits=5)
        paulis = matrix_stack(5)
        for j in (0, 1, 87, 512, 1023):
            got = np.tensordot(gen.mat[:, j], paulis, axes=1)
            want = lindblad_dense_action(lind, paulis[j])
            assert np.abs(got - want).max() < 1e-10

    def test_generator_realizations_real(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 3))
            gen = from_lindbladian(instances.random_lindbladian(n, rng))
            assert is_hermiticity_preserving(gen)

    def test_from_diagonal_examples(self):
        assert np.abs(from_diagonal(DiagonalDissipator(1, {})).mat).max() == 0.0
        assert np.allclose(dephasing_gen().mat, np.diag([0, -2, -2, 0]))

    def test_diagonal_rates_real_nonpositive(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            vals = eigenvalues(from_diagonal(instances.random_diagonal(n, rng)))
            assert np.abs(vals.imag).max() < 1e-12
            assert vals.real.max() <= 1e-12

    def test_capacity(self):
        lind = Lindbladian(
            5, HamiltonianSpec.from_terms(5, []), JumpOperatorSet(5, ())
        )
        with pytest.raises(CapacityError):
            from_lindbladian(lind)
        assert from_lindbladian(lind, max_qubits=5).dim == 4**5


class TestAlgebra:
    def test_compose_with_identity(self, rng):
        s = random_channel(1, rng)
        assert np.allclose(compose(s, identity_superop(1)).mat, s.mat)
        assert np.allclose(compose(identity_superop(1), s).mat, s.mat)

    def test_scale_zero(self, rng):
        s = random_channel(1, rng)
        assert np.abs(scale(s, 0.0).mat).max() == 0.0

    def test_semigroup(self, rng):
        gen = from_lindbladian(instances.random_lindbladian(2, rng))
        lhs = exp(gen, 1.0)
        rhs = compose(exp(gen, 0.5), exp(gen, 0.5))
        assert np.abs(lhs.mat - rhs.mat).max() < 1e-9


class TestIdentityFraction:
    def test_identity_channel(self):
        assert identity_fraction(identity_superop(2)) == 1.0

    def test_unitary_conjugation_oscillates(self):
        # a rotation superoperator has trace |Tr V|^2, so for H = w Z the
        # identity-outcome probability is cos^2(w t), not constant
        omega, t = 0.8, 1.1
        gen = from_lindbladian(hamiltonian_only(1, [("Z", omega)]))
        assert identity_fraction(exp(gen, t)) == pytest.approx(
            np.cos(omega * t) ** 2, abs=1e-12
        )

    def test_depolarizing_closed_form(self):
        gamma, t = 0.8, 0.7
        channel = exp(from_lindbladian(instances.depolarizing(gamma / 4)), t)
        assert identity_fraction(channel) == pytest.approx(
            (1 + 3 * np.exp(-gamma * t)) / 4, abs=1e-12
        )

    def test_matches_choi_overlap(self, rng):
        s = random_channel(2, rng)
        d = 4
        phi = np.zeros(d * d, dtype=complex)
        phi[:: d + 1] = 1 / np.sqrt(d)
        overlap = float(np.vdot(phi, choi(s) @ phi).real)
        assert identity_fraction(s) == pytest.approx(overlap, abs=1e-10)

    def test_imaginary_residue_rejected(self):
        with pytest.raises(ConsistencyError):
            identity_fraction(SuperOperator(1, np.diag([1.0, 1j, 0, 0])))

    def test_storage_is_real(self):
        within_tolerance = np.diag([1.0, 1e-12j, 0, 0])
        for mat in (np.eye(4, dtype=int), np.eye(4), within_tolerance):
            assert SuperOperator(1, mat).mat.dtype == np.float64


class TestNorms:
    def test_identity_norm_one(self):
        assert frobenius_normalized(identity_superop(2)) == 1.0

    def test_dephasing_norm(self):
        assert frobenius_normalized(dephasing_gen()) == pytest.approx(np.sqrt(2))

    def test_invariant_under_unitary_conjugation(self, rng):
        s = random_channel(1, rng)
        rot = exp(
            from_lindbladian(hamiltonian_only(1, [("X", 0.6)])), 1.0
        )
        rot_inv = SuperOperator(1, rot.mat.T)  # orthogonal PTM: transpose inverts
        conjugated = compose(rot_inv, compose(s, rot))
        assert frobenius_normalized(conjugated) == pytest.approx(
            frobenius_normalized(s), abs=1e-10
        )

    def test_sandwich_maps_isometry(self, rng):
        # sum alpha_{P,Q} (X -> P X Q) has squared normalized Frobenius norm
        # equal to sum |alpha|^2
        for n in (1, 2):
            d = 2**n
            strings = list(enumerate_all(n))
            table = {}
            for _ in range(6):
                i, j = (int(v) for v in rng.integers(4**n, size=2))
                table[(i, j)] = table.get((i, j), 0j) + complex(
                    rng.normal(), rng.normal()
                )
            svec = np.zeros((d * d, d * d), dtype=complex)
            for (i, j), a in table.items():
                svec += a * np.kron(matrix(strings[j]).T, matrix(strings[i]))
            # complex sandwich maps do not preserve Hermiticity: no SuperOperator
            w = pauli_vec_basis(n)
            sandwich = w.conj().T @ svec @ w
            mass = sum(abs(a) ** 2 for a in table.values())
            assert (np.linalg.norm(sandwich) / d) ** 2 == pytest.approx(
                mass, abs=1e-9 * max(1.0, mass)
            )


class TestExponential:
    def test_zero_time(self, rng):
        gen = from_lindbladian(instances.random_lindbladian(1, rng))
        assert np.allclose(exp(gen, 0.0).mat, np.eye(4))

    def test_dephasing_closed_form(self):
        channel = exp(dephasing_gen(), 0.5)
        assert np.allclose(
            channel.mat, np.diag([1, np.exp(-1), np.exp(-1), 1]), atol=1e-12
        )

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            exp(dephasing_gen(), -0.1)

    def test_methods_agree(self, rng):
        # the eig route refuses ill-conditioned or inaccurate decompositions
        # with NumericError; whenever it answers it must match the pade route
        checked = 0
        for _ in range(40):
            if checked >= 8:
                break
            n = int(rng.integers(1, 4))
            gen = from_lindbladian(instances.random_lindbladian(n, rng, k_max=min(2, n)))
            t = float(rng.uniform(0.1, 1.0))
            pade = exp(gen, t)
            try:
                eig = exp_eig(gen, t)
            except NumericError:
                continue
            scale_ref = max(1.0, float(np.abs(pade.mat).max()))
            assert np.abs(pade.mat - eig.mat).max() < 1e-9 * scale_ref
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("n, seed", [(1, 0), (1, 1), (2, 2)])
    def test_matches_mpmath_reference(self, n, seed):
        # one norm per regime of the plan: the low degrees, no squaring, and
        # up to eight squarings
        gen = from_lindbladian(
            instances.random_lindbladian(n, np.random.default_rng(seed), k_max=n)
        )
        mpmath.mp.dps = 40
        for norm in (1e-8, 1e-4, 1e-3, 1e-2, 0.5, 2.0, 20.0, 200.0):
            t = norm / gen.norm1
            ref = mpmath.expm(mpmath.matrix((t * gen.mat).tolist()))
            ref = np.array(ref.tolist(), dtype=float)
            err = np.abs(exp(gen, t).mat - ref).max()
            assert err <= 1e-12 * max(1.0, np.abs(ref).max()), (norm, err)

    @pytest.mark.parametrize("degree, theta", _TAYLOR_THETA)
    def test_theta_within_backward_error_bound(self, degree, theta):
        # theta_m is the root of h(x) = sum_{k>m} |c_k| x^(k-1) = u, where
        # log(e^(-x) T_m(x)) = sum_k c_k x^k; recomputed here by bisection
        mpmath.mp.dps = 30
        terms = 150
        g = [mpmath.mpf(1)] + [
            mpmath.fsum(
                mpmath.mpf(-1) ** (k - j) / (math.factorial(j) * math.factorial(k - j))
                for j in range(min(k, degree) + 1)
            )
            for k in range(1, terms + 1)
        ]
        c = [mpmath.mpf(0)] * (terms + 1)
        for k in range(degree + 1, terms + 1):
            c[k] = g[k] - mpmath.fsum(j * c[j] * g[k - j] for j in range(1, k)) / k
        tail = [abs(x) for x in c[degree + 1 :]]

        def excess(x):
            return x**degree * mpmath.polyval(tail[::-1], x) - mpmath.mpf(2) ** -53

        hi = mpmath.mpf(1)
        while excess(hi) <= 0:
            hi *= 2
        lo = hi / 2
        while excess(lo) > 0:
            lo, hi = lo / 2, lo
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) <= 0 else (lo, mid)
        assert theta <= lo
        assert theta >= float(lo) * (1 - 1e-13)

    @pytest.mark.parametrize("plan", _TAYLOR_PLANS, ids=lambda p: f"degree{p.degree}")
    def test_paterson_stockmeyer_is_the_taylor_polynomial(self, plan, rng):
        a = rng.standard_normal((16, 16))
        a *= plan.theta / np.abs(a).sum(axis=0).max()
        term, want = np.eye(16), np.eye(16)
        for k in range(1, plan.degree + 1):
            term = term @ a / k
            want += term
        assert np.abs(_taylor_exp(a, plan) - want).max() < 1e-15

    def test_plan_takes_the_fewest_products(self):
        for norm in np.geomspace(1e-18, 1e300, 400):
            plan, squarings = _pick_plan(float(norm))
            assert math.ldexp(norm, -squarings) <= plan.theta
            fewest = min(
                p.products + max(0, math.ceil(math.log2(norm) - math.log2(p.theta)))
                for p in _TAYLOR_PLANS
            )
            assert plan.products + squarings == fewest, norm

    def test_lost_rotation_phase_is_an_error(self):
        gen = from_lindbladian(hamiltonian_only(1, [("Z", 1.0)]))
        assert np.isfinite(exp(gen, 1e15).mat).all()
        # u t ||(S - S^T)/2||_1 = 2^-53 * 1e20 * 2 >= 1
        with pytest.raises(NumericError, match=r"exponential at t=1e\+20 is not finite"):
            exp(gen, 1e20)

    def test_overflowing_argument_is_an_error(self):
        gen = from_lindbladian(instances.depolarizing(1.0))
        with pytest.raises(NumericError, match="is not finite"):
            exp(gen, 1e308)

    def test_channel_properties(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 3))
            channel = random_channel(n, rng)
            assert is_trace_preserving(channel)
            assert is_hermiticity_preserving(channel, tol=1e-9)
            radius = float(np.abs(eigenvalues(channel)).max())
            assert radius <= 1 + 1e-9


class TestSpectra:
    def test_zero_generator(self):
        assert np.abs(eigenvalues(zero_superop(2))).max() == 0.0

    def test_dephasing(self):
        assert sorted(eigenvalues(dephasing_gen()).real) == pytest.approx(
            [-2, -2, 0, 0]
        )

    def test_lindbladian_spectrum_structure(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 3))
            vals = eigenvalues(from_lindbladian(instances.random_lindbladian(n, rng)))
            assert vals.real.max() <= 1e-9
            scale_ref = max(1.0, float(np.abs(vals).max()))
            for v in vals:
                if abs(v.imag) > 1e-9 * scale_ref:
                    nearest = np.abs(vals - np.conj(v)).min()
                    assert nearest < 1e-8 * scale_ref

    def test_lambda_fraction(self):
        ham = from_lindbladian(hamiltonian_only(1, [("Z", 1.0)]))
        assert lambda_fraction(ham, 0.5) == 0.0
        assert lambda_fraction(dephasing_gen(), 1.0) == 0.5
        assert lambda_fraction(dephasing_gen(), 3.0) == 0.0


class TestChoiAndDiamond:
    def test_identity_choi_is_bell_projector(self):
        c = choi(identity_superop(1))
        assert np.trace(c).real == pytest.approx(1.0)
        eig = np.linalg.eigvalsh(c)
        assert eig.min() > -1e-12
        assert sorted(eig)[-1] == pytest.approx(1.0)

    def test_fully_depolarizing_choi_maximally_mixed(self):
        fully = SuperOperator(1, np.diag([1.0, 0, 0, 0]))
        c = choi(fully)
        assert np.allclose(c, np.eye(4) / 4)

    def test_cptp_choi_psd_unit_trace(self, rng):
        for _ in range(5):
            c = choi(random_channel(2, rng))
            assert np.abs(c - c.conj().T).max() < 1e-10
            assert np.trace(c).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(c).min() >= -1e-10

    def test_matches_reshuffle(self, rng):
        for n in (1, 2, 3):
            s = random_channel(n, rng)
            assert np.abs(choi(s) - choi_reshuffled(s)).max() < 1e-12

    def test_diamond_bounds_examples(self, rng):
        assert diamond_bounds(zero_superop(1)) == (0.0, 0.0)
        lo, up = diamond_bounds(identity_superop(1))
        assert lo == pytest.approx(1.0) and up == pytest.approx(2.0)
        a, b = random_channel(1, rng), random_channel(1, rng)
        lo, up = diamond_bounds(a - b)
        assert 0.0 <= lo <= up + 1e-12

    def test_bell_stability(self, rng):
        # the identity-probability gap is controlled by the diamond bracket
        for _ in range(10):
            n = int(rng.integers(1, 3))
            a, b = random_channel(n, rng), random_channel(n, rng)
            gap = abs(identity_fraction(a) - identity_fraction(b))
            assert gap <= 0.5 * diamond_bounds(a - b)[1] + 1e-9


class TestPurity:
    def test_identity(self):
        assert purity(identity_superop(2)) == pytest.approx(1.0, abs=1e-9)

    def test_unitary_conjugation(self, rng):
        ham = instances.random_hamiltonian(2, rng)
        lind = Lindbladian(2, ham, JumpOperatorSet(2, ()))
        channel = exp(from_lindbladian(lind), 1.3)
        assert purity(channel) == pytest.approx(1.0, abs=1e-9)

    def test_dephasing_closed_form(self):
        t = 0.8
        assert purity(exp(dephasing_gen(), t)) == pytest.approx(
            (2 + 2 * np.exp(-4 * t)) / 4, abs=1e-9
        )

    def test_equals_mean_square_singular_value(self, rng):
        s = random_channel(2, rng)
        sing = np.linalg.svd(s.mat, compute_uv=False)
        assert purity(s) == pytest.approx(float((sing**2).mean()), abs=1e-9)
