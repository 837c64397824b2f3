import numpy as np
import pytest

from lindet import instances
from lindet.model import (
    DiagonalDissipator,
    HamiltonianSpec,
    JumpOperator,
    JumpOperatorSet,
    Lindbladian,
    alpha_dense,
    alpha_matrix,
    derive_locality_degree,
    diagonal_eigenvalue,
    diagonal_frobenius,
    diamond_upper_bound,
    twirled_generator,
)
from lindet.paulis import PauliString, enumerate_all
from lindet.superop import (
    eigenvalues,
    frobenius_normalized,
    from_diagonal,
    from_lindbladian,
)


def P(text):
    return PauliString.from_text(text)


def jump(n, support, coeffs):
    return JumpOperator(n, frozenset(support), {P(t): c for t, c in coeffs.items()})


def lindbladian(n, ham_terms=(), jumps=()):
    ham = HamiltonianSpec.from_terms(n, [(P(t), c) for t, c in ham_terms])
    return Lindbladian(n, ham, JumpOperatorSet(n, tuple(jumps)))


class TestTypes:
    def test_hamiltonian_merges_and_drops_identity(self):
        ham = HamiltonianSpec.from_terms(
            1, [(P("Z"), 1.0), (P("Z"), 2.0), (P("I"), 5.0)]
        )
        assert ham.terms == ((P("Z"), 3.0),)

    def test_jump_rejects_identity_term(self):
        with pytest.raises(ValueError, match="traceless"):
            jump(1, {0}, {"I": 1.0})

    def test_jump_rejects_term_outside_support(self):
        with pytest.raises(ValueError, match="support"):
            jump(2, {0}, {"IZ": 1.0})

    def test_diagonal_rejects_negative_and_identity(self):
        with pytest.raises(ValueError):
            DiagonalDissipator(1, {P("Z"): -0.5})
        with pytest.raises(ValueError):
            DiagonalDissipator(1, {P("I"): 0.5})


class TestLocalityDegree:
    def test_single_local_jump(self):
        js = JumpOperatorSet(1, (jump(1, {0}, {"Z": 1.0}),))
        assert derive_locality_degree(js) == (1, 1)

    def test_overlapping_supports(self):
        js = JumpOperatorSet(
            3,
            (
                jump(3, {0, 1}, {"XXI": 1.0}),
                jump(3, {1, 2}, {"IXX": 1.0}),
            ),
        )
        assert derive_locality_degree(js) == (2, 2)

    def test_empty(self):
        assert derive_locality_degree(JumpOperatorSet(2, ())) == (0, 0)

    def test_declared_support_counts_even_if_unused(self):
        # degree follows declared supports, not the actual nonzero action
        js = JumpOperatorSet(
            2,
            (
                jump(2, {0, 1}, {"XI": 1.0}),
                jump(2, {0, 1}, {"IX": 1.0}),
            ),
        )
        assert derive_locality_degree(js) == (2, 2)


class TestAlphaMatrix:
    def test_single_jump(self):
        js = JumpOperatorSet(1, (jump(1, {0}, {"X": 1.0}),))
        assert alpha_matrix(js) == {(P("X"), P("X")): 1.0}

    def test_x_plus_iy(self):
        js = JumpOperatorSet(1, (jump(1, {0}, {"X": 1.0, "Y": 1j}),))
        entries = alpha_matrix(js)
        assert entries[(P("X"), P("X"))] == 1.0
        assert entries[(P("Y"), P("Y"))] == 1.0
        assert entries[(P("X"), P("Y"))] == -1j
        assert entries[(P("Y"), P("X"))] == 1j
        _, dense = alpha_dense(js)
        eig = np.linalg.eigvalsh(dense)
        assert np.allclose(sorted(eig), [0.0, 2.0])

    def test_hermitian_and_psd_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            js = instances.random_local_jumps(n, rng, k_max=min(2, n))
            _, dense = alpha_dense(js)
            assert np.abs(dense - dense.conj().T).max() < 1e-12
            scale = max(1.0, np.abs(dense).max())
            assert np.linalg.eigvalsh(dense).min() >= -1e-10 * scale

    def test_row_sparsity_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            js = instances.random_local_jumps(n, rng, k_max=min(2, n), degree_max=2)
            k, degree = derive_locality_degree(js)
            entries = alpha_matrix(js)
            rows = {}
            for (p, q), v in entries.items():
                if v != 0:
                    rows.setdefault(p, set()).add(q)
            assert max(len(qs) for qs in rows.values()) <= (4 * degree) ** k


class TestTwirledGenerator:
    def test_hamiltonian_contributes_nothing(self):
        lind = lindbladian(2, ham_terms=[("ZZ", 1.0), ("XI", 0.3)])
        assert twirled_generator(lind).alphas == {}

    def test_single_dephasing_jump(self):
        gamma = 0.7
        lind = lindbladian(1, jumps=[jump(1, {0}, {"Z": np.sqrt(gamma)})])
        assert twirled_generator(lind).alphas == {P("Z"): pytest.approx(gamma)}

    def test_x_plus_iy(self):
        lind = lindbladian(1, jumps=[jump(1, {0}, {"X": 1.0, "Y": 1j})])
        assert twirled_generator(lind).alphas == {P("X"): 1.0, P("Y"): 1.0}


class TestDiagonalDissipator:
    def test_eigenvalue_examples(self):
        dephasing = DiagonalDissipator(1, {P("Z"): 1.0})
        assert diagonal_eigenvalue(dephasing, P("Z")) == 0.0
        assert diagonal_eigenvalue(dephasing, P("X")) == -2.0
        gamma = 0.4
        depol = DiagonalDissipator(1, {P("X"): gamma, P("Y"): gamma, P("Z"): gamma})
        assert diagonal_eigenvalue(depol, P("X")) == pytest.approx(-4 * gamma)

    def test_identity_mode_never_decays(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            diss = instances.random_diagonal(n, rng)
            assert diagonal_eigenvalue(diss, PauliString.identity(n)) == 0.0

    def test_eigenvalues_match_dense_realization(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            diss = instances.random_diagonal(n, rng)
            enumerated = sorted(diagonal_eigenvalue(diss, q) for q in enumerate_all(n))
            dense = sorted(eigenvalues(from_diagonal(diss)).real)
            assert np.allclose(enumerated, dense, atol=1e-9)

    def test_frobenius_examples(self):
        assert diagonal_frobenius(DiagonalDissipator(1, {})) == 0.0
        assert diagonal_frobenius(DiagonalDissipator(1, {P("Z"): 1.0})) == pytest.approx(
            np.sqrt(2)
        )
        gamma = 0.3
        depol = DiagonalDissipator(1, {P("X"): gamma, P("Y"): gamma, P("Z"): gamma})
        assert diagonal_frobenius(depol) == pytest.approx(gamma * np.sqrt(12))

    def test_frobenius_matches_dense(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            diss = instances.random_diagonal(n, rng)
            assert diagonal_frobenius(diss) == pytest.approx(
                frobenius_normalized(from_diagonal(diss)), rel=1e-12
            )


class TestDiamondUpperBound:
    def test_zero_generator(self):
        assert diamond_upper_bound(lindbladian(1)) == 0.0

    def test_hamiltonian_only(self):
        omega = 1.3
        assert diamond_upper_bound(
            lindbladian(1, ham_terms=[("Z", omega)])
        ) == pytest.approx(2 * omega)

    def test_single_jump(self):
        gamma = 0.6
        lind = lindbladian(1, jumps=[jump(1, {0}, {"Z": np.sqrt(gamma)})])
        assert diamond_upper_bound(lind) == pytest.approx(2 * gamma)


class TestNormComparisons:
    """Dense comparisons between a local dissipator and its twirl."""

    def test_mass_bounded_by_diagonal(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            js = instances.random_local_jumps(n, rng, k_max=min(2, n), degree_max=2)
            k, degree = derive_locality_degree(js)
            entries = alpha_matrix(js)
            total = sum(abs(v) ** 2 for v in entries.values())
            diag = sum(abs(v) ** 2 for (p, q), v in entries.items() if p == q)
            assert total <= ((4 * degree) ** k + 1) * diag + 1e-9

    def test_twirl_norm_dominates_diagonal_mass(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            lind = Lindbladian(
                n,
                HamiltonianSpec.from_terms(n, []),
                instances.random_local_jumps(n, rng, k_max=min(2, n)),
            )
            diag_mass = sum(
                abs(v) ** 2
                for (p, q), v in alpha_matrix(lind.dissipator).items()
                if p == q
            )
            twirled_norm = frobenius_normalized(from_diagonal(twirled_generator(lind)))
            assert diag_mass <= twirled_norm**2 + 1e-9

    def test_dissipator_norm_bounded_by_twirl(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            lind = Lindbladian(
                n,
                HamiltonianSpec.from_terms(n, []),
                instances.random_local_jumps(n, rng, k_max=min(2, n), degree_max=2),
            )
            k, degree = derive_locality_degree(lind.dissipator)
            lhs = frobenius_normalized(from_lindbladian(lind))
            rhs = 2 * ((4 * degree) ** k + 1) * frobenius_normalized(
                from_diagonal(twirled_generator(lind))
            )
            assert lhs <= rhs + 1e-9
