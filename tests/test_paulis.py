import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lindet.errors import CapacityError, DimensionError
from lindet.paulis import (
    PauliString,
    chi,
    chi_table,
    enumerate_all,
    from_index,
    indices_from_codes,
    matrix,
    sample_codes,
)


def P(text):
    return PauliString.from_text(text)


pauli_texts = st.integers(1, 4).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
)


@st.composite
def pauli_pairs(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    a = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    b = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    return P(a), P(b)


class TestBasics:
    def test_weight(self):
        assert P("III").weight == 0
        assert P("XIZ").weight == 2
        assert P("YYY").weight == 3

    def test_support(self):
        assert P("XIZ").support == {0, 2}
        assert P("IIII").support == frozenset()
        assert P("IYI").support == {1}

    @given(pauli_texts)
    def test_text_round_trip(self, text):
        assert str(P(text)) == text

    @given(pauli_texts)
    def test_weight_equals_support_size(self, text):
        p = P(text)
        assert p.weight == len(p.support)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            P("XQZ")
        with pytest.raises(ValueError):
            P("")
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)
        with pytest.raises(ValueError):
            PauliString(1, 2, 0)


class TestChi:
    def test_examples(self):
        assert chi(P("X"), P("Z")) == -1
        assert chi(P("XI"), P("IZ")) == 1
        # per-site product (-1)*(-1)
        assert chi(P("XY"), P("YX")) == 1

    def test_against_dense_commutator(self):
        for n in (1, 2):
            for p in enumerate_all(n):
                for q in enumerate_all(n):
                    commutes = np.allclose(
                        matrix(p) @ matrix(q) - matrix(q) @ matrix(p), 0
                    )
                    assert (chi(p, q) == 1) == commutes

    @given(pauli_pairs())
    def test_symmetric(self, pq):
        p, q = pq
        assert chi(p, q) == chi(q, p)

    @given(pauli_pairs(n_max=3), pauli_texts)
    def test_bilinear(self, pq, extra):
        p, q = pq
        r = P(extra[: p.n].ljust(p.n, "I"))
        product = PauliString(p.n, p.x_bits ^ r.x_bits, p.z_bits ^ r.z_bits)
        assert chi(p, q) * chi(r, q) == chi(product, q)

    def test_sign_sum_vanishes_off_identity(self):
        # for P != I exactly half of all Q anticommute
        for n in (1, 2, 3):
            table = chi_table(n)
            assert np.array_equal(table[0], np.ones(4**n, dtype=np.int8))
            assert np.all(table[1:].sum(axis=1) == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            chi(P("X"), P("XX"))


class TestEnumerationAndIndex:
    def test_single_qubit_order(self):
        assert [str(s) for s in enumerate_all(1)] == ["I", "X", "Y", "Z"]

    def test_two_qubit(self):
        strings = list(enumerate_all(2))
        assert len(strings) == 16
        assert str(strings[0]) == "II"
        assert strings[0].is_identity

    def test_zero_qubits_forbidden(self):
        with pytest.raises(ValueError):
            list(enumerate_all(0))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            list(enumerate_all(5))
        assert len(list(enumerate_all(5, max_qubits=5))) == 4**5
        with pytest.raises(CapacityError):
            list(enumerate_all(7, max_qubits=7))

    def test_index_encodings_agree(self):
        # sampled rounds index chi_table by indices_from_codes, while the
        # transfer basis follows the enumeration order
        for n in (1, 2, 3):
            for idx, p in enumerate(enumerate_all(n)):
                codes = np.array(["IXYZ".index(ch) for ch in p.text()])
                assert indices_from_codes(codes) == idx
                assert from_index(n, idx) == p


class TestSampling:
    def test_deterministic_replay(self):
        a = sample_codes(2, 5, np.random.default_rng(123))
        b = sample_codes(2, 5, np.random.default_rng(123))
        assert a.shape == (5, 2)
        assert np.array_equal(a, b)

    def test_draws_do_not_depend_on_batching(self):
        batched = sample_codes(3, 7, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        one_by_one = [sample_codes(3, 1, rng)[0] for _ in range(7)]
        assert np.array_equal(batched, one_by_one)

    def test_identity_frequency(self):
        rng = np.random.default_rng(2024)
        draws = 10**6
        hits = int(np.count_nonzero(sample_codes(1, draws, rng) == 0))
        assert abs(hits / draws - 0.25) < 0.002

    def test_mean_weight(self):
        # each site is non-identity with probability 3/4: mean weight 3n/4
        rng = np.random.default_rng(99)
        draws = 10**6
        total = int(np.count_nonzero(sample_codes(2, draws, rng)))
        assert abs(total / draws - 1.5) < 0.01


class TestMatrix:
    def test_examples(self):
        assert np.array_equal(matrix(P("X")), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(matrix(P("I")), np.eye(2))

    def test_trace_orthogonality(self):
        for n in (1, 2):
            for p in enumerate_all(n):
                for q in enumerate_all(n):
                    expected = 2**n if p == q else 0
                    assert np.trace(matrix(p) @ matrix(q)) == expected

    @given(pauli_texts)
    def test_unitary_hermitian_involutive(self, text):
        p = P(text)
        m = matrix(p)
        d = 2**p.n
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m @ m, np.eye(d))
        if not p.is_identity:
            assert np.trace(m) == 0

    def test_capacity(self):
        with pytest.raises(CapacityError):
            matrix(PauliString.identity(5))
