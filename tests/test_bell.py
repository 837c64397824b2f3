import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from lindet import instances
from lindet.bell import (
    FRAME_CHUNK_BYTES,
    FRAME_DRAW_CHUNK,
    WORD_TABLE_BYTES,
    _word_tables,
    bell_distribution,
    run_round,
    sampled_frame_channel,
)
from lindet.errors import ConsistencyError, DomainError
from lindet.model import (
    DiagonalDissipator,
    HamiltonianSpec,
    Lindbladian,
)
from lindet.paulis import (
    PauliString,
    chi_table,
    indices_from_codes,
    letters_from_codes,
    matrix,
    split_letters,
)
from lindet.superop import (
    SuperOperator,
    choi,
    exp,
    from_diagonal,
    from_lindbladian,
    identity_fraction,
)
from lindet.twirl import trotterized_twirled

from helpers import (
    hamiltonian_only,
    identity_superop,
    is_trace_preserving,
    pauli_vec_basis,
)


def P(text):
    return PauliString.from_text(text)


def ordered_fold(step, n, frame_indices):
    """Left-fold S_P step S_P one slice at a time, the later slice on the left."""
    signs = chi_table(n).astype(float)
    total = np.eye(len(step), dtype=step.dtype)
    for idx in frame_indices:
        sign = np.diag(signs[idx])
        total = sign @ step @ sign @ total
    return total


class TestBellDistribution:
    def test_identity_channel(self):
        probs = bell_distribution(identity_superop(2))
        assert probs[0] == pytest.approx(1.0)
        assert np.abs(probs[1:]).max() < 1e-12

    def test_fully_depolarizing_uniform(self):
        fully = SuperOperator(1, np.diag([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(bell_distribution(fully), 0.25)

    def test_dephasing_identity_entry(self):
        t = 0.7
        channel = exp(from_diagonal(DiagonalDissipator(1, {P("Z"): 1.0})), t)
        probs = bell_distribution(channel)
        assert probs[0] == pytest.approx((2 + 2 * np.exp(-2 * t)) / 4, abs=1e-10)
        # dephasing errors show up as Z outcomes only
        assert probs[1] == pytest.approx(0.0, abs=1e-12)
        assert probs[2] == pytest.approx(0.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_identity_entry_matches_identity_fraction(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 3))
            lind = instances.random_lindbladian(n, rng, k_max=min(2, n))
            channel = exp(from_lindbladian(lind), float(rng.uniform(0.1, 1.0)))
            probs = bell_distribution(channel)
            assert probs[0] == pytest.approx(
                identity_fraction(channel), abs=1e-10
            )
            assert probs.min() > -1e-10
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_cptp_rejected(self):
        with pytest.raises(ConsistencyError):
            bell_distribution(SuperOperator(1, np.diag([1.0, 2.0, 0.0, 0.0])))


class TestSampledFrameChannel:
    def test_expectation_matches_twirled_composition(self, rng):
        lind = Lindbladian(
            1,
            HamiltonianSpec.from_terms(1, [(P("X"), 0.9)]),
            instances.dephasing(0.7).dissipator,
        )
        gen = from_lindbladian(lind)
        t, m = 1.3, 3
        target = identity_fraction(trotterized_twirled(gen, t / m, m))
        draws = 1000
        values = np.empty(draws)
        for i in range(draws):
            idx = indices_from_codes(rng.integers(0, 4, size=(m, 1)))
            values[i] = identity_fraction(sampled_frame_channel(gen, t / m, idx))
        se = values.std() / np.sqrt(draws)
        assert abs(values.mean() - target) < 3 * se + 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_frame_average_is_the_twirled_composition(self, m):
        # the mean over all 4^m frame sequences, exactly, not by sampling
        lind = Lindbladian(
            1,
            HamiltonianSpec.from_terms(1, [(P("X"), 0.9)]),
            instances.dephasing(0.7).dissipator,
        )
        gen = from_lindbladian(lind)
        tau = 1.3 / m
        mean = sum(
            sampled_frame_channel(gen, tau, np.array(frames)).mat
            for frames in itertools.product(range(4), repeat=m)
        ) / 4**m
        want = trotterized_twirled(gen, tau, m).mat
        assert np.abs(mean - want).max() <= 1e-14

    def test_composition_is_cptp(self, rng):
        lind = instances.random_lindbladian(2, rng)
        gen = from_lindbladian(lind)
        idx = indices_from_codes(rng.integers(0, 4, size=(5, 2)))
        channel = sampled_frame_channel(gen, 0.1, idx)
        assert is_trace_preserving(channel)
        assert np.linalg.eigvalsh(choi(channel)).min() >= -1e-10

    @pytest.mark.parametrize("n, chunk", [(1, 1024), (2, 64), (3, 4)])
    def test_order_and_chunk_boundaries_match_ordered_fold(self, n, chunk, rng):
        gen = from_lindbladian(instances.random_lindbladian(n, rng, k_max=min(2, n)))
        tau = 0.05
        step = exp(gen, tau).mat
        assert max(2, FRAME_CHUNK_BYTES // step.nbytes) == chunk
        d2 = 4**n
        for m in (1, 2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            idx = rng.integers(0, d2, size=m)
            got = sampled_frame_channel(gen, tau, idx).mat
            want = ordered_fold(step, n, idx)
            # the bench's sampled p_tolerance, 4 u d^2 (m + 1)
            assert np.abs(got - want).max() <= 4 * 2**-53 * d2 * (m + 1)

    @pytest.mark.parametrize(
        "n, m, levels",
        [(1, 3, 0), (1, 4, 1), (1, 31, 1), (1, 32, 2), (1, 1023, 2), (1, 1024, 3),
         (1, 10**6, 3), (2, 15, 0), (2, 16, 1), (2, 511, 1), (2, 512, 2),
         (2, 10**6, 2), (3, 10**6, 0)],
    )
    def test_word_length_follows_the_table_budget(self, n, m, levels):
        # a table of 4^(n 2^j) words is built while that count is at most
        # the m / 2^j words of its length and it fits the budget
        assert WORD_TABLE_BYTES == 1 << 20
        step = np.eye(4**n)
        tables = _word_tables(step, chi_table(n).astype(float), m)
        assert [len(t) for t in tables] == [4 ** (n << j) for j in range(levels)]

    # (n, words per chunk, word length L once every table is built, the
    # least m at which it is)
    WORDS = [(1, 1024, 4, 1024), (2, 64, 2, 512), (3, 4, 1, 1)]

    @pytest.mark.parametrize("n, chunk, length, full", WORDS)
    def test_word_tables_match_ordered_fold(self, n, chunk, length, full, rng):
        gen = from_lindbladian(instances.random_lindbladian(n, rng, k_max=min(2, n)))
        tau = 0.05
        step = exp(gen, tau).mat
        d2 = 4**n
        span = chunk * length
        # the smallest m past `full` whose tail of m mod L = L - 1 frames
        # goes through every smaller table
        tail = full + length - 1
        edges = [q * span + e for q in (1, 2, full // span + 1) for e in (-1, 0, 1)]
        for m in sorted({1, 2, length - 1, length, length + 1, 2 * length + 1,
                         tail, *edges} - {0}):
            idx = rng.integers(0, d2, size=m).astype(np.uint8)
            got = sampled_frame_channel(gen, tau, idx).mat
            want = ordered_fold(step, n, idx)
            assert np.abs(got - want).max() <= 4 * 2**-53 * d2 * (m + 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_diagonal_slice_ignores_its_frames(self, n, rng):
        gen = from_diagonal(instances.random_diagonal(n, rng))
        tau = 0.05
        step = exp(gen, tau).mat
        for m in (1, 2, 5, 1027):
            idx = rng.integers(0, 4**n, size=m)
            got = sampled_frame_channel(gen, tau, idx).mat
            assert np.count_nonzero(got - np.diag(np.diag(got))) == 0
            want = ordered_fold(step, n, idx)
            assert np.abs(got - want).max() <= 4 * 2**-53 * 4**n * (m + 1)

    def test_working_memory_is_bounded(self, rng):
        # framing all 10^5 slices at once would take 10^5 * 16 * 16 * 16 B = 410 MB
        gen = from_lindbladian(instances.random_lindbladian(2, rng))
        idx = rng.integers(0, 16, size=10**5)
        sampled_frame_channel(gen, 0.01, idx[:1])  # fill the lazy sign table
        tracemalloc.start()
        try:
            sampled_frame_channel(gen, 0.01, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRunRound:
    def test_zero_generator_certain_identity(self, rng):
        gen = from_lindbladian(hamiltonian_only(1, []))
        for mode in ("sampled_pauli", "averaged"):
            outcome = run_round(gen, 2.0, 4, mode, np.random.default_rng(1))
            assert outcome.p_identity == 1.0
            assert not outcome.rejected

    def test_averaged_hamiltonian_closed_form(self):
        omega, m = 0.8, 8
        gen = from_lindbladian(hamiltonian_only(1, [("Z", omega)]))
        rng = np.random.default_rng(4)
        outcome = run_round(gen, 2.0, m, "averaged", rng)
        t = outcome.t_used
        expected = (2 + 2 * np.cos(2 * omega * t / m) ** m) / 4
        assert outcome.p_identity == pytest.approx(expected, abs=1e-9)
        assert outcome.pauli_frames == ""

    def test_sampled_records_frames(self, rng):
        gen = from_lindbladian(instances.dephasing(1.0))
        outcome = run_round(gen, 2.0, 6, "sampled_pauli", rng)
        assert len(outcome.pauli_frames) == 6
        assert set(outcome.pauli_frames) <= set("IXYZ")
        assert 0.0 <= outcome.p_identity <= 1.0
        assert 0.0 <= outcome.t_used <= 2.0

    def test_frame_record_is_one_byte_per_letter(self):
        m = 10**5
        gen = from_lindbladian(instances.dephasing(1.0, n=2))
        outcome = run_round(gen, 2.0, m, "sampled_pauli", np.random.default_rng(6))
        assert len(outcome.pauli_frames) == 2 * m
        assert sys.getsizeof(outcome.pauli_frames) <= 2 * m + 100

    def test_reported_frames_are_the_frames_applied(self, rng):
        # rebuild each slice from the reported letters as C_P e^(tau L) C_P,
        # with C_P the conjugation by P in the transfer basis
        # m = 1100 crosses an n = 1 chunk of framed slices
        for n, m in ((1, 7), (2, 7), (1, 1100)):
            lind = instances.random_lindbladian(n, rng, k_max=n)
            gen = from_lindbladian(lind)
            w = pauli_vec_basis(n)
            for seed in range(5):
                rng_round = np.random.default_rng(seed)
                outcome = run_round(gen, 2.0, m, "sampled_pauli", rng_round)
                step = exp(gen, outcome.t_used / m).mat
                total = np.eye(4**n)
                for text in split_letters(outcome.pauli_frames, m):
                    u = matrix(P(text))
                    conj = w.conj().T @ np.kron(u.conj(), u) @ w
                    total = conj @ step @ conj @ total
                rebuilt = np.trace(total).real / 4**n
                assert abs(rebuilt - outcome.p_identity) < 1e-12

    def test_round_memory_is_bounded(self):
        # m-long int64 codes and indices would take 2 x 2.3 MB on their own
        gen = from_lindbladian(hamiltonian_only(1, [("Z", 1.0)]))
        run_round(gen, 2.0, 64, "sampled_pauli", np.random.default_rng(1))
        tracemalloc.start()
        try:
            run_round(gen, 2.0, 292032, "sampled_pauli", np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("n", [1, 2])
    def test_chunked_draws_are_one_draw_of_m(self, n):
        gen = from_lindbladian(instances.random_lindbladian(n, np.random.default_rng(8), k_max=n))
        m = 2 * FRAME_DRAW_CHUNK + 3
        outcome = run_round(gen, 2.0, m, "sampled_pauli", np.random.default_rng(7))
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, 2.0)
        codes = rng.integers(0, 4, size=(m, n))
        p = identity_fraction(sampled_frame_channel(gen, t / m, indices_from_codes(codes)))
        assert outcome.t_used == t
        assert outcome.pauli_frames == letters_from_codes(codes)
        assert outcome.p_identity == min(1.0, max(0.0, p))
        assert outcome.rejected == (rng.random() >= outcome.p_identity)

    def test_deterministic_replay(self):
        gen = from_lindbladian(instances.dephasing(1.0))
        a = run_round(gen, 2.0, 5, "sampled_pauli", np.random.default_rng(3))
        b = run_round(gen, 2.0, 5, "sampled_pauli", np.random.default_rng(3))
        assert a == b

    def test_mean_p_identity_matches_time_average(self):
        # dephasing at rate 2: I(t) = (1 + exp(-4 t)) / 2, averaged over
        # t ~ U[0, 2] gives 1/2 + (1 - exp(-8)) / 16
        gen = from_lindbladian(instances.dephasing(2.0))
        rng = np.random.default_rng(5)
        draws = 2000
        values = np.array(
            [
                run_round(gen, 2.0, 64, "averaged", rng).p_identity
                for _ in range(draws)
            ]
        )
        exact = 0.5 + (1 - np.exp(-8)) / 16
        se = values.std() / np.sqrt(draws)
        assert abs(values.mean() - exact) < 3 * se

    def test_rejection_rate_matches_probability(self):
        # the Bernoulli draw uses p_identity: empirical rejection frequency
        # over many rounds must match 1 - mean(p_identity)
        gen = from_lindbladian(instances.dephasing(2.0))
        rng = np.random.default_rng(6)
        draws = 2000
        outcomes = [
            run_round(gen, 2.0, 8, "averaged", rng)
            for _ in range(draws)
        ]
        rejected = np.array([o.rejected for o in outcomes])
        p_mean = np.mean([o.p_identity for o in outcomes])
        se = np.sqrt(p_mean * (1 - p_mean) / draws) + 0.01
        assert abs(rejected.mean() - (1 - p_mean)) < 4 * se

    def test_domain_errors(self, rng):
        gen = from_lindbladian(instances.dephasing(1.0))
        with pytest.raises(DomainError):
            run_round(gen, 0.0, 4, "averaged", rng)
        with pytest.raises(DomainError):
            run_round(gen, 1.0, 0, "averaged", rng)
        with pytest.raises(DomainError):
            run_round(gen, 1.0, 4, "bogus", rng)
