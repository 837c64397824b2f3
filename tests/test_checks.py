import numpy as np
import pytest

from lindet import checks, instances

from helpers import hamiltonian_only


class TestIndividualChecks:
    def test_jordan_trace(self, rng):
        result = checks.check_jordan_trace(15, 3, rng)
        assert result.passed
        assert result.instances == 15

    def test_decay_primitive_dephasing_closed_form(self, rng):
        # I(t) = (2 + 2 exp(-2t))/4 crosses 2/3 at t = ln(3)/2, so over
        # t ~ U[0, 2] the hit frequency is 1 - ln(3)/4 ~ 0.725
        result = checks.check_decay_primitive(instances.dephasing(1.0), 1.0, 2000, rng)
        assert result.passed and not result.skipped

    def test_decay_primitive_skips_hamiltonian(self, rng):
        result = checks.check_decay_primitive(
            hamiltonian_only(1, [("Z", 1.0)]), 0.5, 100, rng
        )
        assert result.skipped
        assert result.passed

    def test_pauli_diag_bound(self, rng):
        result = checks.check_pauli_diag_bound(50, 3, 2, rng)
        assert result.passed

    def test_twirl_structure(self, rng):
        assert checks.check_twirl_structure(10, rng).passed

    def test_alpha_structure(self, rng):
        assert checks.check_alpha_structure(10, rng).passed

    def test_norm_comparison(self, rng):
        assert checks.check_norm_comparison(30, rng).passed

    def test_trotter_bounds(self, rng):
        assert checks.check_trotter_bounds(5, rng).passed


class TestSuiteRunner:
    def test_full_suite_passes(self):
        results = checks.run_suite("all", trials=10, seed=123)
        assert [r.name for r in results] == checks.SUITE_NAMES
        assert all(r.passed for r in results)

    def test_single_suite_matches_full_run(self):
        full = checks.run_suite("all", trials=10, seed=123)
        single = checks.run_suite("twirl_structure", trials=10, seed=123)
        assert len(single) == 1
        full_result = next(r for r in full if r.name == "twirl_structure")
        assert single[0].name == full_result.name
        assert single[0].passed == full_result.passed
        assert single[0].instances == full_result.instances

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown"):
            checks.run_suite("bogus", trials=5, seed=1)

    def test_reproducible(self):
        a = checks.run_suite("pauli_diag_bound", trials=10, seed=5)[0]
        b = checks.run_suite("pauli_diag_bound", trials=10, seed=5)[0]
        assert a.failures == b.failures
        assert a.instances == b.instances

    def test_failure_records_have_seeds(self, rng):
        # force a failure by checking an impossible bound through the
        # recording helper directly
        result = checks.CheckResult("synthetic", 1)
        checks._record(result, seed=42, lhs=2.0, rhs=1.0, tol=0.0, label="demo")
        assert not result.passed
        failure = result.failures[0]
        assert failure.seed == 42
        assert failure.margin == -1.0
        assert "FAIL" in result.summary()
