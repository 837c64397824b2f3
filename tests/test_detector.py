import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lindet
from lindet import detector, instances
from lindet.bell import run_round
from lindet.detector import (
    DetectionParams,
    Overrides,
    derive_parameters,
    run_detection,
)
from lindet.errors import DomainError
from lindet.model import diamond_upper_bound

from helpers import hamiltonian_only


def dephasing_setup(mode="averaged", seed=0, **kwargs):
    lind = instances.dephasing(0.3536)
    params = DetectionParams(
        epsilon=0.5,
        delta=0.1,
        k=1,
        degree=1,
        l_bound=diamond_upper_bound(lind),
        mode=mode,
        seed=seed,
        **kwargs,
    )
    return lind, params


class TestDeriveParameters:
    def test_reference_point(self):
        derived = derive_parameters(DetectionParams(0.5, math.exp(-1), 1, 1, 1.0))
        assert derived.epsilon_prime == 0.05
        assert derived.m == 19200
        assert derived.rounds == 120
        assert derived.t_max == 20.0

    def test_locality_two(self):
        derived = derive_parameters(DetectionParams(0.5, math.exp(-1), 2, 1, 1.0))
        assert derived.rounds == 1080
        assert derived.epsilon_prime == pytest.approx(0.5 / 34)

    def test_round_count_floored_at_one(self):
        derived = derive_parameters(DetectionParams(0.5, 0.9999999, 1, 1, 1.0))
        assert derived.rounds == 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            derive_parameters(DetectionParams(0.0, 0.1, 1, 1, 1.0))
        with pytest.raises(DomainError):
            derive_parameters(DetectionParams(0.5, 1.0, 1, 1, 1.0))
        with pytest.raises(DomainError):
            derive_parameters(DetectionParams(0.5, 0.1, 0, 1, 1.0))
        with pytest.raises(DomainError):
            derive_parameters(DetectionParams(0.5, 0.1, 1, 1, -1.0))
        with pytest.raises(DomainError):
            derive_parameters(
                DetectionParams(
                    0.5, 0.1, 1, 1, 1.0, overrides=Overrides(t_max_factor=0.0)
                )
            )


class TestTheoreticalBudgets:
    def test_reference_point(self):
        derived = derive_parameters(DetectionParams(0.5, math.exp(-1), 1, 1, 1.0))
        assert derived.t_bound == 2400.0
        assert derived.q_bound == 2304000

    def test_inverse_epsilon_scaling(self):
        base = derive_parameters(DetectionParams(0.5, math.exp(-1), 1, 1, 1.0))
        halved = derive_parameters(DetectionParams(0.25, math.exp(-1), 1, 1, 1.0))
        assert halved.t_bound == 2 * base.t_bound
        assert halved.t_max == 2 * base.t_max


class TestRunDetection:
    def test_zero_generator_accepts(self):
        lind = hamiltonian_only(2, [])
        params = DetectionParams(0.5, 0.3, 1, 1, 1.0, mode="averaged", seed=5)
        report = run_detection(lind, params)
        assert report.verdict == "ACCEPT"
        assert all(r.p_identity == 1.0 for r in report.rounds)
        assert len(report.rounds) == report.derived.rounds

    def test_hamiltonian_accepts_in_large_slice_limit(self):
        # finite slicing leaves a residual O((||H|| t)^2 / m) on the identity
        # probability for coherent dynamics; with a large enough slice count
        # the acceptance side becomes numerically exact
        lind = hamiltonian_only(1, [("Z", 0.8)])
        params = DetectionParams(
            0.5,
            0.3,
            1,
            1,
            diamond_upper_bound(lind),
            mode="averaged",
            seed=3,
            overrides=Overrides(m=2**40),
        )
        report = run_detection(lind, params)
        assert report.verdict == "ACCEPT"
        assert min(r.p_identity for r in report.rounds) >= 1 - 1e-9

    def test_dephasing_rejects(self):
        lind, params = dephasing_setup(seed=2)
        report = run_detection(lind, params)
        assert report.verdict == "REJECT"
        assert report.rejecting_round is not None
        assert report.rounds[-1].rejected
        assert all(not r.rejected for r in report.rounds[:-1])

    def test_budget_accounting(self):
        lind, params = dephasing_setup(seed=2)
        report = run_detection(lind, params)
        derived = report.derived
        assert report.query_count == derived.m * len(report.rounds)
        assert report.total_evolution_time <= derived.rounds * derived.t_max
        assert all(0 <= r.t_used <= derived.t_max for r in report.rounds)

    def test_no_round_runs_past_the_first_rejection(self, monkeypatch):
        # rounds run one after another, whatever the environment asks for
        monkeypatch.setenv("LINDET_THREADS", "2")
        calls = []

        def counting_run_round(*args, **kwargs):
            calls.append(1)
            return run_round(*args, **kwargs)

        monkeypatch.setattr(detector, "run_round", counting_run_round)
        reported = 0
        for seed in range(6):
            lind, params = dephasing_setup(seed=seed)
            reported += len(run_detection(lind, params).rounds)
        assert len(calls) == reported

    @pytest.mark.parametrize("mode", ["averaged", "sampled_pauli"])
    @pytest.mark.parametrize("case", ["dephasing", "zero_generator"])
    def test_unset_promise_is_resolved_by_the_run(self, mode, case):
        # the run derives k, Delta and L from the generator and reports them
        if case == "dephasing":
            lind, overrides = instances.dephasing(0.3536), Overrides()
            promise = dict(k=1, degree=1, l_bound=diamond_upper_bound(lind))
        else:
            lind, overrides = hamiltonian_only(1, []), Overrides(m=50, rounds=3)
            promise = dict(k=1, degree=1, l_bound=1.0)
        common = dict(mode=mode, seed=5, overrides=overrides)
        unset = run_detection(lind, DetectionParams(0.5, 0.1, **common))
        explicit = run_detection(lind, DetectionParams(0.5, 0.1, **promise, **common))
        assert unset.to_dict() == explicit.to_dict()
        assert unset.params == DetectionParams(0.5, 0.1, **promise, **common)

    def test_promise_validation(self):
        lind = instances.dephasing(0.3536)
        bad = DetectionParams(0.5, 0.1, 2, 1, 1.0, seed=0)
        with pytest.raises(DomainError, match="locality"):
            run_detection(lind, bad)

    def test_low_l_bound_flagged(self):
        lind, _ = dephasing_setup()
        params = DetectionParams(
            0.5, 0.1, 1, 1, 0.01, mode="averaged", seed=1
        )
        report = run_detection(lind, params)
        assert any("below the computable bound" in w for w in report.warnings)

    def test_overrides_recorded(self):
        lind, _ = dephasing_setup()
        params = DetectionParams(
            0.5,
            0.1,
            1,
            1,
            1.0,
            mode="averaged",
            seed=1,
            overrides=Overrides(m=32, rounds=10),
        )
        report = run_detection(lind, params)
        assert report.derived.m == 32
        assert report.derived.rounds == 10
        assert any("overridden" in w for w in report.warnings)

    def test_soundness_over_seeds(self):
        # quick statistical soundness: the acceptance suite runs the full
        # 20-seed version in both modes
        lind, _ = dephasing_setup()
        rejections = 0
        for seed in range(8):
            _, params = dephasing_setup(seed=seed)
            rejections += run_detection(lind, params).verdict == "REJECT"
        assert rejections >= 7

    def test_report_serializable(self):
        lind, params = dephasing_setup(seed=4, mode="sampled_pauli")
        report = run_detection(lind, params)
        payload = json.dumps(report.to_dict())
        assert '"verdict": "REJECT"' in payload

    def test_report_frames_replay_the_round_streams(self):
        # round i draws t, then its m frames, from the (seed, i) stream; the
        # JSON report lists the frames as n-letter strings in slice order
        m, seed = 40, 11
        lind = hamiltonian_only(2, [("XZ", 0.7), ("YI", 0.2)])
        params = DetectionParams(
            0.5, 0.1, 1, 1, 2.0, mode="sampled_pauli", seed=seed,
            overrides=Overrides(m=m, rounds=3),
        )
        report = run_detection(lind, params)
        rounds = json.loads(json.dumps(report.to_dict()))["rounds"]
        assert rounds
        for index, round_dict in enumerate(rounds):
            rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
            assert rng.uniform(0.0, report.derived.t_max) == round_dict["t_used"]
            codes = rng.integers(0, 4, size=(m, 2))
            letters = ["".join("IXYZ"[c] for c in row) for row in codes]
            assert round_dict["pauli_frames"] == letters
        averaged = run_detection(lind, replace(params, mode="averaged"))
        assert all(r["pauli_frames"] == [] for r in averaged.to_dict()["rounds"])
        # frames=False gives the full report without the frames
        full = report.to_dict()
        for round_dict in full["rounds"]:
            round_dict.pop("pauli_frames")
        assert json.dumps(report.to_dict(frames=False)) == json.dumps(full)


def test_detection_path_does_not_load_oracles():
    # the oracles are for the verify suite and the tests only
    code = "import sys, lindet.detector; print('lindet.oracles' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(lindet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_cli_does_not_load_scipy():
    # scipy would bring a second OpenBLAS whose threads contend with numpy's
    code = (
        "import sys, lindet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lindet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_sampled_replay_is_exact_at_any_blas_thread_count(tmp_path):
    # the report must not depend on how OpenBLAS splits the products
    config = Path(__file__).parents[1] / "configs" / "two_qubit_mixed.yaml"
    env = dict(os.environ, PYTHONPATH=str(Path(lindet.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    reports = []
    for name, run_env in (("one", dict(env, OPENBLAS_NUM_THREADS="1")), ("unset", env)):
        out = tmp_path / f"{name}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "lindet.cli", "--seed", "9", "detect",
                "--config", str(config), "--epsilon", "0.5", "--delta", "0.1",
                "--mode", "sampled_pauli", "--full-report", "--out", str(out),
                "--override-m", "3000", "--override-rounds", "3",
            ],
            env=run_env, capture_output=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        reports.append((proc.returncode, out.read_bytes()))
    assert reports[0] == reports[1]
