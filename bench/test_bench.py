"""Tests of the benchmark itself: ``python -m pytest bench/test_bench.py``.

The reference is checked against the closed forms and against lindet's own
transfer matrices; the workload checks are shown to count failed ops on
throwaway copies of the program with a known fault put in.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import tracing  # noqa: E402


def bundled(name: str) -> reference.Generator:
    return reference.Generator.from_file(os.path.join(ROOT, "configs", f"{name}.yaml"))


def random_frames(m: int, seed: int) -> list[str]:
    return ["IXYZ"[c] for c in np.random.default_rng(seed).integers(0, 4, size=m)]


@pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 17.0])
@pytest.mark.parametrize("m", [1, 64, 76800])
def test_reference_matches_closed_forms(t, m):
    for name, closed in (("depolarizing_quarter", reference.depolarizing_quarter),
                         ("dephasing_strong", reference.dephasing_strong)):
        gen = bundled(name)
        assert gen.averaged_p_identity(t, m) == pytest.approx(closed(t), abs=1e-13)
        if m <= 64:
            assert gen.sampled_p_identity(t, random_frames(m, 1)) == pytest.approx(closed(t), abs=1e-13)
    gen = bundled("hamiltonian_z")
    # At m = 1 and t = 17 the reference takes its dense-exponential branch.
    assert gen.averaged_p_identity(t, m) == pytest.approx(
        reference.hamiltonian_z_averaged(t, m), abs=1e-11)
    assert reference.hamiltonian_z_averaged(t, m) == pytest.approx(
        (1 + math.cos(2 * t / m) ** m) / 2, abs=1e-10)
    if m <= 64:
        frames = random_frames(m, 2)
        assert gen.sampled_p_identity(t, frames) == pytest.approx(
            reference.hamiltonian_z_sampled(t, frames), abs=1e-12)


def test_derived_constants_of_bundled_configs():
    # m and R at epsilon = 0.5, delta = 0.1 (ROADMAP baseline: 9.6e3, 7.7e4, 2.9e5).
    expected = {"dephasing_strong": 9603, "hamiltonian_z": 76800, "depolarizing_quarter": 292032}
    for name, m in expected.items():
        promise = bundled(name).promise(0.5, 0.1)
        assert (promise.m, promise.rounds) == (m, 277)
    promise = bundled("two_qubit_mixed").promise(0.5, 0.1)
    assert promise.rounds == 2487 and 2.7e8 < promise.m < 2.9e8


def test_transfer_matrix_matches_lindet():
    from lindet.config import parse_config
    from lindet.superop import from_lindbladian

    for name in ("two_qubit_mixed", "dephasing_strong"):
        path = os.path.join(ROOT, "configs", f"{name}.yaml")
        ours = reference.Generator.from_file(path).ptm
        theirs = from_lindbladian(parse_config(path)).mat
        assert np.abs(ours - theirs).max() < 1e-12


def test_taylor_diagonal_matches_dense_exponential():
    gen = bundled("two_qubit_mixed")
    import scipy.linalg

    for tau in (1e-7, 1e-4):
        dense = np.diag(scipy.linalg.expm(tau * gen.ptm)) - 1.0
        assert np.abs(gen.slice_diag_minus_one(tau) - dense).max() < 1e-15


def test_missing_trace_target_is_reported(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "gone.function",
                        ["lindet.cli:no_such_function", "lindet.no_such_module:f"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import lindet.bell

        assert lindet.bell.exp.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert tracer.missing == ["lindet.cli:no_such_function", "lindet.no_such_module:f"]
    assert not hasattr(lindet.bell.exp, "__wrapped__")
    assert tracer.metrics(1)["superop.exp_calls"] == 0


def _copy_checkout(dest: str, with_program: bool = True) -> None:
    shutil.copytree(BENCH, os.path.join(dest, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        for sub in ("src", "configs"):
            shutil.copytree(os.path.join(ROOT, sub), os.path.join(dest, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))


def _run(dest: str, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=dest, capture_output=True, text=True, timeout=170)


MUTATIONS = {
    "none": None,
    "untwirled_slice": ("src/lindet/twirl.py",
                        "return twirl_exact(exp(generator, tau))",
                        "return exp(generator, tau)"),
    "p_identity_shift": ("src/lindet/bell.py",
                         "p = _clamp_probability(identity_fraction(channel))",
                         "p = _clamp_probability(identity_fraction(channel) - 1e-9)"),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_workload_checks_count_failed_ops(tmp_path, mutation):
    _copy_checkout(str(tmp_path))
    if MUTATIONS[mutation]:
        rel, old, new = MUTATIONS[mutation]
        path = tmp_path / rel
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
    proc = _run(str(tmp_path), "detect-averaged")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] % 6 == 0  # whole passes of the six detect ops
    if mutation == "none":
        assert (result["correct"], result["failed"]) == (True, 0)
    else:
        assert result["failed"] > 0 and not result["correct"]
    print(mutation, result["attempted"], result["failed"])


def test_exits_nonzero_without_the_program(tmp_path):
    _copy_checkout(str(tmp_path), with_program=False)
    proc = _run(str(tmp_path), "detect-sampled")
    assert proc.returncode != 0
    assert proc.stdout == ""
