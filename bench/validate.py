"""Checks of each op's output against the independent reference.

A check returns the list of problems it found; an op with any problem
counts as failed. Only ``replay`` calls into lindet: it reruns a sampled
detection through ``detector.run_detection`` to recover the Pauli frames the
CLI report leaves out, and requires the rerun to reproduce that report.
"""

from __future__ import annotations

import json
import math
import re

import reference
from workloads import DELTA, EPSILON, VERIFY_TRIALS, Op, verify_instances

EXIT_ACCEPT, EXIT_REJECT = 0, 2
_SUMMARY = re.compile(r"^(\w+): (PASS|FAIL|SKIPPED)(?: \[(\d+) instances\])?")


def replay(config_path: str, report: dict) -> tuple[list[list[str]] | None, list[str]]:
    """Frames per round from a rerun with the report's own params."""
    from lindet.config import build_lindbladian, load_config
    from lindet.detector import DetectionParams, Overrides, run_detection

    params = dict(report["params"])
    params["overrides"] = Overrides(**params["overrides"])
    config = load_config(config_path)
    rerun = run_detection(build_lindbladian(config), DetectionParams(**params),
                          max_qubits=config.capacity)
    rerun_dict = json.loads(json.dumps(rerun.to_dict()))
    frames = [r.pop("pauli_frames") for r in rerun_dict["rounds"]]
    if rerun_dict != report:
        return None, ["replay through run_detection does not reproduce the CLI report"]
    return frames, []


def work_units(op: Op, stdout: str, report: dict | None) -> int:
    """Detection rounds (averaged), slices (sampled) or check instances (verify)."""
    if op.command == "verify":
        return sum(count or 0 for _, count in verify_summary(stdout).values())
    if report is None:
        return 0
    return report["query_count"] if op.mode == "sampled_pauli" else len(report["rounds"])


def _reference_p(op: Op, gen: reference.Generator, t: float, m: int,
                 frames: list[str] | None) -> float:
    if op.config == "depolarizing_quarter":
        return reference.depolarizing_quarter(t)
    if op.config == "dephasing_strong":
        return reference.dephasing_strong(t)
    if op.mode == "averaged":
        if op.config == "hamiltonian_z":
            return reference.hamiltonian_z_averaged(t, m)
        return gen.averaged_p_identity(t, m)
    if op.config == "hamiltonian_z":
        return reference.hamiltonian_z_sampled(t, frames)
    return gen.sampled_p_identity(t, frames)


def needs_frames(op: Op) -> bool:
    """Frames change p only for sampled rounds of a non-Pauli-diagonal generator."""
    return op.mode == "sampled_pauli" and op.config in ("hamiltonian_z", "two_qubit_mixed")


def check_detect(op: Op, rc: int, report: dict | None, gen: reference.Generator,
                 frames: list[list[str]] | None) -> list[str]:
    if report is None:
        return [f"exit code {rc} and no report"]
    problems = []
    promise = gen.promise(EPSILON, DELTA)
    m = op.override_m if op.override_m is not None else promise.m
    planned = op.override_rounds if op.override_rounds is not None else promise.rounds
    if report["m"] != m:
        problems.append(f"m = {report['m']}, expected {m}")
    if report["rounds_planned"] != planned:
        problems.append(f"R = {report['rounds_planned']}, expected {planned}")
    for key, want in (("t_max", promise.t_max), ("epsilon_prime", promise.epsilon_prime)):
        if not math.isclose(report[key], want, rel_tol=1e-12):
            problems.append(f"{key} = {report[key]!r}, expected {want!r}")

    rounds = report["rounds"]
    if not 1 <= len(rounds) <= planned:
        return problems + [f"{len(rounds)} rounds executed of {planned} planned"]
    times = [r["t_used"] for r in rounds]
    if report["query_count"] != report["m"] * len(rounds):
        problems.append(f"query_count {report['query_count']} != m x {len(rounds)} rounds")
    total = sum(times)
    if abs(report["total_evolution_time"] - total) > 4 * reference.UNIT_ROUNDOFF * len(times) * total:
        problems.append(f"total_evolution_time {report['total_evolution_time']!r} != sum {total!r}")

    rejected = [r["rejected"] for r in rounds]
    verdict = "REJECT" if rejected[-1] else "ACCEPT"
    if report["verdict"] != verdict or any(rejected[:-1]):
        problems.append(f"verdict {report['verdict']} does not follow the round outcomes")
    if verdict == "ACCEPT" and len(rounds) != planned:
        problems.append("ACCEPT before all planned rounds ran")
    if report["rejecting_round"] != (len(rounds) - 1 if rejected[-1] else None):
        problems.append(f"rejecting_round {report['rejecting_round']} is wrong")
    if rc != (EXIT_REJECT if report["verdict"] == "REJECT" else EXIT_ACCEPT):
        problems.append(f"exit code {rc} for verdict {report['verdict']}")

    tol = reference.p_tolerance(op.mode, report["m"], gen.d**2)
    for i, r in enumerate(rounds):
        t = r["t_used"]
        if not 0.0 <= t <= report["t_max"]:
            problems.append(f"round {i}: t_used {t!r} outside [0, t_max]")
            continue
        want = _reference_p(op, gen, t, report["m"], frames[i] if frames else None)
        want = min(1.0, max(0.0, want))
        if abs(r["p_identity"] - want) > tol:
            problems.append(
                f"round {i}: p_identity {r['p_identity']!r}, reference {want!r} (tol {tol:.1e})"
            )
    return problems


def verify_summary(stdout: str) -> dict[str, tuple[str, int | None]]:
    out = {}
    for line in stdout.splitlines():
        match = _SUMMARY.match(line)
        if match:
            count = match.group(3)
            out[match.group(1)] = (match.group(2), int(count) if count else None)
    return out


def check_verify(rc: int, stdout: str) -> list[str]:
    problems = [] if rc == EXIT_ACCEPT else [f"exit code {rc}"]
    summary = verify_summary(stdout)
    expected = verify_instances(VERIFY_TRIALS)
    if list(summary) != list(expected):
        return problems + [f"checks reported {list(summary)}, expected {list(expected)}"]
    for name, count in expected.items():
        if summary[name] != ("PASS", count):
            problems.append(f"{name}: {summary[name]}, expected PASS with {count} instances")
    return problems
