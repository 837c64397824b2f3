"""Timing wrappers around lindet's public functions, for the traced run.

Each wrapper goes on the module attribute where callers look the function
up (``superop.exp`` is wrapped as ``lindet.bell.exp``, ``lindet.twirl.exp``
and so on) and records a span (name, start, end, parent) in memory. A
layer's self time is its span's duration minus the durations of its direct
children; calls nest and never overlap, since detection runs with one
thread. A target that the program no longer has is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# span name -> lookup sites "module:attribute"
TARGETS = {
    "config.load_config": ["lindet.cli:load_config"],
    "config.build_lindbladian": ["lindet.cli:build_lindbladian"],
    "superop.from_lindbladian": [
        "lindet.detector:from_lindbladian", "lindet.bell:from_lindbladian",
        "lindet.twirl:from_lindbladian", "lindet.checks:from_lindbladian",
    ],
    "superop.exp": ["lindet.bell:exp", "lindet.twirl:exp", "lindet.checks:exp"],
    "superop.eigenvalues": ["lindet.superop:eigenvalues", "lindet.checks:eigenvalues"],
    "superop.diamond_bounds": ["lindet.twirl:diamond_bounds", "lindet.checks:diamond_bounds"],
    "twirl.trotterized_twirled": [
        "lindet.bell:trotterized_twirled", "lindet.checks:trotterized_twirled",
    ],
    "twirl.twirl_average": ["lindet.checks:twirl_average"],
    "bell.sampled_frame_channel": ["lindet.bell:sampled_frame_channel"],
    "bell.run_round": ["lindet.detector:run_round"],
    "detector.run_detection": ["lindet.cli:run_detection"],
    "cli.cmd_detect": ["lindet.cli:cmd_detect"],
    "cli.cmd_verify": ["lindet.cli:cmd_verify"],
}
# The eight verify checks are wrapped in place inside lindet.checks.SUITE.
CHECK_NAMES = (
    "jordan_trace", "decay_primitive_dephasing", "decay_primitive_depolarizing",
    "pauli_diag_bound", "twirl_structure", "alpha_structure", "norm_comparison",
    "trotter_bounds",
)

# per-layer metric read from the spans -> unit; values are per pass
PER_LAYER = {
    "config.load_s": "s",
    "superop.from_lindbladian_s": "s",
    "superop.from_lindbladian_calls": "count",
    "superop.exp_s": "s",
    "superop.exp_calls": "count",
    "twirl.trotterized_twirled_self_s": "s",
    "bell.sampled_frame_channel_self_s": "s",
    "bell.slices": "count",
    "bell.run_round_self_s": "s",
    "detector.run_detection_self_s": "s",
    "detector.rounds": "count",
    "cli.cmd_detect_self_s": "s",
    "cli.cmd_verify_self_s": "s",
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "checks.instances": "count",
    "superop.eigenvalues_s": "s",
    "superop.diamond_bounds_s": "s",
    "twirl.twirl_average_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._suite = None

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                key, amount = count(args, result)
                self.counts[key] += amount
            return result

        return wrapper

    def install(self) -> None:
        counters = {
            "bell.sampled_frame_channel": lambda a, r: ("bell.slices", len(a[2])),
            "detector.run_detection": lambda a, r: ("detector.rounds", len(r.rounds)),
        }
        for name, sites in TARGETS.items():
            for site in sites:
                module_name, attr = site.split(":")
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counters.get(name)))
        try:
            suite = importlib.import_module("lindet.checks").SUITE
        except (ImportError, AttributeError):
            self.missing.append("lindet.checks:SUITE")
            return
        self._suite = (suite, list(suite))
        instances = lambda a, r: ("checks.instances", r.instances)  # noqa: E731
        for i, (name, builder) in enumerate(suite):
            suite[i] = (name, self._wrap(f"checks.{name}", builder, instances))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if self._suite is not None:
            suite, original = self._suite
            suite[:] = original
            self._suite = None

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            own[name] += end - start - c
        return inclusive, own, calls

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, per pass of the workload."""
        inclusive, own, calls = self.totals()
        values = {
            "config.load_s": inclusive["config.load_config"] + inclusive["config.build_lindbladian"],
            "superop.from_lindbladian_s": inclusive["superop.from_lindbladian"],
            "superop.from_lindbladian_calls": calls["superop.from_lindbladian"],
            "superop.exp_s": inclusive["superop.exp"],
            "superop.exp_calls": calls["superop.exp"],
            "twirl.trotterized_twirled_self_s": own["twirl.trotterized_twirled"],
            "bell.sampled_frame_channel_self_s": own["bell.sampled_frame_channel"],
            "bell.slices": self.counts["bell.slices"],
            "bell.run_round_self_s": own["bell.run_round"],
            "detector.run_detection_self_s": own["detector.run_detection"],
            "detector.rounds": self.counts["detector.rounds"],
            "cli.cmd_detect_self_s": own["cli.cmd_detect"],
            "cli.cmd_verify_self_s": own["cli.cmd_verify"],
            **{f"checks.{n}_s": inclusive[f"checks.{n}"] for n in CHECK_NAMES},
            "checks.instances": self.counts["checks.instances"],
            "superop.eigenvalues_s": inclusive["superop.eigenvalues"],
            "superop.diamond_bounds_s": inclusive["superop.diamond_bounds"],
            "twirl.twirl_average_s": inclusive["twirl.twirl_average"],
        }
        return {k: v / passes for k, v in values.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "spans": [list(s) for s in self.spans]}, fh)
