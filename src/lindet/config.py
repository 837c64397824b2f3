"""Generator config files: YAML schema and validation straight into the model.

Schema (all Pauli strings use the text form over {I,X,Y,Z}, leftmost
character = qubit 0; jump coefficients are (re, im) pairs for portability):

    n: 2                          # qubit count (required)
    hamiltonian:                  # optional list of real Pauli terms
      - {pauli: ZZ, coeff: 1.0}
    jumps:                        # optional list of jump operators
      - support: [0]              # optional; derived from terms if omitted
        terms:
          - {pauli: ZI, re: 0.5, im: 0.0}
    declared_k: 1                 # optional; must match the derived locality
    declared_degree: 1            # optional; must match the derived degree
    capacity_override: 5          # optional; raises the dense-capacity cap

Reals may use exponent notation (``1e-3``) and must be finite. A quoted
scalar is a string, so ``coeff: "1.0"`` and ``n: "1"`` are rejected. Validation
errors carry the line of the offending YAML node. Identity jump terms are
rejected (jump operators are traceless by convention); an identity
Hamiltonian term is dropped silently (it is a pure phase).
"""

from __future__ import annotations

import sys
from contextlib import suppress
from dataclasses import dataclass

import yaml

from .errors import ConfigError
from .model import (
    HamiltonianSpec,
    JumpOperator,
    JumpOperatorSet,
    Lindbladian,
    derive_locality_degree,
)
from .paulis import DEFAULT_MAX_QUBITS, HARD_MAX_QUBITS, PauliString


@dataclass(frozen=True)
class GeneratorConfig:
    lindbladian: Lindbladian
    capacity_override: int | None

    @property
    def capacity(self) -> int:
        return self.capacity_override or DEFAULT_MAX_QUBITS


def _line(node: yaml.Node) -> int:
    return node.start_mark.line + 1


def _scalar(node: yaml.Node, what: str):
    """The node's value by the tag its composer resolved (a quoted scalar is
    always a string)."""
    if not isinstance(node, yaml.ScalarNode):
        raise ConfigError(f"{what} must be a scalar", _line(node))
    return yaml.constructor.SafeConstructor().construct_object(node)


def _expect_int(node: yaml.Node, what: str) -> int:
    value = _scalar(node, what)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}", _line(node))
    return value


def _expect_real(node: yaml.Node, what: str) -> float:
    value = _scalar(node, what)
    if isinstance(value, str) and node.style is None:
        # YAML 1.1 reads a plain 1e-3 (no dot) as a string
        with suppress(ValueError):
            value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a real number, got {value!r}", _line(node))
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{what} must be finite, got {value!r}", _line(node))
    return float(value)


def _expect_str(node: yaml.Node, what: str) -> str:
    if not isinstance(node, yaml.ScalarNode):
        raise ConfigError(f"{what} must be a string", _line(node))
    return str(node.value)


def _mapping_items(node: yaml.Node, what: str) -> dict[str, yaml.Node]:
    if not isinstance(node, yaml.MappingNode):
        raise ConfigError(f"{what} must be a mapping", _line(node))
    out: dict[str, yaml.Node] = {}
    for key_node, value_node in node.value:
        key = _expect_str(key_node, f"{what} key")
        if key in out:
            raise ConfigError(f"duplicate key {key!r} in {what}", _line(key_node))
        out[key] = value_node
    return out


def _sequence_items(node: yaml.Node, what: str) -> list[yaml.Node]:
    if not isinstance(node, yaml.SequenceNode):
        raise ConfigError(f"{what} must be a sequence", _line(node))
    return list(node.value)


def _parse_pauli(node: yaml.Node, n: int, what: str) -> PauliString:
    text = _expect_str(node, what)
    if len(text) != n:
        raise ConfigError(
            f"{what} {text!r} has length {len(text)}, expected n={n}", _line(node)
        )
    if any(ch not in "IXYZ" for ch in text):
        raise ConfigError(
            f"{what} {text!r} contains letters outside I/X/Y/Z", _line(node)
        )
    return PauliString.from_text(text)


def load_config(path: str) -> GeneratorConfig:
    """Parse and validate a generator config file into its Lindbladian."""
    try:
        with open(path) as fh:
            root = yaml.compose(fh, Loader=yaml.SafeLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ConfigError(
            f"not well-formed YAML: {exc}",
            mark.line + 1 if mark is not None else None,
        ) from exc
    if root is None:
        raise ConfigError("config file is empty")
    top = _mapping_items(root, "config")

    allowed = {
        "n",
        "hamiltonian",
        "jumps",
        "declared_k",
        "declared_degree",
        "capacity_override",
    }
    for key_node, _ in root.value:
        key = str(key_node.value)
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", _line(key_node))

    if "n" not in top:
        raise ConfigError("missing required key 'n'", _line(root))
    n = _expect_int(top["n"], "n")
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}", _line(top["n"]))

    capacity_override = None
    if "capacity_override" in top:
        capacity_override = _expect_int(top["capacity_override"], "capacity_override")
        if not 1 <= capacity_override <= HARD_MAX_QUBITS:
            raise ConfigError(
                f"capacity_override must lie in [1, {HARD_MAX_QUBITS}], "
                f"got {capacity_override}",
                _line(top["capacity_override"]),
            )
    capacity = capacity_override or DEFAULT_MAX_QUBITS
    if n > capacity:
        raise ConfigError(
            f"n={n} exceeds the dense capacity {capacity} "
            "(set capacity_override to raise it, up to "
            f"{HARD_MAX_QUBITS})",
            _line(top["n"]),
        )

    ham_terms: list[tuple[PauliString, float]] = []
    if "hamiltonian" in top:
        for item in _sequence_items(top["hamiltonian"], "hamiltonian"):
            fields = _mapping_items(item, "hamiltonian term")
            if set(fields) != {"pauli", "coeff"}:
                raise ConfigError(
                    "hamiltonian term must have exactly the keys pauli, coeff",
                    _line(item),
                )
            p = _parse_pauli(fields["pauli"], n, "hamiltonian pauli")
            ham_terms.append((p, _expect_real(fields["coeff"], "hamiltonian coeff")))

    jumps: list[JumpOperator] = []
    if "jumps" in top:
        for item in _sequence_items(top["jumps"], "jumps"):
            fields = _mapping_items(item, "jump")
            extra = set(fields) - {"support", "terms"}
            if extra:
                raise ConfigError(
                    f"unknown jump keys {sorted(extra)}", _line(item)
                )
            if "terms" not in fields:
                raise ConfigError("jump is missing 'terms'", _line(item))
            support: frozenset[int] | None = None
            if "support" in fields:
                nodes = _sequence_items(fields["support"], "support")
                idx = [_expect_int(node, "support index") for node in nodes]
                for node, q in zip(nodes, idx):
                    if not 0 <= q < n:
                        raise ConfigError(
                            f"support index {q} outside range(0, {n})", _line(node)
                        )
                if len(set(idx)) != len(idx):
                    raise ConfigError(
                        "support contains duplicate indices", _line(fields["support"])
                    )
                support = frozenset(idx)
            coeffs: dict[PauliString, complex] = {}
            term_nodes = _sequence_items(fields["terms"], "terms")
            if not term_nodes:
                raise ConfigError("jump has no terms", _line(fields["terms"]))
            for term_node in term_nodes:
                tfields = _mapping_items(term_node, "jump term")
                if set(tfields) != {"pauli", "re", "im"}:
                    raise ConfigError(
                        "jump term must have exactly the keys pauli, re, im",
                        _line(term_node),
                    )
                p = _parse_pauli(tfields["pauli"], n, "jump pauli")
                if p.is_identity:
                    raise ConfigError(
                        "identity jump term not allowed: jump operators are "
                        "traceless (identity components belong to the "
                        "Hamiltonian and are not absorbed silently)",
                        _line(tfields["pauli"]),
                    )
                if p in coeffs:
                    raise ConfigError(
                        f"duplicate jump term {p.text()!r}", _line(tfields["pauli"])
                    )
                coeffs[p] = complex(
                    _expect_real(tfields["re"], "re"), _expect_real(tfields["im"], "im")
                )
            term_support = frozenset().union(*(p.support for p in coeffs))
            if support is None:
                support = term_support
            elif not term_support <= support:
                raise ConfigError(
                    f"jump terms act on {sorted(term_support)}, outside the "
                    f"declared support {sorted(support)}",
                    _line(item),
                )
            jumps.append(JumpOperator(n, support, coeffs))

    declared_k = (
        _expect_int(top["declared_k"], "declared_k") if "declared_k" in top else None
    )
    declared_degree = (
        _expect_int(top["declared_degree"], "declared_degree")
        if "declared_degree" in top
        else None
    )

    lind = Lindbladian(
        n, HamiltonianSpec.from_terms(n, ham_terms), JumpOperatorSet(n, tuple(jumps))
    )
    # Validate declared locality/degree against the derived values now so the
    # error points at this file rather than a later detection run.
    derived_k, derived_degree = derive_locality_degree(lind.dissipator)
    if declared_k is not None and declared_k != derived_k:
        raise ConfigError(
            f"declared_k={declared_k} does not match derived locality {derived_k}",
            _line(top["declared_k"]),
        )
    if declared_degree is not None and declared_degree != derived_degree:
        raise ConfigError(
            f"declared_degree={declared_degree} does not match derived "
            f"degree {derived_degree}",
            _line(top["declared_degree"]),
        )
    return GeneratorConfig(lind, capacity_override)


def build_lindbladian(config: GeneratorConfig) -> Lindbladian:
    """The generator of a loaded config."""
    return config.lindbladian


def parse_config(path: str) -> Lindbladian:
    """Load and validate a generator config as a Lindbladian."""
    return load_config(path).lindbladian
