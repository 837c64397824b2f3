"""Dissipation detection in Lindbladian dynamics via Bell sampling.

Dense superoperator simulation of local Lindblad generators, exact and
sampled Pauli twirling with Trotterized composition, the randomized
certification procedure with derived constants and budgets, and a
brute-force suite verifying every structural inequality the procedure
relies on at small qubit counts.
"""

from .errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    DomainError,
    LindetError,
    NumericError,
)
from .paulis import PauliString
from .model import (
    DiagonalDissipator,
    HamiltonianSpec,
    JumpOperator,
    JumpOperatorSet,
    Lindbladian,
)
from .superop import SuperOperator
from .bell import RoundOutcome
from .detector import DetectionParams, DetectionReport, Overrides

__all__ = [
    "CapacityError",
    "ConfigError",
    "ConsistencyError",
    "DetectionParams",
    "DetectionReport",
    "DiagonalDissipator",
    "DimensionError",
    "DomainError",
    "HamiltonianSpec",
    "JumpOperator",
    "JumpOperatorSet",
    "Lindbladian",
    "LindetError",
    "NumericError",
    "Overrides",
    "PauliString",
    "RoundOutcome",
    "SuperOperator",
]

__version__ = "0.1.0"
