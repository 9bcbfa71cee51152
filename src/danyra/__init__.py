"""Anytime-feasible distributed resource allocation: simulator, oracles, metrics."""

from .engine import SwarmState, init_state, iterate
from .errors import ConfigError, DanyraError, DivergenceError, InvalidInstanceError, OracleFailureError, TopologyError
from .netsim import (
    DisturbanceEvent, ExperimentPlan, Trace, apply_disturbance, optimality_gap, run_experiment, slack_sum, violation_l1,
)
from .oracle import OracleSolution, solve_active_set, solve_equality
from .problem import (
    EQUALITY, INEQUALITY, BufferSchedule, CallableCost, HyperParams, ProblemInstance, SpectralConstants, Topology,
    generate_instance, instance_from_json, instance_to_json, metropolis_weights, spectral_constants,
)
from .theory import BoundsReport, ConditionCheck, ConditionReport, bounds_report, recovery_iteration, validate_hyperparams

# the public names; tests/test_inputs.py holds one row per name, saying which numbers it takes from a caller
__all__ = [
    "SwarmState", "init_state", "iterate",
    "ConfigError", "DanyraError", "DivergenceError", "InvalidInstanceError", "OracleFailureError", "TopologyError",
    "optimality_gap", "slack_sum", "violation_l1",
    "DisturbanceEvent", "ExperimentPlan", "Trace", "apply_disturbance", "run_experiment",
    "OracleSolution", "solve_active_set", "solve_equality",
    "EQUALITY", "INEQUALITY", "BufferSchedule", "CallableCost", "HyperParams", "ProblemInstance", "SpectralConstants",
    "Topology", "generate_instance", "instance_from_json", "instance_to_json", "metropolis_weights",
    "spectral_constants",
    "BoundsReport", "ConditionCheck", "ConditionReport", "bounds_report", "recovery_iteration", "validate_hyperparams",
]

__version__ = "0.1.0"
