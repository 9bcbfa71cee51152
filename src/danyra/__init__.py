"""Anytime-feasible distributed resource allocation: simulator, oracles, metrics."""

from .engine import (
    SwarmState,
    init_state,
    iterate,
    lyapunov_metric,
    state_difference,
)
from .errors import (
    ConfigError,
    DanyraError,
    DegenerateInstanceError,
    DivergenceError,
    InvalidInstanceError,
    ModeError,
    OracleFailureError,
    TopologyError,
    UnsupportedProblemError,
)
from .metrics import (
    BoundsReport,
    bounds_report,
    optimality_gap,
    recovery_iteration,
    slack_sum,
    violation_l1,
)
from .netsim import DisturbanceEvent, ExperimentPlan, Trace, apply_disturbance, run_experiment
from .oracle import (
    OracleSolution,
    kkt_residuals,
    reference_projected_gradient,
    solve_active_set,
    solve_equality,
)
from .problem import (
    EQUALITY,
    INEQUALITY,
    BufferSchedule,
    CallableCost,
    ConditionCheck,
    ConditionReport,
    HyperParams,
    ProblemInstance,
    SpectralConstants,
    Topology,
    compute_projector,
    generate_instance,
    instance_from_json,
    instance_to_json,
    metropolis_weights,
    spectral_constants,
    validate_hyperparams,
)

__version__ = "0.1.0"
