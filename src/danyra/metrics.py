"""Per-row measurements of a state: the coupled constraint's violation and slack, and the optimality gap."""

from __future__ import annotations

import numpy as np

from .engine import SwarmState
from .oracle import OracleSolution
from .problem import ProblemInstance, agent_sum


def violation_l1(instance: ProblemInstance, state: SwarmState) -> float:
    """1-norm of the positive part of ``sum_i (A_i x_i - d_i)``, from the state's ``Ax_sum``."""
    total = state.Ax_sum - instance.demand_total
    np.maximum(total, 0.0, out=total)
    return float(total.sum())


def optimality_gap(x: np.ndarray, oracle: OracleSolution) -> float:
    """Squared Euclidean distance of the stacked decision from the optimum."""
    diff = np.asarray(x, dtype=float).reshape(-1) - oracle.stacked
    return float(diff @ diff)


def slack_sum(instance: ProblemInstance, state: SwarmState) -> np.ndarray:
    """``sum_i (A_i x_i + delta_i - d_i)`` from the state's ``Ax_sum``; contracts by (1 - gamma) each iteration."""
    total = state.Ax_sum - instance.demand_total
    if state.delta is not None:
        total += agent_sum(state.delta)
    return total
