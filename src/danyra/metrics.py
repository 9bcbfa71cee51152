"""Diagnostics computed from states and traces, plus the closed-form guarantees."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SwarmState
from .oracle import OracleSolution
from .problem import HyperParams, ProblemInstance, SpectralConstants, agent_sum

ZERO_VIOLATION_TOL = 1e-12


def violation_l1(instance: ProblemInstance, state: SwarmState) -> float:
    """1-norm of the positive part of ``sum_i (A_i x_i - d_i)``, from the state's ``Ax``."""
    total = agent_sum(state.Ax) - instance.demand_total
    np.maximum(total, 0.0, out=total)
    return float(total.sum())


def optimality_gap(x: np.ndarray, oracle: OracleSolution) -> float:
    """Squared Euclidean distance of the stacked decision from the optimum."""
    diff = np.asarray(x, dtype=float).reshape(-1) - oracle.stacked
    return float(diff @ diff)


def slack_sum(instance: ProblemInstance, state: SwarmState) -> np.ndarray:
    """``sum_i (A_i x_i + delta_i - d_i)`` from the state's ``Ax``; contracts by (1 - gamma) each iteration."""
    total = agent_sum(state.Ax) - instance.demand_total
    if state.delta is not None:
        total += agent_sum(state.delta)
    return total


def recovery_iteration(trace, from_k: int = 0) -> int | None:
    """First recorded k >= from_k whose violation is zero (at most 1e-12) and stays zero afterwards."""
    ks = np.asarray(trace.ks)
    violated = np.flatnonzero(np.asarray(trace.violation_l1) > ZERO_VIOLATION_TOL)
    after = violated[-1] + 1 if violated.size else 0
    eligible = np.flatnonzero(ks[after:] >= from_k)
    return int(ks[after + eligible[0]]) if eligible.size else None


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form guarantees for a run: accuracy, recovery time, and their trade-off.

    ``recovery_bound_t`` is ``ceil(ln(n w / C) / ln(1 - gamma))`` when the
    violation C exceeds ``n w`` (infinite when w = 0), else 0.  A violation at
    or below ``one_step_threshold = n w / (1 - gamma)`` is absorbed in a single
    iteration.
    """

    accuracy_bound: float
    recovery_bound_t: float
    tradeoff_rhs: float
    one_step_threshold: float
    one_step_satisfied: bool


def bounds_report(sc: SpectralConstants, hp: HyperParams, n: int, C_vio: float) -> BoundsReport:
    """Evaluate the guarantee formulas for a buffer level and measured violation."""
    if C_vio < 0:
        raise ValueError(f"C_vio must be nonnegative, got {C_vio}")
    omega = hp.buffer.limit
    accuracy = sc.ell * math.sqrt(n) * omega / (sc.mu * sc.sigma_A_min)

    if C_vio <= n * omega:
        t = 0.0
    elif omega == 0.0:
        t = math.inf
    else:
        t = float(math.ceil(math.log(n * omega / C_vio) / math.log(1.0 - hp.gamma)))

    tradeoff = (
        sc.ell * (1.0 - hp.gamma) ** (t + 1) * C_vio / (sc.mu * sc.sigma_A_min * math.sqrt(n))
        if math.isfinite(t)
        else 0.0
    )
    threshold = n * omega / (1.0 - hp.gamma)
    return BoundsReport(
        accuracy_bound=accuracy,
        recovery_bound_t=t,
        tradeoff_rhs=tradeoff,
        one_step_threshold=threshold,
        one_step_satisfied=C_vio <= threshold,
    )
