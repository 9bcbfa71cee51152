"""Ground-truth solvers for the coupled allocation problem (quadratic costs).

``solve_active_set`` solves the inequality variant by exact active-set
enumeration (small m), and ``solve_equality`` the equality variant by one
linear solve in the dual.  Both emit a consensus multiplier, since the optimal
duals agree across agents on a connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidInstanceError,
    OracleFailureError,
    UnsupportedProblemError,
)
from .problem import ProblemInstance

ACTIVE_SET_TOL = 1e-9
MAX_ENUMERATION_ROWS = 10


@dataclass(frozen=True)
class OracleSolution:
    """Optimal point, consensus multiplier, value, and the active constraint rows."""

    x_star: np.ndarray      # (n, p)
    lambda_star: np.ndarray  # (m,)
    f_star: float
    active_set: tuple[int, ...]

    @property
    def stacked(self) -> np.ndarray:
        return self.x_star.reshape(-1)


def _quadratic_aggregates(instance: ProblemInstance):
    """Per-agent inverse Hessians plus the dual-space aggregates G, h.

    With ``x_i(lambda) = H_i (Q_i - A_i' lambda)`` and ``H_i = (2 P_i)^{-1}``,
    the constraint slack is ``sum d - sum A_i x_i = G lambda - h`` where
    ``G = sum A_i H_i A_i'`` and ``h = sum A_i H_i Q_i - sum d_i``.
    """
    if not instance.quadratic:
        raise InvalidInstanceError("ground-truth solvers require quadratic costs")
    H = np.linalg.solve(2.0 * instance.P, np.eye(instance.p))
    G = np.zeros((instance.m, instance.m))
    h = -instance.demand_total
    # agent by agent: the order of these sums fixes the bits of x_star
    for Ai, Hi, Qi in zip(instance.A, H, instance.Q):
        G += Ai @ Hi @ Ai.T
        h += Ai @ (Hi @ Qi)
    return H, G, h


def _recover_primal(instance: ProblemInstance, H: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return np.stack([Hi @ (Qi - Ai.T @ lam) for Ai, Hi, Qi in zip(instance.A, H, instance.Q)])


def _total_cost(instance: ProblemInstance, x: np.ndarray) -> float:
    return float(instance.cost(x).sum())


def solve_active_set(instance: ProblemInstance) -> OracleSolution:
    """Exact solution of the inequality-constrained problem by active-set enumeration.

    Tries every subset S of constraint rows: rows in S are forced to equality,
    duals off S are zero.  A candidate is accepted when its duals on S are
    nonnegative and its slack off S is nonnegative; strong convexity makes the
    accepted optimum unique.  Enumeration is 2^m, so m is capped at 10.
    """
    m = instance.m
    if m > MAX_ENUMERATION_ROWS:
        raise UnsupportedProblemError(f"active-set enumeration supports m <= 10, got m={m}")
    H, G, h = _quadratic_aggregates(instance)

    for mask in range(2**m):
        rows = [j for j in range(m) if mask >> j & 1]
        lam = np.zeros(m)
        if rows:
            try:
                lam[rows] = np.linalg.solve(G[np.ix_(rows, rows)], h[rows])
            except np.linalg.LinAlgError:
                continue
        slack = G @ lam - h
        off = [j for j in range(m) if j not in rows]
        if rows and lam[rows].min() < -ACTIVE_SET_TOL:
            continue
        if off and slack[off].min() < -ACTIVE_SET_TOL:
            continue
        lam = np.maximum(lam, 0.0)
        x = _recover_primal(instance, H, lam)
        return OracleSolution(
            x_star=x,
            lambda_star=lam,
            f_star=_total_cost(instance, x),
            active_set=tuple(rows),
        )
    raise OracleFailureError("no active set accepted; instance appears degenerate")


def solve_equality(instance: ProblemInstance) -> OracleSolution:
    """Exact solution with all constraint rows active and a free-sign multiplier."""
    H, G, h = _quadratic_aggregates(instance)
    try:
        lam = np.linalg.solve(G, h)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInstanceError("equality KKT matrix is singular") from exc
    x = _recover_primal(instance, H, lam)
    return OracleSolution(
        x_star=x,
        lambda_star=lam,
        f_star=_total_cost(instance, x),
        active_set=tuple(range(instance.m)),
    )

