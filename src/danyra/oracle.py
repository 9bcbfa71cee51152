"""Ground-truth solvers for the coupled allocation problem.

Two independent routes are provided for cross-checking: an exact active-set
enumeration (quadratic costs, small m) and an iterative centralized dual
ascent.  Both emit a consensus multiplier since the optimal duals agree across
agents on a connected graph.
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

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "lambda_star": self.lambda_star.tolist(),
            "f_star": self.f_star,
            "active_set": list(self.active_set),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OracleSolution":
        return cls(
            x_star=np.array(data["x_star"], dtype=float),
            lambda_star=np.array(data["lambda_star"], dtype=float),
            f_star=float(data["f_star"]),
            active_set=tuple(data["active_set"]),
        )


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


def solve_active_set(instance: ProblemInstance, enumeration_order=None) -> OracleSolution:
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

    masks = range(2**m) if enumeration_order is None else enumeration_order
    for mask in masks:
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


def reference_projected_gradient(
    instance: ProblemInstance,
    iters: int = 200_000,
    step: float | None = None,
    mode: str = "inequality",
    tol: float = 1e-9,
) -> OracleSolution:
    """Centralized dual ascent used as an independent cross-check in tests.

    Ascends the dual of the single coupled constraint, recovering the primal
    from the dual at every step; the multiplier is clamped to the nonnegative
    orthant in inequality mode.  Fails loudly if the KKT residual does not
    reach ``tol`` within the iteration cap.
    """
    H, G, h = _quadratic_aggregates(instance)
    if step is None:
        step = 1.0 / float(np.linalg.eigvalsh(G)[-1])

    lam = np.zeros(instance.m)
    for _ in range(iters):
        x = _recover_primal(instance, H, lam)
        g = np.einsum("nmp,np->nm", instance.A, x).sum(axis=0) - instance.demand_total
        if mode == "inequality":
            residual = max(float(np.max(np.maximum(g, 0.0), initial=0.0)), abs(float(lam @ g)))
        else:
            residual = float(np.max(np.abs(g)))
        if residual <= tol:
            active = tuple(j for j in range(instance.m) if lam[j] > tol)
            return OracleSolution(
                x_star=x,
                lambda_star=lam.copy(),
                f_star=_total_cost(instance, x),
                active_set=active if mode == "inequality" else tuple(range(instance.m)),
            )
        lam = lam + step * g
        if mode == "inequality":
            lam = np.maximum(lam, 0.0)
    raise OracleFailureError(f"dual ascent did not reach tol={tol} within {iters} iterations")


def kkt_residuals(instance: ProblemInstance, sol: OracleSolution, mode: str = "inequality") -> dict:
    """Stationarity / feasibility / dual-sign / complementarity residuals of a solution."""
    residual = instance.gradient(sol.x_star) + np.einsum("nmp,m->np", instance.A, sol.lambda_star)
    stationarity = float(np.linalg.norm(residual, axis=1).max())
    slack = instance.demand_total - np.einsum("nmp,np->nm", instance.A, sol.x_star).sum(axis=0)
    if mode == "inequality":
        primal = float(np.max(np.maximum(-slack, 0.0), initial=0.0))
        dual = float(np.max(np.maximum(-sol.lambda_star, 0.0), initial=0.0))
        complementarity = abs(float(sol.lambda_star @ slack))
    else:
        primal = float(np.max(np.abs(slack)))
        dual = 0.0
        complementarity = 0.0
    return {
        "stationarity": stationarity,
        "primal": primal,
        "dual": dual,
        "complementarity": complementarity,
    }
