"""Ground-truth solvers for the coupled allocation problem (quadratic costs), in the m-dimensional dual.

``solve_active_set`` solves the inequality variant by Lawson and Hanson's
active-set method on the dual (any m), and ``solve_equality`` the equality
variant by one linear solve.  Both are array operations over the instance
stacks, and both emit a consensus multiplier, since the optimal duals agree
across agents on a connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstanceError, OracleFailureError
from .problem import ProblemInstance

ACTIVE_SET_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """Optimal point, consensus multiplier, value, and the active constraint rows."""

    x_star: np.ndarray      # (n, p)
    lambda_star: np.ndarray  # (m,)
    f_star: float
    active_set: tuple[int, ...]

    @property
    def stacked(self) -> np.ndarray:
        return self.x_star.reshape(-1)


def _dual(instance: ProblemInstance):
    """Inverse Hessians ``H`` (n, p, p) plus the dual-space aggregates G, h.

    With ``x_i(lambda) = H_i (Q_i - A_i' lambda)`` and ``H_i = (2 P_i)^{-1}``,
    the constraint slack is ``sum d - sum A_i x_i = G lambda - h`` where
    ``G = sum A_i H_i A_i'`` and ``h = sum A_i H_i Q_i - sum d_i``.  The
    batched products run on the stored stacks, and the sums add the agents'
    rows in order (``h`` from ``-sum d_i``): that order fixes the bits of
    ``x_star``.
    """
    if not instance.quadratic:
        raise InvalidInstanceError("ground-truth solvers require quadratic costs")
    A = instance.A
    H = np.linalg.solve(instance.hessian_stack, np.eye(instance.p))
    G = np.add.accumulate(A @ H @ A.swapaxes(1, 2), axis=0)[-1] + 0.0
    terms = (A @ (H @ instance.Q[:, :, None]))[:, :, 0]
    h = np.add.accumulate(np.concatenate([-instance.demand_total[None], terms]), axis=0)[-1]
    return H, G, h


def _solution(instance: ProblemInstance, H: np.ndarray, lam: np.ndarray, rows: tuple[int, ...]) -> OracleSolution:
    """The solution at multiplier ``lam``: every agent's ``x_i = H_i (Q_i - A_i' lam)`` and the total cost."""
    x = (H @ (instance.Q - instance.A.swapaxes(1, 2) @ lam)[:, :, None])[:, :, 0]
    return OracleSolution(x_star=x, lambda_star=lam, f_star=float(instance.cost(x).sum()), active_set=rows)


def solve_active_set(instance: ProblemInstance) -> OracleSolution:
    """Exact solution of the inequality-constrained problem: ``min 1/2 lam'G lam - h'lam`` over ``lam >= 0``.

    Lawson and Hanson's method (*Solving Least Squares Problems*, 1974,
    ch. 23).  Each step holds at equality the row of most negative slack
    ``G lam - h`` and solves ``G[S, S] lam_S = h_S`` on the held rows S;
    while a held multiplier comes out nonpositive, it moves back to the last
    nonnegative point on the way and releases the rows that reach zero.  It
    stops when no row off S has slack below ``-ACTIVE_SET_TOL``, and returns
    the last solve on S clamped at zero.  More than ``3m + 1`` steps, or a
    singular solve, raise ``OracleFailureError``.
    """
    H, G, h = _dual(instance)
    m = instance.m
    lam, rows = np.zeros(m), np.zeros(m, dtype=bool)
    for _ in range(3 * m + 1):
        deficit = np.where(rows, -np.inf, h - G @ lam)
        if deficit.max() <= ACTIVE_SET_TOL:
            return _solution(instance, H, np.maximum(lam, 0.0), tuple(np.flatnonzero(rows).tolist()))
        rows[np.argmax(deficit)] = True
        while True:
            z = np.zeros(m)
            try:
                z[rows] = np.linalg.solve(G[np.ix_(rows, rows)], h[rows])
            except np.linalg.LinAlgError as exc:
                raise OracleFailureError(f"singular dual system on rows {np.flatnonzero(rows).tolist()}") from exc
            blocked = rows & (z <= 0.0)
            if not blocked.any():
                lam = z
                break
            ratio = np.where(blocked, lam, np.inf)  # lam / (lam - z), and 0 where both are 0
            np.divide(lam, lam - z, out=ratio, where=blocked & (lam > z))
            lam = lam + ratio.min() * (z - lam)
            rows[np.argmin(ratio)] = False
            rows &= lam > ACTIVE_SET_TOL
            lam[~rows] = 0.0
    raise OracleFailureError(f"active-set method did not settle within {3 * m + 1} steps")


def solve_equality(instance: ProblemInstance) -> OracleSolution:
    """Exact solution with all constraint rows active and a free-sign multiplier.

    A singular dual system raises ``OracleFailureError``, as in ``solve_active_set``.
    """
    H, G, h = _dual(instance)
    try:
        lam = np.linalg.solve(G, h)
    except np.linalg.LinAlgError as exc:
        raise OracleFailureError(f"singular dual system on rows {list(range(instance.m))}") from exc
    return _solution(instance, H, lam, tuple(range(instance.m)))
