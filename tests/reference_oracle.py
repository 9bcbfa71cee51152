"""Second route to the optimum, and the KKT residuals, that the oracle tests compare against.

``danyra.solve_active_set`` and ``danyra.solve_equality`` solve the coupled
problem exactly.  ``reference_projected_gradient`` reaches the same point by
an iterative centralized dual ascent, and ``kkt_residuals`` measures how far
any candidate solution is from the optimality conditions.
"""

from __future__ import annotations

import numpy as np

from danyra import OracleFailureError, OracleSolution, ProblemInstance
from danyra.oracle import _quadratic_aggregates, _recover_primal, _total_cost


def reference_projected_gradient(
    instance: ProblemInstance,
    iters: int = 200_000,
    step: float | None = None,
    mode: str = "inequality",
    tol: float = 1e-9,
) -> OracleSolution:
    """Centralized dual ascent, an independent cross-check of the exact solvers.

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
