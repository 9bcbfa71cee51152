"""The paper's closed forms: step-size conditions, guarantee bounds, and the measured quantities they bound.

- ``validate_hyperparams`` evaluates the sufficient step-size conditions of
  the convergence theorems (anytime feasibility with exact convergence in
  inequality mode, plus the linear-rate condition in equality mode) and, when
  all hold in equality mode, the guaranteed contraction factor ``theta_prime``.
- ``bounds_report`` evaluates the accuracy bound of the buffered queue, the
  finite-time recovery bound, the accuracy-vs-robustness trade-off, and the
  one-step absorption threshold ``n w / (1 - gamma)``.
- ``recovery_iteration`` and ``largest_violation`` read from a trace the
  recovery time and the violation ``C`` that those bounds are stated for.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, InvalidInstanceError
from .problem import EQUALITY, INEQUALITY, HyperParams, SpectralConstants

ZERO_VIOLATION_TOL = 1e-12


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    supplied: float
    bound: float
    relation: str  # "<" or ">"
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the sufficient step-size conditions; advisory, never blocking.

    ``theta_prime`` (the guaranteed linear contraction factor in equality mode)
    is reported only when every check passes, and is then strictly below one.
    """

    checks: tuple[ConditionCheck, ...]
    c: float
    theta_prime: float | None = None

    @property
    def all_passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "c": self.c,
            "theta_prime": self.theta_prime,
            "checks": [asdict(ch) for ch in self.checks],
        }


def _upper(name: str, supplied: float, bound: float) -> ConditionCheck:
    return ConditionCheck(name, supplied, bound, "<", supplied < bound)


def _lower(name: str, supplied: float, bound: float) -> ConditionCheck:
    return ConditionCheck(name, supplied, bound, ">", supplied > bound)


def validate_hyperparams(
    hp: HyperParams, sc: SpectralConstants, mode: str = INEQUALITY
) -> ConditionReport:
    """Evaluate the sufficient conditions on (alpha, beta, eta, gamma).

    The conditions are sufficient, not necessary; a failing report does not
    prevent a run (the canonical benchmark choice gamma = 0.2 fails the gamma
    lower bound yet converges).
    """
    if mode not in (INEQUALITY, EQUALITY):
        raise ConfigError(f"unknown mode {mode!r}")
    a, b, eta, g = hp.alpha, hp.beta, hp.eta, hp.gamma
    ell, mu = sc.ell, sc.mu
    sA2, sa2 = sc.sigma_A_max**2, sc.sigma_A_min**2
    kA = sc.kappa_A
    c = (1 - g) ** 2 * (1 - 3 * b) / (2 * g**2)

    def safe_inv(denom: float) -> float:
        return 1.0 / denom if denom > 0 else -math.inf

    checks = [
        _upper("alpha_decision_coupling", a, safe_inv(6 * sA2 * (1 + 3 * c))),
        _upper("alpha_network_coupling", a, safe_inv(3 * sc.sigma_L_max**2 * (1 + 4 * c))),
        _upper("alpha_queue_coupling", a, safe_inv(6 * (1 + 3 * c))),
        _upper("alpha_curvature", a, (2 * mu - eta * ell**2 * (3 * b * eta + 1)) / (2 * ell**2)),
        _upper("alpha_dual_margin", a, 2 * eta * (sa2 - 3 * b * eta * sA2)),
        _upper("alpha_beta_margin", a, 1 - 3 * b),
        _upper("beta_third", b, 1.0 / 3.0),
        _upper("beta_curvature", b, (2 * mu / (eta * ell**2) - 1) / (3 * eta)),
        _upper("beta_conditioning", b, 1.0 / (3 * eta * kA**2)),
        _upper("eta_curvature", eta, 2 * mu / ell**2),
        _lower("gamma_lower", g, 1 - 1 / (2 * kA)),
        _upper("gamma_upper", g, 1.0),
    ]
    if mode == EQUALITY:
        rate_bound = (8 * mu - 4 * eta * ell**2 * (3 * b * eta + 1) + (1 - 3 * b)) / (8 * ell**2)
        checks.append(_upper("alpha_linear_rate", a, rate_bound))

    theta_prime = None
    if mode == EQUALITY and all(ch.passed for ch in checks):
        theta_prime = max(
            1 + a * (2 * ell**2 * a - 2 * mu + eta * ell**2 * (3 * b * eta + 1) + (3 * b - 1) / 4),
            (8 + a * (3 * b - 1) * sc.sigma_L_min**2) / 8,
            1 + b * eta * (3 * b * eta * sA2 - sa2),
            0.5,
            4 * (1 - g) ** 2 * kA**2,
        )
    return ConditionReport(checks=tuple(checks), c=c, theta_prime=theta_prime)


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
        raise InvalidInstanceError(f"C_vio must be nonnegative, got {C_vio}")
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


def largest_violation(initial_violation: float, trace) -> tuple[float, int]:
    """The largest violation a run faced and its iteration (0 for the initial state).

    A recorded row counts only when it exceeds the initial violation (so a tie
    goes to k = 0) and the rounding level that ``recovery_iteration`` treats as
    zero.
    """
    peak = int(np.argmax(trace.violation_l1))
    if trace.violation_l1[peak] > max(initial_violation, ZERO_VIOLATION_TOL):
        return float(trace.violation_l1[peak]), int(trace.ks[peak])
    return initial_violation, 0

