"""Problem instances: agent costs, coupling matrices, topology, and step-size checks.

The resource allocation problem is ``min sum_i f_i(x_i)`` subject to the single
coupled constraint ``sum_i A_i x_i <= sum_i d_i`` (or ``=`` in equality mode),
with each ``f_i`` convex, ``A_i`` full row rank, and agents exchanging data over
a connected undirected graph with doubly stochastic weights.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInstanceError, TopologyError

SYMMETRY_TOL = 1e-12
RANK_TOL = 1e-10

INEQUALITY = "inequality"
EQUALITY = "equality"


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInstanceError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class QuadraticCost:
    """Cost ``f(x) = x'Px - Q'x`` with symmetric positive-definite ``P``."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        P = _as_float_array(self.P, "P")
        Q = _as_float_array(self.Q, "Q")
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InvalidInstanceError(f"P must be square, got shape {P.shape}")
        if Q.shape != (P.shape[0],):
            raise InvalidInstanceError(f"Q must have shape ({P.shape[0]},), got {Q.shape}")
        if np.max(np.abs(P - P.T), initial=0.0) > SYMMETRY_TOL:
            raise InvalidInstanceError("P is not symmetric within 1e-12")
        if np.linalg.eigvalsh(P).min() <= 0.0:
            raise InvalidInstanceError("P is not positive definite")
        P.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    @property
    def p(self) -> int:
        return self.P.shape[0]

    def value(self, x: np.ndarray) -> float:
        return float(x @ self.P @ x - self.Q @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.P @ x) - self.Q


@dataclass(frozen=True)
class CallableCost:
    """Generic convex cost given as a value/gradient oracle pair.

    Spectral constants cannot be derived from an oracle pair, so runs using
    these costs must supply the smoothness/convexity constants explicitly.
    """

    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    p: int

    def value(self, x: np.ndarray) -> float:
        return float(self.value_fn(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradient_fn(x), dtype=float)


Cost = QuadraticCost | CallableCost


@dataclass(frozen=True)
class AgentSpec:
    """One agent: its cost, coupling matrix ``A`` (m x p, full row rank), and demand ``d``."""

    cost: Cost
    A: np.ndarray
    d: np.ndarray
    C: float | None = None  # scalar when A = blkdiag(1, C)

    def __post_init__(self):
        A = _as_float_array(self.A, "A")
        d = _as_float_array(self.d, "d")
        if A.ndim != 2:
            raise InvalidInstanceError(f"A must be a matrix, got shape {A.shape}")
        m, p = A.shape
        if p < m:
            raise InvalidInstanceError(f"A must have p >= m, got shape {A.shape}")
        if d.shape != (m,):
            raise InvalidInstanceError(f"d must have shape ({m},), got {d.shape}")
        if self.cost.p != p:
            raise InvalidInstanceError(f"cost dimension {self.cost.p} != coupling columns {p}")
        if np.linalg.svd(A, compute_uv=False).min() <= RANK_TOL:
            raise InvalidInstanceError("A is not full row rank (smallest singular value <= 1e-10)")
        A.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]


def cost_value(spec: AgentSpec, x: np.ndarray) -> float:
    """Evaluate agent cost at ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.p,):
        raise ValueError(f"x must have shape ({spec.p},), got {x.shape}")
    return spec.cost.value(x)


def cost_gradient(spec: AgentSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the agent cost gradient at ``x`` (``2Px - Q`` for quadratics)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.p,):
        raise ValueError(f"x must have shape ({spec.p},), got {x.shape}")
    return spec.cost.gradient(x)


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph with a symmetric doubly stochastic weight matrix."""

    n: int
    edges: tuple[tuple[int, int], ...]
    W: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        W = _as_float_array(self.W, "W")
        L = _as_float_array(self.L, "L")
        W.setflags(write=False)
        L.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        _validate_topology(self)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(v)) for v in nbrs)


def _validate_topology(top: Topology) -> None:
    n, W, L = top.n, top.W, top.L
    if W.shape != (n, n) or L.shape != (n, n):
        raise TopologyError(f"weight/Laplacian shape mismatch for n={n}")
    if not np.array_equal(W, W.T):
        raise TopologyError("W is not exactly symmetric")
    ones = np.ones(n)
    if np.max(np.abs(W @ ones - ones)) > SYMMETRY_TOL:
        raise TopologyError("row sums of W differ from 1 beyond 1e-12")
    if np.max(np.abs(ones @ W - ones)) > SYMMETRY_TOL:
        raise TopologyError("column sums of W differ from 1 beyond 1e-12")
    if np.max(np.abs(L @ ones)) > SYMMETRY_TOL:
        raise TopologyError("Laplacian rows do not sum to zero")
    edge_set = {(min(i, j), max(i, j)) for i, j in top.edges}
    for i in range(n):
        for j in range(i + 1, n):
            if ((i, j) in edge_set) != (W[i, j] > 0.0):
                raise TopologyError(f"w[{i},{j}] inconsistent with the edge set")
    if n > 1:  # a single node is trivially connected
        eigs = np.linalg.eigvalsh(L)
        if eigs[1] <= 0.0:
            raise TopologyError("graph is disconnected (second Laplacian eigenvalue is 0)")


def _check_connected(adjacency: np.ndarray) -> bool:
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        i = queue.popleft()
        for j in np.flatnonzero(adjacency[i]):
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return bool(seen.all())


def metropolis_weights(adjacency) -> Topology:
    """Build a topology with Metropolis-Hastings weights from a 0/1 adjacency matrix.

    ``w_ij = 1 / (1 + max(deg_i, deg_j))`` on edges, ``w_ii = 1 - sum_j w_ij``;
    this is symmetric and doubly stochastic on any graph.  The Laplacian uses
    ``l_ii = sum_{j != i} w_ij`` and ``l_ij = -w_ij``.
    """
    adj = np.array(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise TopologyError(f"adjacency must be square, got shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise TopologyError("adjacency must be symmetric")
    if np.any(np.diag(adj)):
        raise TopologyError("adjacency must have an empty diagonal")
    n = adj.shape[0]
    if not _check_connected(adj):
        raise TopologyError("graph is disconnected")

    deg = adj.sum(axis=1)
    W = np.zeros((n, n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j]:
                w = 1.0 / (1.0 + max(deg[i], deg[j]))
                W[i, j] = W[j, i] = w
                edges.append((i, j))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    L = -W.copy()
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return Topology(n=n, edges=tuple(edges), W=W, L=L)


def topology_from_weights(W, edges) -> Topology:
    """Rebuild a (validated) topology from a stored weight matrix and edge list."""
    W = _as_float_array(W, "W")
    L = -W.copy()
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return Topology(n=W.shape[0], edges=tuple(tuple(e) for e in edges), W=W, L=L)


@dataclass(frozen=True)
class ProblemInstance:
    """A full resource allocation instance: agents plus communication topology."""

    agents: tuple[AgentSpec, ...]
    topology: Topology
    p: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if len(self.agents) != self.topology.n:
            raise InvalidInstanceError(
                f"{len(self.agents)} agents but topology has {self.topology.n} nodes"
            )
        for idx, spec in enumerate(self.agents):
            if spec.p != self.p or spec.m != self.m:
                raise InvalidInstanceError(
                    f"agent {idx} has (p, m) = ({spec.p}, {spec.m}), expected ({self.p}, {self.m})"
                )

    @property
    def n(self) -> int:
        return len(self.agents)

    @cached_property
    def all_quadratic(self) -> bool:
        return all(isinstance(spec.cost, QuadraticCost) for spec in self.agents)

    @cached_property
    def A_stack(self) -> np.ndarray:
        out = np.stack([spec.A for spec in self.agents])
        out.setflags(write=False)
        return out

    @cached_property
    def d_stack(self) -> np.ndarray:
        out = np.stack([spec.d for spec in self.agents])
        out.setflags(write=False)
        return out

    @cached_property
    def P_stack(self) -> np.ndarray | None:
        if not self.all_quadratic:
            return None
        out = np.stack([spec.cost.P for spec in self.agents])
        out.setflags(write=False)
        return out

    @cached_property
    def Q_stack(self) -> np.ndarray | None:
        if not self.all_quadratic:
            return None
        out = np.stack([spec.cost.Q for spec in self.agents])
        out.setflags(write=False)
        return out

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """Per-agent ``A'(AA')^{-1}``, the closed-form affine projection kernels."""
        out = np.stack([compute_projector(spec.A) for spec in self.agents])
        out.setflags(write=False)
        return out

    @property
    def demand_total(self) -> np.ndarray:
        return self.d_stack.sum(axis=0)


def compute_projector(A: np.ndarray) -> np.ndarray:
    """Return ``A'(AA')^{-1}`` for a full-row-rank ``A`` (m x p) as a (p, m) array."""
    gram = A @ A.T
    return np.linalg.solve(gram, A).T


def _ring_with_chords(n: int, extra_edges: int, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    ring = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    for i, j in ring:
        adj[i, j] = adj[j, i] = True
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i, j]]
    if extra_edges > len(candidates):
        raise InvalidInstanceError(
            f"cannot add {extra_edges} chords to a ring of {n} (only {len(candidates)} available)"
        )
    if extra_edges > 0:
        picks = rng.choice(len(candidates), size=extra_edges, replace=False)
        for idx in picks:
            i, j = candidates[idx]
            adj[i, j] = adj[j, i] = True
    return adj


def generate_instance(seed: int, n: int, r_max: float, extra_edges: int = 0) -> ProblemInstance:
    """Generate the IIoT-style benchmark instance: p = m = 2, ring plus random chords.

    Per agent, ``A_i = blkdiag(1, C_i)`` with ``C_i ~ U[0.5, 2.0]``,
    ``d_i = [r_max/n, 1/n]``, ``P_i`` symmetric positive definite with
    eigenvalues drawn from ``U[0.5, 2.0]`` in a random orthogonal basis, and
    ``Q_i`` entrywise uniform in ``(0, 1]``.  Deterministic for a fixed seed.
    """
    if n < 2:
        raise InvalidInstanceError(f"need at least 2 agents, got {n}")
    if r_max <= 0:
        raise InvalidInstanceError(f"r_max must be positive, got {r_max}")
    if extra_edges < 0:
        raise InvalidInstanceError(f"extra_edges must be nonnegative, got {extra_edges}")

    rng = np.random.default_rng(seed)
    topology = metropolis_weights(_ring_with_chords(n, extra_edges, rng))
    d = np.array([r_max / n, 1.0 / n])

    agents = []
    for _ in range(n):
        C = float(rng.uniform(0.5, 2.0))
        eigs = rng.uniform(0.5, 2.0, size=2)
        basis, r = np.linalg.qr(rng.standard_normal((2, 2)))
        basis = basis * np.sign(np.diag(r))
        P = (basis * eigs) @ basis.T
        P = 0.5 * (P + P.T)
        Q = 1.0 - rng.random(2)  # entrywise in (0, 1]
        agents.append(
            AgentSpec(cost=QuadraticCost(P=P, Q=Q), A=np.diag([1.0, C]), d=d.copy(), C=C)
        )
    return ProblemInstance(agents=tuple(agents), topology=topology, p=2, m=2)


@dataclass(frozen=True)
class SpectralConstants:
    """Smoothness/convexity and coupling-spectrum constants used by the step-size checks."""

    ell: float
    mu: float
    sigma_A_max: float
    sigma_A_min: float
    sigma_L_max: float
    sigma_L_min: float

    def __post_init__(self):
        if self.mu <= 0 or self.ell < self.mu:
            raise InvalidInstanceError(f"need ell >= mu > 0, got ell={self.ell}, mu={self.mu}")
        if self.sigma_A_min <= 0 or self.sigma_A_max < self.sigma_A_min:
            raise InvalidInstanceError("coupling singular values must satisfy max >= min > 0")

    @property
    def kappa_A(self) -> float:
        return self.sigma_A_max / self.sigma_A_min

    def to_dict(self) -> dict:
        return {
            "ell": self.ell,
            "mu": self.mu,
            "sigma_A_max": self.sigma_A_max,
            "sigma_A_min": self.sigma_A_min,
            "kappa_A": self.kappa_A,
            "sigma_L_max": self.sigma_L_max,
            "sigma_L_min": self.sigma_L_min,
        }


def spectral_constants(
    instance: ProblemInstance, ell: float | None = None, mu: float | None = None
) -> SpectralConstants:
    """Compute spectral constants of an instance.

    For quadratic costs ``ell = 2 max_i lambda_max(P_i)`` and
    ``mu = 2 min_i lambda_min(P_i)``; generic costs require both supplied.
    """
    if instance.all_quadratic:
        lams = [np.linalg.eigvalsh(spec.cost.P) for spec in instance.agents]
        ell_c = 2.0 * max(l.max() for l in lams)
        mu_c = 2.0 * min(l.min() for l in lams)
        ell = ell_c if ell is None else ell
        mu = mu_c if mu is None else mu
    elif ell is None or mu is None:
        raise InvalidInstanceError("generic costs require user-supplied ell and mu")

    svals = [np.linalg.svd(spec.A, compute_uv=False) for spec in instance.agents]
    eig_L = np.linalg.eigvalsh(instance.topology.L)
    nonzero = eig_L[eig_L > SYMMETRY_TOL]
    return SpectralConstants(
        ell=float(ell),
        mu=float(mu),
        sigma_A_max=float(max(s.max() for s in svals)),
        sigma_A_min=float(min(s.min() for s in svals)),
        sigma_L_max=float(eig_L[-1]),
        sigma_L_min=float(nonzero[0]),
    )


@dataclass(frozen=True)
class BufferSchedule:
    """Queue buffer floor per iteration: constant ``w``, decaying ``c/(k+1)``, or explicit.

    The built-in decaying family is square-summable for every coefficient
    (``sum_k (c/(k+1))^2 = c^2 pi^2 / 6``).  Explicit sequences must be
    nonnegative and nonincreasing (the queue floor carried from one step to the
    next relies on it), and hold their last value past the end.
    """

    kind: str
    omega: float = 0.0
    coefficient: float = 0.0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if self.omega < 0:
                raise InvalidInstanceError(f"buffer level must be >= 0, got {self.omega}")
        elif self.kind == "decaying":
            if self.coefficient <= 0:
                raise InvalidInstanceError("decaying buffer needs a positive coefficient")
        elif self.kind == "sequence":
            if not self.values or any(v < 0 for v in self.values):
                raise InvalidInstanceError("sequence buffer needs nonnegative values")
            if any(b > a for a, b in zip(self.values, self.values[1:])):
                raise InvalidInstanceError("sequence buffer must be nonincreasing")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        else:
            raise InvalidInstanceError(f"unknown buffer kind {self.kind!r}")

    @classmethod
    def constant(cls, omega: float) -> "BufferSchedule":
        return cls(kind="constant", omega=float(omega))

    @classmethod
    def decaying(cls, coefficient: float) -> "BufferSchedule":
        return cls(kind="decaying", coefficient=float(coefficient))

    @classmethod
    def sequence(cls, values: Sequence[float]) -> "BufferSchedule":
        return cls(kind="sequence", values=tuple(values))

    def value(self, k: int) -> float:
        if self.kind == "constant":
            return self.omega
        if self.kind == "decaying":
            return self.coefficient / (k + 1)
        return self.values[min(k, len(self.values) - 1)]

    @property
    def limit(self) -> float:
        """Limiting buffer level; the steady-state accuracy bound scales with it."""
        if self.kind == "constant":
            return self.omega
        if self.kind == "decaying":
            return 0.0
        return self.values[-1]

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "omega": self.omega}
        if self.kind == "decaying":
            return {"kind": "decaying", "coefficient": self.coefficient}
        return {"kind": "sequence", "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: dict) -> "BufferSchedule":
        kind = data.get("kind")
        if kind == "constant":
            return cls.constant(data["omega"])
        if kind == "decaying":
            return cls.decaying(data["coefficient"])
        if kind == "sequence":
            return cls.sequence(data["values"])
        raise InvalidInstanceError(f"unknown buffer kind {kind!r}")


@dataclass(frozen=True)
class HyperParams:
    """Step parameters; ``buffer`` is the queue floor schedule."""

    alpha: float
    beta: float
    eta: float
    gamma: float
    buffer: BufferSchedule = field(default_factory=lambda: BufferSchedule.constant(0.0))

    def __post_init__(self):
        for name in ("alpha", "beta", "eta", "gamma"):
            if getattr(self, name) <= 0:
                raise InvalidInstanceError(f"{name} must be strictly positive")
        if self.gamma >= 1:
            raise InvalidInstanceError(f"gamma must be < 1, got {self.gamma}")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "eta": self.eta,
            "gamma": self.gamma,
            "buffer": self.buffer.to_dict(),
        }


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    supplied: float
    bound: float
    relation: str  # "<" or ">"
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "supplied": self.supplied,
            "bound": self.bound,
            "relation": self.relation,
            "passed": self.passed,
        }


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

    def check(self, name: str) -> ConditionCheck:
        for ch in self.checks:
            if ch.name == name:
                return ch
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "c": self.c,
            "theta_prime": self.theta_prime,
            "checks": [ch.to_dict() for ch in self.checks],
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
        raise InvalidInstanceError(f"unknown mode {mode!r}")
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


def instance_to_json(instance: ProblemInstance) -> str:
    """Serialize an instance (quadratic costs only) to a UTF-8 JSON document."""
    if not instance.all_quadratic:
        raise InvalidInstanceError("only quadratic-cost instances are serializable")
    doc = {
        "n": instance.n,
        "p": instance.p,
        "m": instance.m,
        "agents": [
            {
                "P": spec.cost.P.tolist(),
                "Q": spec.cost.Q.tolist(),
                "A": spec.A.tolist(),
                "d": spec.d.tolist(),
            }
            for spec in instance.agents
        ],
        "topology": {
            "edges": [list(e) for e in instance.topology.edges],
            "weights": instance.topology.W.tolist(),
        },
    }
    return json.dumps(doc)


def instance_from_json(text: str) -> ProblemInstance:
    """Load an instance from its JSON document, re-validating all invariants."""
    doc = json.loads(text)
    try:
        agents = tuple(
            AgentSpec(
                cost=QuadraticCost(P=np.array(a["P"]), Q=np.array(a["Q"])),
                A=np.array(a["A"]),
                d=np.array(a["d"]),
            )
            for a in doc["agents"]
        )
        topology = topology_from_weights(np.array(doc["topology"]["weights"]), doc["topology"]["edges"])
        return ProblemInstance(agents=agents, topology=topology, p=int(doc["p"]), m=int(doc["m"]))
    except KeyError as exc:
        raise InvalidInstanceError(f"instance document is missing key {exc}") from exc
