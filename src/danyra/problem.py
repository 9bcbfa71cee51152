"""Problem instances: agent costs, coupling matrices, topology, and step-size checks.

The resource allocation problem is ``min sum_i f_i(x_i)`` subject to the single
coupled constraint ``sum_i A_i x_i <= sum_i d_i`` (or ``=`` in equality mode),
with each ``f_i`` convex, ``A_i`` full row rank, and agents exchanging data over
a connected undirected graph with doubly stochastic weights.

A ``ProblemInstance`` holds each kind of agent data as one stack with a row
per agent (``A`` (n, m, p), ``d`` (n, m), quadratic ``P`` (n, p, p) and
``Q`` (n, p)), so building, validating and using an instance are array
operations over the whole swarm; only generic ``CallableCost`` agents are
called one at a time.

The graph is stored by edge (``Topology``), in memory and in instance files:
generating, loading, validating and mixing over it cost O(|E|), and above
``DENSE_MIX_MAX_N`` agents the spectral constants come from a Lanczos run on
the mixing, linear in n and |E| per step.  Swarms of thousands of agents never
allocate an n x n array unless a caller asks for the dense Laplacian ``L``, or
the spectral constants fall back to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InvalidInstanceError, TopologyError

SYMMETRY_TOL = 1e-12
RANK_TOL = 1e-10

INEQUALITY = "inequality"
EQUALITY = "equality"


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


# At or below this many agents ``Topology.mix`` is the dense ``L @ v`` and
# ``spectral_constants`` runs ``eigvalsh`` on ``L``; above it, a segment sum
# over the neighbor arrays and Lanczos on it.  Per call on a ring plus 2n
# chords with two columns (2-core x86, numpy 2.4), dense vs segment sum:
# 2.2 vs 15 us at n=14, 11 vs 32 us at n=200, 39 vs 52 us at n=400,
# 89 vs 61 us at n=500, 150 vs 71 us at n=600, 215 vs 76 us at n=700,
# 3.3-3.9 vs 0.20 ms at n=2000.  The crossover is near n=450; the threshold
# stays at 600 because moving it changes the rounding of ``mix``, and so the
# traces, for every n in between.
DENSE_MIX_MAX_N = 600


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph with symmetric doubly stochastic weights, stored by edge.

    ``edges`` is the read-only (E, 2) int64 array of the ``(i, j)`` pairs with
    ``i < j`` in lexicographic order, and ``weights[e] = w_ij > 0`` is the
    weight of edge ``e``; the self-weight is ``w_ii = 1 - sum_j w_ij``, so
    each node's edge weights may sum to at most 1.  The dense Laplacian ``L``
    (``l_ij = -w_ij``, ``l_ii = sum_{j != i} w_ij``) is built on first access.
    Above ``DENSE_MIX_MAX_N`` agents, construction, validation and
    :meth:`mix` take O(n + |E|) time and memory and never read it; nor does
    :func:`spectral_constants`, which runs Lanczos on :meth:`mix` there and
    builds ``L`` only when that falls back to the dense eigenvalues.
    """

    n: int
    edges: np.ndarray  # (E, 2)
    weights: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise TopologyError(f"a topology needs at least one node, got n={n}")
        edges = _edge_array(self.edges, n)
        weights = np.array(self.weights, dtype=float)
        _validate_edges(n, edges, weights)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.argsort(rows * n + cols)
        rows, cols, csr_weights = rows[order], cols[order], np.concatenate([weights, weights])[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        edges.setflags(write=False)
        weights.setflags(write=False)
        for name, value in (
            ("n", n),
            ("edges", edges),
            ("weights", weights),
            ("_indptr", indptr),
            ("_cols", cols),
            ("_csr_weights", csr_weights),
            ("_laplacian_diag", np.bincount(rows, weights=csr_weights, minlength=n)[:, None]),
        ):
            object.__setattr__(self, name, value)
        heavy = np.flatnonzero(self._laplacian_diag[:, 0] > 1.0 + SYMMETRY_TOL)
        if heavy.size:
            i, total = int(heavy[0]), float(self._laplacian_diag[heavy[0], 0])
            raise TopologyError(f"node {i}: edge weights sum to {total} > 1 (negative self-weight)")
        if not _connected(indptr, cols):
            raise TopologyError("graph is disconnected")
        if np.max(np.abs(self.mix(np.ones((n, 1))))) > SYMMETRY_TOL:
            raise TopologyError("Laplacian rows do not sum to zero within 1e-12")

    def mix(self, v: np.ndarray) -> np.ndarray:
        """Return ``L @ v``: row ``i`` is ``sum_j w_ij (v_i - v_j)`` over the edges ``(i, j)``.

        Up to ``DENSE_MIX_MAX_N`` agents this is the dense product itself;
        above, a segment sum over the neighbor arrays in O(|E|) time, equal to
        it up to the order of the floating-point sums.  The terms are gathered
        with ``np.take`` into a (columns, 2E) array, so each agent's neighbor
        terms are contiguous in memory when they are summed.
        """
        if self.n <= DENSE_MIX_MAX_N:
            return self.L @ v
        flat = v.reshape(self.n, -1)
        terms = np.take(flat.T, self._cols, axis=1)
        terms *= self._csr_weights
        neighbor_sum = np.add.reduceat(terms, self._indptr[:-1], axis=1).T
        return (self._laplacian_diag * flat - neighbor_sum).reshape(v.shape)

    @cached_property
    def L(self) -> np.ndarray:
        """Dense (n, n) Laplacian ``I - W``, built on first access."""
        L = np.zeros((self.n, self.n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        L[i, j] = L[j, i] = self.weights
        L = -L  # -0.0 off the edges, bit for bit the negated dense weight matrix
        np.fill_diagonal(L, 0.0)
        np.fill_diagonal(L, -L.sum(axis=1))
        L.setflags(write=False)
        return L


def _edge_array(edges, n: int) -> np.ndarray:
    """Edges as a new (E, 2) int64 array, every endpoint in ``range(n)``."""
    pairs = np.array(edges)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2).astype(np.int64)
    if pairs.dtype.kind not in "iu":
        raise TopologyError(f"edge endpoints must be integers, got {pairs.dtype}")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise TopologyError(f"edges must be (i, j) pairs, got shape {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise TopologyError(f"edge endpoint out of range for n={n}")
    return pairs.astype(np.int64, copy=False)


def _validate_edges(n: int, pairs: np.ndarray, weights: np.ndarray) -> None:
    if np.any(pairs[:, 0] >= pairs[:, 1]):
        raise TopologyError("edges must be (i, j) pairs with i < j (no self-loops)")
    keys = pairs[:, 0] * n + pairs[:, 1]
    if np.any(keys[1:] <= keys[:-1]):
        raise TopologyError("edges must be unique and in lexicographic order")
    if weights.shape != (len(pairs),):
        raise TopologyError(f"need one weight per edge, got shape {weights.shape} for {len(pairs)} edges")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise TopologyError("edge weights must be positive and finite")


def _connected(indptr: np.ndarray, cols: np.ndarray) -> bool:
    """Depth-first search from node 0 over the neighbor arrays."""
    indptr, cols = indptr.tolist(), cols.tolist()
    seen = [False] * (len(indptr) - 1)
    seen[0] = True
    stack = [0]
    while stack:
        i = stack.pop()
        for j in cols[indptr[i] : indptr[i + 1]]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def _metropolis_topology(n: int, pairs: np.ndarray) -> Topology:
    """Metropolis-Hastings weights ``w_ij = 1 / (1 + max(deg_i, deg_j))`` on sorted edges."""
    deg = np.bincount(pairs.ravel(), minlength=n)
    weights = 1.0 / (1.0 + np.maximum(deg[pairs[:, 0]], deg[pairs[:, 1]]))
    return Topology(n=n, edges=pairs, weights=weights)


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
    return _metropolis_topology(adj.shape[0], np.argwhere(np.triu(adj, 1)))


def _check_agents(bad: np.ndarray, message: str) -> None:
    """Raise naming the first agent whose row of the (n, ...) mask ``bad`` has a True entry."""
    rows = bad.reshape(len(bad), -1).any(axis=1)
    if rows.any():
        raise InvalidInstanceError(f"agent {int(np.argmax(rows))}: {message}")


@dataclass(frozen=True)
class ProblemInstance:
    """A full resource allocation instance: every agent's data stacked by row, plus the topology.

    Agent ``i`` owns row ``i`` of each stack: its coupling ``A[i]`` (m x p, full
    row rank, ``p >= m``), its demand ``d[i]``, and either the quadratic cost
    ``f_i(x) = x'P[i]x - Q[i]'x`` with ``P[i]`` symmetric positive definite, or
    the generic ``costs[i]``.  Exactly one of ``P``/``Q`` and ``costs`` is
    given.  The constructor checks every invariant with one array operation
    over the whole stack and names the first agent that breaks it; the stored
    stacks are read-only.
    """

    A: np.ndarray  # (n, m, p)
    d: np.ndarray  # (n, m)
    topology: Topology
    P: np.ndarray | None = None  # (n, p, p)
    Q: np.ndarray | None = None  # (n, p)
    costs: tuple[CallableCost, ...] | None = None

    def __post_init__(self):
        n = self.topology.n
        A = np.array(self.A, dtype=float)
        if A.ndim != 3 or 0 in A.shape:
            raise InvalidInstanceError(f"A must be a nonempty (n, m, p) stack, got shape {A.shape}")
        if len(A) != n:
            raise InvalidInstanceError(f"{len(A)} agents but topology has {n} nodes")
        _, m, p = A.shape
        if p < m:
            raise InvalidInstanceError(f"A must have p >= m, got (m, p) = ({m}, {p})")
        given = (self.P is not None, self.Q is not None, self.costs is not None)
        if given not in ((True, True, False), (False, False, True)):
            raise InvalidInstanceError("give either quadratic P and Q, or generic costs")
        shapes = {"d": (n, m)}
        if self.costs is None:
            shapes.update(P=(n, p, p), Q=(n, p))
        stacks = {"A": A}
        for name, shape in shapes.items():
            stacks[name] = np.array(getattr(self, name), dtype=float)
            if stacks[name].shape != shape:
                raise InvalidInstanceError(f"{name} must have shape {shape}, got {stacks[name].shape}")
        for name, value in stacks.items():
            _check_agents(~np.isfinite(value), f"{name} contains non-finite entries")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        eigenvalues = None
        if self.costs is None:
            P = stacks["P"]
            _check_agents(np.abs(P - P.swapaxes(1, 2)) > SYMMETRY_TOL, "P is not symmetric within 1e-12")
            eigenvalues = np.linalg.eigvalsh(P)
            _check_agents(eigenvalues[:, 0] <= 0.0, "P is not positive definite")
        else:
            object.__setattr__(self, "costs", tuple(self.costs))
            if len(self.costs) != n:
                raise InvalidInstanceError(f"{len(self.costs)} costs for {n} agents")
            dims = np.array([cost.p for cost in self.costs])
            _check_agents(dims != p, f"cost dimension differs from the {p} coupling columns")
        singular_values = np.linalg.svd(A, compute_uv=False)
        _check_agents(
            singular_values[:, -1] <= RANK_TOL, "A is not full row rank (smallest singular value <= 1e-10)"
        )
        # the extremes spectral_constants reads
        object.__setattr__(self, "_P_eigenvalues", eigenvalues)
        object.__setattr__(self, "_A_singular_values", singular_values)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.A.shape[2]

    @property
    def quadratic(self) -> bool:
        return self.costs is None

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """Per-agent ``A'(AA')^{-1}``, the closed-form affine projection kernels, as (n, p, m)."""
        out = np.ascontiguousarray(compute_projector(self.A))
        out.setflags(write=False)
        return out

    @cached_property
    def hessian_stack(self) -> np.ndarray | None:
        """Per-agent ``2 P_i``, the quadratic costs' Hessians, as (n, p, p); None for generic costs."""
        if self.P is None:
            return None
        out = 2.0 * self.P
        out.setflags(write=False)
        return out

    @cached_property
    def demand_total(self) -> np.ndarray:
        """``sum_i d_i``, the right-hand side of the coupled constraint."""
        out = self.d.sum(axis=0)
        out.setflags(write=False)
        return out

    def _rows(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.p):
            raise ValueError(f"x must have shape ({self.n}, {self.p}), got {x.shape}")
        return x

    def cost(self, x) -> np.ndarray:
        """Every agent's cost ``f_i(x_i)`` at the rows of ``x`` (n, p), as an (n,) array."""
        x = self._rows(x)
        if self.costs is None:
            return np.einsum("ni,nij,nj->n", x, self.P, x) - np.einsum("ni,ni->n", self.Q, x)
        return np.array([f.value(xi) for f, xi in zip(self.costs, x)])

    def gradient(self, x) -> np.ndarray:
        """Every agent's cost gradient at the rows of ``x`` (``2 P_i x_i - Q_i`` for quadratics)."""
        x = self._rows(x)
        if self.costs is None:
            return np.einsum("nij,nj->ni", self.hessian_stack, x) - self.Q
        return np.stack([f.gradient(xi) for f, xi in zip(self.costs, x)])


def compute_projector(A: np.ndarray) -> np.ndarray:
    """Return ``A'(AA')^{-1}`` (p, m) for a full-row-rank ``A`` (m, p), or for each matrix of a stack."""
    At = np.swapaxes(A, -1, -2)
    return np.swapaxes(np.linalg.solve(A @ At, A), -1, -2)


def _ring_with_chords(n: int, extra_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Edges of a ring on ``n`` nodes plus ``extra_edges`` distinct random chords.

    Returns the sorted (E, 2) array of ``(i, j)`` pairs with ``i < j``.  The
    chords are drawn as indices into the lexicographic list of the
    ``n (n - 3) / 2`` non-ring pairs and mapped to pairs arithmetically, without
    listing the candidates: row ``i`` holds ``(i, i + 2) .. (i, n - 1)``, less
    the ring edge ``(0, n - 1)`` in row 0.
    """
    ring = np.arange(n - 1) * (n + 1) + 1  # keys i * n + (i + 1)
    if n > 2:
        ring = np.append(ring, n - 1)  # the closing edge (0, n - 1)
    per_row = np.maximum(n - 2 - np.arange(n), 0)
    if n > 2:
        per_row[0] -= 1
    available = int(per_row.sum())
    if extra_edges > available:
        raise InvalidInstanceError(
            f"cannot add {extra_edges} chords to a ring of {n} (only {available} available)"
        )
    keys = ring
    if extra_edges > 0:
        picks = rng.choice(available, size=extra_edges, replace=False)
        row_end = np.cumsum(per_row)
        rows = np.searchsorted(row_end, picks, side="right")
        cols = rows + 2 + picks - (row_end[rows] - per_row[rows])
        keys = np.concatenate([ring, rows * n + cols])
    keys = np.sort(keys)
    return np.stack([keys // n, keys % n], axis=1)


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
    topology = _metropolis_topology(n, _ring_with_chords(n, extra_edges, rng))
    C = np.empty(n)
    eigs = np.empty((n, 2))
    normals = np.empty((n, 2, 2))
    Q = np.empty((n, 2))
    for i in range(n):  # each agent's draws, in the generator's order
        C[i] = rng.uniform(0.5, 2.0)
        eigs[i] = rng.uniform(0.5, 2.0, size=2)
        normals[i] = rng.standard_normal((2, 2))
        Q[i] = 1.0 - rng.random(2)  # entrywise in (0, 1]
    basis, r = np.linalg.qr(normals)
    basis = basis * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    P = (basis * eigs[:, None, :]) @ basis.transpose(0, 2, 1)
    P = 0.5 * (P + P.transpose(0, 2, 1))
    A = np.zeros((n, 2, 2))
    A[:, 0, 0] = 1.0
    A[:, 1, 1] = C
    d = np.tile([r_max / n, 1.0 / n], (n, 1))
    return ProblemInstance(A=A, d=d, P=P, Q=Q, topology=topology)


LANCZOS_MAX_STEPS = 400
LANCZOS_CHECK_EVERY = 10
LANCZOS_RTOL = 1e-10


def _lanczos_extremes(topology: Topology) -> tuple[float, float] | None:
    """``(lambda_2, lambda_max)`` of the Laplacian by Lanczos on ``mix``, or None if it did not converge.

    Lanczos with full reorthogonalization (Golub & Van Loan, *Matrix
    Computations*, section 10.1) in the complement of ``1``: the Ritz values
    of the tridiagonal ``T_k`` are the eigenvalues of ``L`` restricted to the
    Krylov space, and for the Ritz pair ``(theta, s)`` the residual
    ``|beta_k s_k|`` bounds the distance from ``theta`` to an eigenvalue.
    """
    n = topology.n
    steps = min(LANCZOS_MAX_STEPS, n - 1)
    ones = np.full(n, 1.0 / math.sqrt(n))
    basis = np.empty((steps + 1, n))
    alphas, betas = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(0).standard_normal(n)
    for _ in range(2):
        q -= (ones @ q) * ones
    basis[0] = q / np.linalg.norm(q)
    for k in range(steps):
        w = topology.mix(basis[k])
        alphas[k] = basis[k] @ w
        # three-term recurrence, then one Gram-Schmidt pass against the basis
        # and 1; a second pass only if the first removed most of the vector
        # (norm below 1/sqrt(2) of what it was: "twice is enough")
        w -= alphas[k] * basis[k]
        if k:
            w -= betas[k - 1] * basis[k - 1]
        done = basis[: k + 1]
        for _ in range(2):
            before = np.linalg.norm(w)
            w -= done.T @ (done @ w)
            w -= (ones @ w) * ones
            beta = np.linalg.norm(w)
            if beta >= before / math.sqrt(2.0):
                break
        betas[k] = beta
        # a beta at rounding level means the Krylov space is invariant: check at once
        if (k + 1) % LANCZOS_CHECK_EVERY == 0 or beta <= LANCZOS_RTOL * abs(alphas[k]):
            T = np.diag(alphas[: k + 1]) + np.diag(betas[:k], 1) + np.diag(betas[:k], -1)
            theta, s = np.linalg.eigh(T)
            ends = theta[[0, -1]]
            if np.all(beta * np.abs(s[-1, [0, -1]]) <= LANCZOS_RTOL * np.abs(ends)):
                return float(ends[0]), float(ends[1])
        basis[k + 1] = w / beta
    return None


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


def spectral_constants(
    instance: ProblemInstance, ell: float | None = None, mu: float | None = None
) -> SpectralConstants:
    """Compute spectral constants of an instance.

    For quadratic costs ``ell = 2 max_i lambda_max(P_i)`` and
    ``mu = 2 min_i lambda_min(P_i)``; generic costs require both supplied.

    ``sigma_L_min`` is the smallest nonzero eigenvalue of the Laplacian (the
    Fiedler value ``lambda_2``: the graph is connected) and ``sigma_L_max``
    the largest.  Up to ``DENSE_MIX_MAX_N`` agents both come from
    ``eigvalsh`` on the dense ``L``.  Above, a Lanczos run on
    ``Topology.mix`` finds them without ``L``: step ``k`` costs one ``mix``
    plus O(k n) reorthogonalization, and the basis holds at most
    ``LANCZOS_MAX_STEPS + 1`` vectors of length n.  It starts from a seeded
    random vector orthogonal to ``1`` (the null space), keeps every basis
    vector orthogonal to the others and to ``1`` with one Gram-Schmidt pass
    after the three-term recurrence (a second only when the first shrinks
    the vector below ``1/sqrt(2)`` of its norm, the Kahan-Parlett test; on
    ring-plus-chord graphs it never does), and every ``LANCZOS_CHECK_EVERY`` steps
    stops once each extreme Ritz value ``theta`` has a residual of at most
    ``LANCZOS_RTOL * theta``, which bounds its distance to an eigenvalue of
    ``L``.  It stops at once on an invariant subspace (complete and star
    graphs take one or two steps).  A graph whose ``lambda_2`` has not
    converged after ``LANCZOS_MAX_STEPS`` steps (a bare ring or a long path,
    whose ``lambda_2`` is tiny and crowded) falls back to the dense
    ``eigvalsh``, so the constants are never an unconverged estimate.
    """
    if instance.quadratic:
        eigenvalues = instance._P_eigenvalues
        ell = 2.0 * eigenvalues.max() if ell is None else ell
        mu = 2.0 * eigenvalues.min() if mu is None else mu
    elif ell is None or mu is None:
        raise InvalidInstanceError("generic costs require user-supplied ell and mu")

    singular_values = instance._A_singular_values
    topology = instance.topology
    extremes = _lanczos_extremes(topology) if topology.n > DENSE_MIX_MAX_N else None
    if extremes is None:
        eig_L = np.linalg.eigvalsh(topology.L)
        extremes = eig_L[eig_L > SYMMETRY_TOL][0], eig_L[-1]
    return SpectralConstants(
        ell=float(ell),
        mu=float(mu),
        sigma_A_max=float(singular_values.max()),
        sigma_A_min=float(singular_values.min()),
        sigma_L_max=float(extremes[1]),
        sigma_L_min=float(extremes[0]),
    )


@dataclass(frozen=True)
class BufferSchedule:
    """Queue buffer floor per iteration: constant ``w``, decaying ``c/(k+1)``, or explicit.

    Every level is finite.  The built-in decaying family is square-summable
    for every coefficient (``sum_k (c/(k+1))^2 = c^2 pi^2 / 6``).  Explicit
    sequences must be nonnegative and nonincreasing (the queue floor carried
    from one step to the next relies on it), and hold their last value past
    the end.
    """

    kind: str
    omega: float = 0.0
    coefficient: float = 0.0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if not (math.isfinite(self.omega) and self.omega >= 0):
                raise InvalidInstanceError(f"buffer level must be finite and >= 0, got {self.omega}")
        elif self.kind == "decaying":
            if not (math.isfinite(self.coefficient) and self.coefficient > 0):
                raise InvalidInstanceError("decaying buffer needs a finite positive coefficient")
        elif self.kind == "sequence":
            if not self.values or not all(math.isfinite(v) and v >= 0 for v in self.values):
                raise InvalidInstanceError("sequence buffer needs finite nonnegative values")
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

    @classmethod
    def from_dict(cls, data: dict) -> "BufferSchedule":
        """The schedule of a config's buffer section; an unknown kind or a missing level is a ConfigError."""
        kind = data.get("kind")
        key = {"constant": "omega", "decaying": "coefficient", "sequence": "values"}.get(kind)
        if key is None:
            raise ConfigError(f"unknown buffer kind {kind!r}")
        if key not in data:
            raise ConfigError(f"missing required key {key!r} for buffer kind {kind!r}")
        return getattr(cls, kind)(data[key])


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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidInstanceError(f"{name} must be finite and strictly positive, got {value}")
        if self.gamma >= 1:
            raise InvalidInstanceError(f"gamma must be < 1, got {self.gamma}")


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
    """Serialize an instance (quadratic costs only) to a UTF-8 JSON document.

    The document is ``{"n", "p", "m", "agents", "topology"}``: ``agents`` holds
    one ``{"P", "Q", "A", "d"}`` object per agent, and ``topology`` is
    ``{"edges": [[i, j], ...], "weights": [w_e, ...]}``, the edges with
    ``i < j`` in lexicographic order and one weight per edge.  The node count
    is the top-level ``n``, and the self-weights ``w_ii = 1 - sum_j w_ij`` are
    implied.  Floats are written at full precision, so a reload is bit-exact.
    """
    if not instance.quadratic:
        raise InvalidInstanceError("only quadratic-cost instances are serializable")
    stacks = (instance.P.tolist(), instance.Q.tolist(), instance.A.tolist(), instance.d.tolist())
    doc = {
        "n": instance.n,
        "p": instance.p,
        "m": instance.m,
        "agents": [{"P": P, "Q": Q, "A": A, "d": d} for P, Q, A, d in zip(*stacks)],
        "topology": {
            "edges": instance.topology.edges.tolist(),
            "weights": instance.topology.weights.tolist(),
        },
    }
    return json.dumps(doc)


def _json_floats(value, where: str) -> np.ndarray:
    """A rectangular list of JSON numbers as a float array; anything else is a ValueError."""
    arr = np.array(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{where} must be numbers, got {arr.dtype} entries")
    return arr.astype(float)


def _json_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def instance_from_json(text: str) -> ProblemInstance:
    """Load an instance from its JSON document, re-validating all invariants.

    Invalid JSON, a wrong structure, agents of different shapes, a number
    written as a string (or as a boolean or null), an ``n``, ``p`` or ``m``
    that is not an integer or disagrees with the agents all raise
    ``InvalidInstanceError``.  The topology goes to the ``Topology``
    constructor as stored, so edges not sorted with ``i < j``, a weight count
    other than one per edge (a dense weight matrix included), and any other
    invalid graph raise its ``TopologyError``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"instance document is not valid JSON: {exc}") from exc
    try:
        agents = doc["agents"]
        P, Q, A, d = (_json_floats([agent[key] for agent in agents], f"agents' {key}") for key in "PQAd")
        sizes = tuple(_json_int(doc[key], key) for key in ("n", "p", "m"))
        weights = _json_floats(doc["topology"]["weights"], "topology weights")
        topology = Topology(n=sizes[0], edges=doc["topology"]["edges"], weights=weights)
    except KeyError as exc:
        raise InvalidInstanceError(f"instance document is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed instance document: {exc}") from exc
    instance = ProblemInstance(A=A, d=d, P=P, Q=Q, topology=topology)
    if sizes != (instance.n, instance.p, instance.m):
        raise InvalidInstanceError(
            f"document says (n, p, m) = {sizes}, but its agents have {(instance.n, instance.p, instance.m)}"
        )
    return instance
