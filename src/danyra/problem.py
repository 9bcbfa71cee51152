"""Problem instances: agent costs, coupling matrices, topology, step parameters and spectral constants.

The resource allocation problem is ``min sum_i f_i(x_i)`` subject to the single
coupled constraint ``sum_i A_i x_i <= sum_i d_i`` (or ``=`` in equality mode),
with each ``f_i`` convex, ``A_i`` full row rank, and agents exchanging data over
a connected undirected graph with doubly stochastic weights.

A ``ProblemInstance`` holds each kind of agent data as one stack with a row
per agent (``A`` (n, m, p), ``d`` (n, m), quadratic ``P`` (n, p, p) and
``Q`` (n, p)), so building, validating and using an instance are array
operations over the whole swarm; only generic ``CallableCost`` agents are
called one at a time.  The stacks are stored agents innermost (Fortran
order), so the batched products over the short ``m``/``p`` axes run along
the agents; sums over agents (``agent_sum``) still add the rows one after
another, as numpy's ``.sum(axis=0)`` does on a row-major stack.

The graph is stored by edge (``Topology``), in memory and in instance files:
generating, loading, validating and mixing over it cost O(|E|).  Above
``DENSE_MIX_MAX_N`` agents the Laplacian's two spectral constants are
certified bounds in O(n + |E|), not eigenvalues, so an advisory step-size
check may fail there that the exact eigenvalues would pass.  Swarms of
thousands of agents never allocate an n x n array unless a caller asks for
the dense Laplacian ``L``.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InvalidInstanceError, TopologyError

SYMMETRY_TOL = 1e-12
RANK_TOL = 1e-10
_NOT_FULL_ROW_RANK = f"A is not full row rank (smallest singular value <= {RANK_TOL:g})"

INEQUALITY = "inequality"
EQUALITY = "equality"


@dataclass(frozen=True)
class CallableCost:
    """Generic convex cost given as a value/gradient oracle pair.

    Spectral constants cannot be derived from an oracle pair, so runs using these costs must supply the
    smoothness/convexity constants explicitly.  ``gradient_fn`` must be a pure function: ``iterate`` does not call
    it on a step that reuses a fixed state (see ``danyra.engine``).  A result with an entry that is not a number
    (``gradient must be numbers, got str entries``), or a value that is not one number, raises
    ``InvalidInstanceError``; numpy scalars and 0-d arrays are numbers.  A ``p`` must be a whole number.
    """

    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _whole_number(self.p, "p", InvalidInstanceError))

    def value(self, x: np.ndarray) -> float:
        return float(_real_shaped(self.value_fn(x), "value", ()))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return _real_array(self.gradient_fn(x), "gradient", InvalidInstanceError)


# At or below this many agents ``Topology.mix`` is the dense ``L @ v`` and
# ``spectral_constants`` runs ``eigvalsh`` on ``L``; above it, ``mix`` is a
# segment sum over the neighbor arrays and the spectral constants are
# certified bounds, not eigenvalues (an advisory check may fail on them that
# the eigenvalues would pass).  Per call on a ring plus 2n chords with two
# agent-innermost columns (2-core x86, numpy 2.4), dense vs segment sum:
# 2.5-2.9 vs 11-12 us at n=14, 9-11 vs 24-27 us at n=200, 33-37 vs 38-42 us
# at n=400, 68-70 vs 45-50 us at n=500, 116-140 vs 51-52 us at n=600,
# 222-313 vs 47-65 us at n=700, 1.2-1.6 ms vs 84-116 us at n=2000.  The
# crossover is near n=450; the threshold stays at 600 because moving it
# changes the rounding of ``mix``, and so the traces, for every n in between.
DENSE_MIX_MAX_N = 600


@dataclass(frozen=True, eq=False)
class Topology:
    """Connected undirected graph with symmetric doubly stochastic weights, stored by edge.

    ``edges`` is the read-only (E, 2) int64 array of the ``(i, j)`` pairs with
    ``i < j`` in lexicographic order, and ``weights[e] = w_ij > 0`` is the
    weight of edge ``e``; the self-weight is ``w_ii = 1 - sum_j w_ij``, so
    each node's edge weights may sum to at most 1.  The Laplacian's rows
    (``l_ij = -w_ij``, ``l_ii = sum_{j != i} w_ij``) sum to zero by
    construction.  Construction and validation take O(n + |E|) time and
    memory; up to ``DENSE_MIX_MAX_N`` agents the first :meth:`mix` or
    :func:`spectral_constants` builds the dense ``L``.  Above, neither reads
    it, and the two Laplacian constants are certified bounds, not
    eigenvalues: Gershgorin's from the degrees, and Mohar's from node 0's
    eccentricity, which construction's connectivity search records.  An
    advisory check may fail on them that the eigenvalues would pass.
    """

    n: int
    edges: np.ndarray  # (E, 2)
    weights: np.ndarray

    def __post_init__(self):
        n = _whole_number(self.n, "n", TopologyError)
        if n < 1:
            raise TopologyError(f"a topology needs at least one node, got n={n}")
        edges = _edge_array(self.edges, n)
        weights = _real_array(self.weights, "weights", TopologyError)
        _validate_edges(n, edges, weights)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.argsort(rows * n + cols)
        rows, cols, csr_weights = rows[order], cols[order], np.concatenate([weights, weights])[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        edges.setflags(write=False)
        weights.setflags(write=False)
        vars(self).update(
            n=n, edges=edges, weights=weights, _indptr=indptr, _cols=cols, _csr_weights=csr_weights,
            _laplacian_diag=np.bincount(rows, weights=csr_weights, minlength=n)[:, None],
        )
        heavy = np.flatnonzero(self._laplacian_diag[:, 0] > 1.0 + SYMMETRY_TOL)
        if heavy.size:
            i, total = int(heavy[0]), float(self._laplacian_diag[heavy[0], 0])
            raise TopologyError(f"node {i}: edge weights sum to {total} > 1 (negative self-weight)")
        eccentricity = _eccentricity(indptr, cols)
        if eccentricity is None:
            raise TopologyError("graph is disconnected")
        object.__setattr__(self, "_eccentricity", eccentricity)

    def mix(self, v: np.ndarray) -> np.ndarray:
        """Return ``L @ v``: row ``i`` is ``sum_j w_ij (v_i - v_j)`` over the edges ``(i, j)``.

        Up to ``DENSE_MIX_MAX_N`` agents this is the dense product itself;
        above, a segment sum over the neighbor arrays in O(|E|) time, equal to
        it up to the order of the floating-point sums.  The terms are gathered
        with ``np.take`` into a (columns, 2E) array, so each agent's neighbor
        terms are contiguous in memory when they are summed.  Both branches
        return the agents innermost (Fortran order).  ``v`` is not checked:
        this is the exchange kernel, which ``iterate`` calls on its own arrays.
        """
        if self.n <= DENSE_MIX_MAX_N:
            return np.matmul(self.L, v, out=np.empty(v.shape, order="F"))
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


def _whole_number(value, name: str, error: type[Exception]) -> int:
    """``value`` as an ``int``: an integer (numpy's too) or a whole float; anything else raises ``error``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise error(f"{name} must be a whole number, got {value!r}")


def _real(value, rule: str, error: type[Exception]) -> float:
    """``value`` as a ``float``: a real number (numpy's too), not a boolean; anything else raises ``error`` with ``rule``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise error(f"{rule}, got {value!r}")


def _real_array(value, name: str, error: type[Exception], integer: bool = False) -> np.ndarray:
    """``value`` as a new float64 (int64 if ``integer``) array in Fortran order; any other entry raises ``error``.

    A numpy array of a real (integer) dtype is copied as it is.  Anything else is read as objects whose set of entry
    types is checked at once: text, a boolean, None or a list left by a ragged shape (or a float where integers are
    wanted) raise ``{name} must be numbers, got str entries``.
    """
    dtype, wanted, noun = (np.int64, numbers.Integral, "integers") if integer else (float, numbers.Real, "numbers")
    if isinstance(value, np.ndarray) and value.dtype.kind in ("iu" if integer else "iuf"):
        return np.array(value, dtype=dtype, order="F")
    try:
        entries = np.array(value, dtype=object)
        kinds = set(map(type, entries.flat))
        bad = {kind.__name__ for kind in kinds if issubclass(kind, bool) or not issubclass(kind, wanted)}
        if not bad:
            return entries.astype(dtype, order="F")
    except ValueError:  # a ragged nesting of arrays, which numpy cannot hold even as objects
        bad = {"ragged"}
    except OverflowError:  # an integer beyond float64 (int64)
        bad = {"out-of-range int"}
    raise error(f"{name} must be {noun}, got {', '.join(sorted(bad))} entries")


def _real_shaped(value, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` read by ``_real_array`` and required to have ``shape``; either failure is an ``InvalidInstanceError``."""
    out = _real_array(value, name, InvalidInstanceError)
    if out.shape != shape:
        raise InvalidInstanceError(f"{name} must have shape {shape}, got {out.shape}")
    return out


# The kinds of a JSON document's schema.  A kind is an ``_Object`` section (the kind of each key it may have, and the
# keys it must have), ``_OrNull`` (``null`` or a value of its kind), a one-item list ``[kind]`` (a list of that kind),
# a dict of tagged sections (an object whose ``kind`` names one of the dict's entries; that entry's first two items
# are the section's one other key and its kind), ``object`` (a section key's value of any kind, left to the
# constructor that checks it), ``int`` (a whole number, read by ``_whole_number``), or one of the JSON scalars below,
# named by the Python type it parses to.
_Object = namedtuple("_Object", "keys required", defaults=((),))
_OrNull = namedtuple("_OrNull", "kind")
_SCALARS = {float: "a number", str: "a string", bool: "a boolean"}


def _checked(value, kind, error: type[Exception], root: str, path: str = ""):
    """``value`` checked by ``kind``, its checked parts copied (whole floats as ``int``); ``error`` names a path."""
    if isinstance(kind, _Object):
        where = path or root
        if not isinstance(value, dict):
            raise error(f"{where} must be an object, got {value!r}")
        if value.keys() != kind.keys.keys():  # not exactly the section's keys: name an unknown or a missing one
            unknown = sorted(value.keys() - kind.keys)
            if unknown:
                raise error(f"unknown key(s) {unknown} in {where}")
            for key in kind.required:
                if key not in value:
                    raise error(f"missing required key {key!r} in {where}")
        dot, kinds = f"{path}." if path else "", kind.keys
        checked = {k: _checked(v, kinds[k], error, root, dot + k) for k, v in value.items() if kinds[k] is not object}
        return {**value, **checked} if checked else value  # a section of unchecked values is not copied
    if isinstance(kind, _OrNull):
        return None if value is None else _checked(value, kind.kind, error, root, path)
    if isinstance(kind, dict):  # the tag first: it picks the one other key the section may have
        if not (isinstance(value, dict) and "kind" in value):
            raise error(f"{path} must be an object with a 'kind', got {value!r}")
        tag = _checked(value["kind"], str, error, root, f"{path}.kind")
        if tag not in kind:
            raise error(f"{path}.kind must be one of {sorted(kind)}, got {tag!r}")
        key, level, *_ = kind[tag]
        return _checked(value, _Object({"kind": str, key: level}, ("kind", key)), error, root, path)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise error(f"{path} must be a list, got {value!r}")
        return [_checked(item, kind[0], error, root, f"{path}[{idx}]") for idx, item in enumerate(value)]
    if kind is int:
        return _whole_number(value, path, error)
    if isinstance(value, bool) == (kind is bool) and isinstance(value, (int, float) if kind is float else kind):
        return value
    raise error(f"{path} must be {_SCALARS[kind]}, got {value!r}")


def _edge_array(edges, n: int) -> np.ndarray:
    """Edges as a new (E, 2) int64 array, every endpoint in ``range(n)``."""
    pairs = _real_array(edges, "edges", TopologyError, integer=True)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise TopologyError(f"edges must be (i, j) pairs, got shape {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise TopologyError(f"edge endpoint out of range for n={n}")
    return pairs


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


def _eccentricity(indptr: np.ndarray, cols: np.ndarray) -> int | None:
    """Node 0's eccentricity by breadth-first search over the neighbor arrays; None if the graph is disconnected."""
    indptr, cols = indptr.tolist(), cols.tolist()
    depth = [-1] * (len(indptr) - 1)
    depth[0] = 0
    queue = [0]
    for i in queue:  # the queue grows while it is walked, in order of depth
        for j in cols[indptr[i] : indptr[i + 1]]:
            if depth[j] < 0:
                depth[j] = depth[i] + 1
                queue.append(j)
    return depth[queue[-1]] if len(queue) == len(depth) else None


def _metropolis_topology(n: int, pairs: np.ndarray) -> Topology:
    """Metropolis-Hastings weights ``w_ij = 1 / (1 + max(deg_i, deg_j))`` on sorted edges."""
    deg = np.bincount(pairs.ravel(), minlength=n)
    weights = 1.0 / (1.0 + np.maximum(deg[pairs[:, 0]], deg[pairs[:, 1]]))
    return Topology(n=n, edges=pairs, weights=weights)


def metropolis_weights(adjacency) -> Topology:
    """Build a topology with Metropolis-Hastings weights from a 0/1 (or boolean) adjacency matrix.

    ``w_ij = 1 / (1 + max(deg_i, deg_j))`` on edges, ``w_ii = 1 - sum_j w_ij``;
    this is symmetric and doubly stochastic on any graph.  The Laplacian uses
    ``l_ii = sum_{j != i} w_ij`` and ``l_ij = -w_ij``.
    """
    try:
        adj = np.asarray(adjacency)
    except ValueError as exc:  # a ragged nesting, which numpy cannot hold as one array
        raise TopologyError("adjacency entries must be 0/1 or booleans, got a ragged nesting") from exc
    if adj.dtype.kind not in "biuf" or np.any((adj != 0) & (adj != 1)):
        raise TopologyError("adjacency entries must be 0/1 or booleans")
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


def agent_sum(values: np.ndarray) -> np.ndarray:
    """``sum_i values[i]`` of an (n, k) stack, bit for bit numpy's ``.sum(axis=0)`` of its C-order copy.

    For k > 1 that sum adds the rows in sequence (numpy's own on a Fortran
    array is pairwise); ``+ 0.0`` makes an all ``-0.0`` column ``+0.0``, as
    numpy's does.  One column is the same array in both orders.
    """
    if values.shape[1] == 1:
        return values.sum(axis=0)
    return np.add.accumulate(values, axis=0)[-1] + 0.0


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A full resource allocation instance: every agent's data stacked by row, plus the topology.

    Agent ``i`` owns row ``i`` of each stack: its coupling ``A[i]`` (m x p, full
    row rank, ``p >= m``), its demand ``d[i]``, and either the quadratic cost
    ``f_i(x) = x'P[i]x - Q[i]'x`` with ``P[i]`` symmetric positive definite, or
    the generic ``costs[i]``.  Exactly one of ``P``/``Q`` and ``costs`` is
    given.  The constructor checks every invariant with one array operation
    over the whole stack, last building ``projector_stack`` (an ``AA'`` that
    is singular in floating point is invalid too), and names the first agent
    that breaks one; the stored stacks are read-only copies in Fortran order
    (agents innermost), and so are ``projector_stack`` and ``hessian_stack``.
    """

    A: np.ndarray  # (n, m, p)
    d: np.ndarray  # (n, m)
    topology: Topology
    P: np.ndarray | None = None  # (n, p, p)
    Q: np.ndarray | None = None  # (n, p)
    costs: tuple[CallableCost, ...] | None = None

    def __post_init__(self):
        n = self.topology.n
        A = _real_array(self.A, "A", InvalidInstanceError)
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
            stacks[name] = _real_shaped(getattr(self, name), name, shape)
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
        _check_agents(singular_values[:, -1] <= RANK_TOL, _NOT_FULL_ROW_RANK)
        self.projector_stack  # solves every agent's AA' once, here, where a singular one can fail
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
        out = np.asfortranarray(_projector(self.A))
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
        out = agent_sum(self.d)
        out.setflags(write=False)
        return out

    def cost(self, x) -> np.ndarray:
        """The (n,) array of every agent's cost ``f_i(x_i)`` at the rows of ``x``, checked as by :meth:`gradient`."""
        x = _real_shaped(x, "x", (self.n, self.p))
        if self.costs is None:
            return np.einsum("ni,nij,nj->n", x, self.P, x) - np.einsum("ni,ni->n", self.Q, x)
        return np.array([f.value(xi) for f, xi in zip(self.costs, x)])

    def gradient(self, x) -> np.ndarray:
        """Every agent's cost gradient at the rows of ``x`` (``2 P_i x_i - Q_i`` for quadratics).

        An ``x`` not of shape (n, p) or with an entry that is not a number (``x must be numbers, got str entries``),
        or a generic cost's gradient not of shape (p,) (naming its agent), raises ``InvalidInstanceError``.
        """
        return self._gradient(_real_shaped(x, "x", (self.n, self.p)))

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        """:meth:`gradient` at an (n, p) float array, unchecked; ``iterate`` calls it on its own ``x'``."""
        if self.costs is None:
            return np.einsum("nij,nj->ni", self.hessian_stack, x) - self.Q
        grads = [f.gradient(xi) for f, xi in zip(self.costs, x)]
        _check_agents(np.array([grad.shape != (self.p,) for grad in grads]), f"gradient must have shape ({self.p},)")
        return np.stack(grads)


def _projector(A: np.ndarray) -> np.ndarray:
    """``A'(AA')^{-1}`` (n, p, m) of a full-row-rank (n, m, p) stack, by one batched solve; where rounding makes an
    ``AA'`` singular (as for ``[[1, 2], [1, 2 + 1e-8]]``), the solves are repeated one agent at a time to name it."""
    gram = A @ np.swapaxes(A, -1, -2)
    try:
        return np.swapaxes(np.linalg.solve(gram, A), -1, -2)
    except np.linalg.LinAlgError:
        for i in range(len(A)):
            try:
                np.linalg.solve(gram[i], A[i])
            except np.linalg.LinAlgError:
                raise InvalidInstanceError(f"agent {i}: AA' is singular in floating point") from None
        # not reached: the batched solve fails only where one agent's solve fails
        raise InvalidInstanceError("AA' is singular in floating point") from None


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
    ``Q_i`` entrywise uniform in ``(0, 1]``.

    A seed's instance stays the same as long as numpy's ``default_rng`` stream
    does, since the draws keep one order: first the chords, then agent by
    agent ``C_i``, the two eigenvalues, the four normals of the basis (row by
    row) and the two entries of ``Q_i``.
    """
    n = _whole_number(n, "n", InvalidInstanceError)
    extra_edges = _whole_number(extra_edges, "extra_edges", InvalidInstanceError)
    seed = _whole_number(seed, "seed", InvalidInstanceError)
    if seed < 0:
        raise InvalidInstanceError(f"seed must be >= 0, got {seed}")
    if n < 2:
        raise InvalidInstanceError(f"need at least 2 agents, got {n}")
    rule = "r_max must be a finite positive number"
    if not 0 < _real(r_max, rule, InvalidInstanceError) < math.inf:
        raise InvalidInstanceError(f"{rule}, got {r_max!r}")
    if extra_edges < 0:
        raise InvalidInstanceError(f"extra_edges must be nonnegative, got {extra_edges}")

    rng = np.random.default_rng(seed)
    topology = _metropolis_topology(n, _ring_with_chords(n, extra_edges, rng))
    # uniform(a, b) is a + (b - a) * random(), one word per double, so agent
    # i's two Q_i doubles and agent i + 1's C and eigenvalues are one run of
    # five random() doubles; row i of u is agent i's C_i, eigenvalues and Q_i
    u = np.empty(5 * n)
    normals = np.empty((n, 2, 2))
    rng.random(out=u[:3])
    for i in range(n):  # the normals have no fixed word count: one call each
        rng.standard_normal(out=normals[i])
        rng.random(out=u[5 * i + 3 : 5 * i + 8])  # the last agent's run is its two Q doubles
    u = u.reshape(n, 5)
    C = 0.5 + 1.5 * u[:, 0]
    eigs = 0.5 + 1.5 * u[:, 1:3]
    Q = 1.0 - u[:, 3:]  # entrywise in (0, 1]
    basis, r = np.linalg.qr(normals)
    basis = basis * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    P = (basis * eigs[:, None, :]) @ basis.transpose(0, 2, 1)
    P = 0.5 * (P + P.transpose(0, 2, 1))
    A = np.zeros((n, 2, 2))
    A[:, 0, 0] = 1.0
    A[:, 1, 1] = C
    d = np.tile([r_max / n, 1.0 / n], (n, 1))
    return ProblemInstance(A=A, d=d, P=P, Q=Q, topology=topology)


@dataclass(frozen=True)
class SpectralConstants:
    """Smoothness/convexity and coupling-spectrum constants used by the step-size checks.

    ``sigma_L_max`` and ``sigma_L_min`` are the Laplacian's ``lambda_max`` and
    ``lambda_2`` up to ``DENSE_MIX_MAX_N`` agents.  Above, they are certified
    bounds, ``sigma_L_max >= lambda_max`` and ``sigma_L_min <= lambda_2``, not
    eigenvalues: the advisory checks stay valid, but one may fail there that
    the exact eigenvalues would pass.
    """

    ell: float
    mu: float
    sigma_A_max: float
    sigma_A_min: float
    sigma_L_max: float
    sigma_L_min: float

    def __post_init__(self):
        for name, value in asdict(self).items():
            number = _real(value, f"{name} must be a finite number", InvalidInstanceError)
            if not math.isfinite(number):
                raise InvalidInstanceError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, number)
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

    For quadratic costs ``ell = 2 max_i lambda_max(P_i)`` and ``mu = 2 min_i lambda_min(P_i)`` unless supplied;
    generic costs require both.  A supplied one is checked by ``SpectralConstants``: a finite number.

    Up to ``DENSE_MIX_MAX_N`` agents, ``sigma_L_min`` is the smallest nonzero
    eigenvalue of the Laplacian (the Fiedler value ``lambda_2``: the graph is
    connected) and ``sigma_L_max`` the largest, both from ``eigvalsh`` on the
    dense ``L``.  Above, both are bounds in O(n + |E|) that never build ``L``,
    so an advisory check may fail there that the eigenvalues would pass:

    - ``sigma_L_max = 2 max_i l_ii >= lambda_max`` (Gershgorin), which only
      tightens ``alpha_network_coupling``;
    - ``sigma_L_min = 2 w_min / (n ecc(0)) <= lambda_2``: Mohar's
      ``lambda_2 >= 4 / (n D)`` for the unweighted Laplacian (*Graphs and
      Combinatorics* 7, 1991), with the diameter ``D <= 2 ecc(0)`` and
      ``L >= w_min L_unweighted``.  It only raises ``theta_prime``.
    """
    if instance.quadratic:
        eigenvalues = instance._P_eigenvalues
        ell = 2.0 * eigenvalues.max() if ell is None else ell
        mu = 2.0 * eigenvalues.min() if mu is None else mu
    elif ell is None or mu is None:
        raise InvalidInstanceError("generic costs require user-supplied ell and mu")

    singular_values = instance._A_singular_values
    topology = instance.topology
    if topology.n == 1:
        raise InvalidInstanceError("one agent: a single node's Laplacian has no nonzero eigenvalue (sigma_L_min)")
    if topology.n <= DENSE_MIX_MAX_N:
        eig_L = np.linalg.eigvalsh(topology.L)
        sigma_L_min, sigma_L_max = eig_L[eig_L > SYMMETRY_TOL][0], eig_L[-1]
    else:
        sigma_L_min = 2.0 * topology.weights.min() / (topology.n * topology._eccentricity)
        sigma_L_max = 2.0 * topology._laplacian_diag.max()
    return SpectralConstants(
        ell=ell,
        mu=mu,
        sigma_A_max=singular_values.max(),
        sigma_A_min=singular_values.min(),
        sigma_L_max=sigma_L_max,
        sigma_L_min=sigma_L_min,
    )


@dataclass(frozen=True)
class BufferSchedule:
    """Queue buffer floor per iteration: ``value(k) = levels[min(k, len(levels) - 1)] + coefficient / (k + 1)``.

    ``constant(w)`` is the one level ``w``, ``sequence(values)`` explicit
    levels whose last holds past the end, and ``decaying(c)`` the level 0
    plus ``c/(k+1)``, square-summable for every coefficient
    (``sum_k (c/(k+1))^2 = c^2 pi^2 / 6``).  Levels are finite, nonnegative
    and nonincreasing (the queue floor carried from one step to the next
    relies on it), and stored ``+ 0.0``; the coefficient is finite and >= 0.
    A bad level or coefficient is a run setting's ``ConfigError``.
    """

    levels: tuple[float, ...]
    coefficient: float = 0.0

    def __post_init__(self):
        rule = "buffer levels must be finite and >= 0"
        if not np.iterable(self.levels):
            raise ConfigError(f"{rule}, got {self.levels!r}")
        levels = tuple(_real(v, rule, ConfigError) + 0.0 for v in self.levels)
        if not levels or not all(math.isfinite(v) and v >= 0 for v in levels):
            raise ConfigError(f"{rule}, got {self.levels!r}")
        if any(b > a for a, b in zip(levels, levels[1:])):
            raise ConfigError("buffer levels must be nonincreasing")
        rule = "buffer coefficient must be finite and >= 0"
        coefficient = _real(self.coefficient, rule, ConfigError)
        if not (math.isfinite(coefficient) and coefficient >= 0):
            raise ConfigError(f"{rule}, got {coefficient!r}")
        vars(self).update(levels=levels, coefficient=coefficient)

    @classmethod
    def constant(cls, omega: float) -> "BufferSchedule":
        return cls(levels=(omega,))

    @classmethod
    def decaying(cls, coefficient: float) -> "BufferSchedule":
        rule = "decaying buffer needs a finite positive coefficient"
        if not _real(coefficient, rule, ConfigError) > 0:
            raise ConfigError(f"{rule}, got {coefficient!r}")
        return cls(levels=(0.0,), coefficient=coefficient)

    @classmethod
    def sequence(cls, values: Sequence[float]) -> "BufferSchedule":
        return cls(levels=values)

    def value(self, k: int) -> float:
        """The floor at step ``k``, which is not checked: ``iterate`` calls this with a state's own ``k``."""
        return self.levels[min(k, len(self.levels) - 1)] + self.coefficient / (k + 1)

    @property
    def limit(self) -> float:
        """Limiting buffer level; the steady-state accuracy bound scales with it."""
        return self.levels[-1]


@dataclass(frozen=True)
class HyperParams:
    """Step parameters; ``buffer`` is the queue floor schedule.  A bad one is a run setting's ``ConfigError``."""

    alpha: float
    beta: float
    eta: float
    gamma: float
    buffer: BufferSchedule = field(default_factory=lambda: BufferSchedule.constant(0.0))

    def __post_init__(self):
        for name in ("alpha", "beta", "eta", "gamma"):
            rule = f"{name} must be finite and strictly positive"
            value = _real(getattr(self, name), rule, ConfigError)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{rule}, got {value}")
            object.__setattr__(self, name, value)
        if self.gamma >= 1:
            raise ConfigError(f"gamma must be < 1, got {self.gamma}")
        if not isinstance(self.buffer, BufferSchedule):
            raise ConfigError(f"buffer must be a BufferSchedule, got {self.buffer!r}")


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
    agents = [dict(zip("PQAd", agent)) for agent in zip(*(getattr(instance, key).tolist() for key in "PQAd"))]
    topology = {"edges": instance.topology.edges.tolist(), "weights": instance.topology.weights.tolist()}
    return json.dumps({"n": instance.n, "p": instance.p, "m": instance.m, "agents": agents, "topology": topology})


# The instance document ``instance_to_json`` writes; its arrays are left to the constructors that read them.
_AGENT = _Object(dict.fromkeys("PQAd", object), tuple("PQAd"))
_TOPOLOGY = _Object({"edges": object, "weights": object}, ("edges", "weights"))
_INSTANCE_DOCUMENT = _Object(
    {"n": int, "p": int, "m": int, "agents": [_AGENT], "topology": _TOPOLOGY}, ("n", "p", "m", "agents", "topology")
)


def instance_from_json(text: str) -> ProblemInstance:
    """Load an instance from its JSON document, re-validating all invariants.

    Invalid JSON, a document that is not ``instance_to_json``'s (a missing or
    unknown key, or a value of the wrong JSON kind, such as an ``n`` that is
    not a whole number: the message names its path), and an ``(n, p, m)`` that
    disagrees with the agents raise ``InvalidInstanceError``.  The arrays go
    to the constructors as stored, so what ``ProblemInstance`` or ``Topology``
    rejects (agents of different shapes, an entry that is not a number,
    unsorted edges, a weight count other than one per edge) raises its
    ``InvalidInstanceError`` or ``TopologyError``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"instance document is not valid JSON: {exc}") from exc
    doc = _checked(doc, _INSTANCE_DOCUMENT, InvalidInstanceError, "instance document")
    P, Q, A, d = ([agent[key] for agent in doc["agents"]] for key in "PQAd")
    topology = Topology(n=doc["n"], **doc["topology"])
    instance = ProblemInstance(A=A, d=d, P=P, Q=Q, topology=topology)
    sizes = (doc["n"], doc["p"], doc["m"])
    if sizes != (instance.n, instance.p, instance.m):
        raise InvalidInstanceError(
            f"document says (n, p, m) = {sizes}, but its agents have {(instance.n, instance.p, instance.m)}"
        )
    return instance
