"""Reference constructions the topology is diffed against, bit for bit.

``ring_with_chords`` lists every non-ring pair and draws chords from that
list; ``metropolis_dense`` fills the dense weight matrix pair by pair and
derives the Laplacian from it.  ``danyra`` builds the same graph from edge
arrays in O(|E|), and the tests require the edges, the edge weights (the
entries of ``W`` on the edges) and ``L`` to be bit-identical for the same
random generator.

``segment_sum_mix`` is the first O(|E|) form of ``Topology.mix`` above
``DENSE_MIX_MAX_N`` agents: a row gather into (2E, columns) terms summed
along axis 0.  ``Topology.mix`` sums (columns, 2E) terms instead, and the
tests require the same bits.
"""

from __future__ import annotations

import numpy as np

from danyra import InvalidInstanceError


def ring_with_chords(n: int, extra_edges: int, rng: np.random.Generator) -> np.ndarray:
    """0/1 adjacency of a ring on ``n`` nodes plus ``extra_edges`` random chords."""
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


def metropolis_dense(adj: np.ndarray) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """Edges, dense Metropolis-Hastings ``W`` and Laplacian ``L`` of an adjacency matrix."""
    n = adj.shape[0]
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
    return tuple(edges), W, L


def segment_sum_mix(topology, v: np.ndarray) -> np.ndarray:
    """``L @ v`` as a segment sum over neighbor arrays rebuilt from ``topology.edges``, rows gathered."""
    n, edges = topology.n, topology.edges
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    weights = np.concatenate([topology.weights, topology.weights])[order][:, None]
    starts = np.searchsorted(rows, np.arange(n))
    diagonal = np.bincount(rows, weights=weights[:, 0], minlength=n)[:, None]
    flat = v.reshape(n, -1)
    neighbor_sum = np.add.reduceat(weights * flat[cols], starts, axis=0)
    return (diagonal * flat - neighbor_sum).reshape(v.shape)
