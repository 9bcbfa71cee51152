"""The edge-form topology and the batched agent build: generator bit-identity, mixing, O(|E|) validation."""

import hashlib
import json

import numpy as np
import pytest

from danyra import (
    HyperParams,
    InvalidInstanceError,
    Topology,
    TopologyError,
    generate_instance,
    init_state,
    instance_from_json,
    instance_to_json,
    iterate,
    metropolis_weights,
    spectral_constants,
)
from danyra.problem import DENSE_MIX_MAX_N

from reference_agents import agent_stacks
from reference_topology import metropolis_dense, ring_with_chords, segment_sum_mix


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _available_chords(n: int) -> int:
    return n * (n - 3) // 2 if n > 3 else 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 14, 80, 300])
def test_generated_topology_bit_identical_to_dense_reference(n):
    available = _available_chords(n)
    for seed in (0, 1, 1534):
        for extra in sorted({0, min(2 * n, available), available // 2, available}):
            rng = np.random.default_rng(seed)
            adj = ring_with_chords(n, extra, rng)
            edges, W, L = metropolis_dense(adj)
            inst = generate_instance(seed, n, 10.0, extra)
            top = inst.topology
            assert np.array_equal(top.edges, edges), (seed, n, extra)
            assert _bits(top.weights) == _bits(W[tuple(np.array(edges).T)]), (seed, n, extra)
            assert _bits(top.L) == _bits(L), (seed, n, extra)
            # the agents draw from where the chord picks left the generator (at n = 2 and 3
            # there are none, and the last agent's run of doubles is only its two Q entries)
            for name, stack in zip("AdPQ", agent_stacks(n, 10.0, rng)):
                assert _bits(getattr(inst, name)) == _bits(stack), (seed, n, extra, name)
            from_adjacency = metropolis_weights(adj)
            assert np.array_equal(from_adjacency.edges, edges)
            assert _bits(from_adjacency.L) == _bits(L)
        with pytest.raises(InvalidInstanceError, match=f"only {available} available"):
            ring_with_chords(n, available + 1, np.random.default_rng(seed))
        with pytest.raises(InvalidInstanceError, match=f"only {available} available"):
            generate_instance(seed, n, 10.0, available + 1)


@pytest.mark.parametrize("seed", [1534, 7])
def test_large_n_agents_bit_identical_to_reference(seed):
    # the large-n benchmark's instances; the dense topology reference is too slow at this size
    inst = generate_instance(seed, 2000, 70.0, 4000)
    rng = np.random.default_rng(seed)
    rng.choice(_available_chords(2000), size=4000, replace=False)  # the chord picks
    for name, stack in zip("AdPQ", agent_stacks(2000, 70.0, rng)):
        assert _bits(getattr(inst, name)) == _bits(stack), name


# SHA-256 of instance_to_json for the presets' and the benchmark's instances
# (fig2, equality and large-n, both seeds of each)
INSTANCE_SHA256 = {
    (1534, 14, 70.0, 16): "833406496aa451a3338d36a43f56efbe0bffc13ef0f6946b7e51af4f84b18ad9",
    (52, 14, 70.0, 16): "54bb6aaf391ed1042650c3d11bab2469f0d0c1c2a6a82db6a99aea1485549f4c",
    (101, 10, 20.0, 6): "fe70f4429acf805e96087ab746790cd1cf9b5e88bacfc335740427eb7b0256a8",
    (7, 10, 20.0, 6): "1894eced15d65992f62640fb5f8c31a9b25087a981256770ef7dbf60a20bdcff",
    (1534, 2000, 70.0, 4000): "5788576966c60960208ff121e145413123aea49806aa08d896a3ec527f7e98e1",
    (7, 2000, 70.0, 4000): "97bcabedbc1cd7e61dd8aab9f7bdc81d6155976f76f4f1c53329b10cb1948ee8",
}


@pytest.mark.parametrize("generate", INSTANCE_SHA256, ids=lambda g: f"seed{g[0]}-n{g[1]}")
def test_preset_and_benchmark_instances_are_pinned(generate):
    digest = hashlib.sha256(instance_to_json(generate_instance(*generate)).encode()).hexdigest()
    assert digest == INSTANCE_SHA256[generate], (
        f"generate_instance{generate} is not the instance the presets' and the benchmark's references "
        f"were made from: numpy {np.__version__}'s default_rng stream, or the generator's draw order, changed"
    )


@pytest.mark.parametrize(
    "n, extra",
    [(14, 16), (DENSE_MIX_MAX_N, 20), (DENSE_MIX_MAX_N + 1, 20), (2000, 4000)],
)
def test_mix_matches_dense_laplacian(n, extra):
    top = generate_instance(5, n, 10.0, extra).topology
    rng = np.random.default_rng(n)
    for shape in [(n,), (n, 1), (n, 2), (n, 3)]:
        v = rng.standard_normal(shape)
        mixed = top.mix(v)
        assert mixed.shape == shape
        assert np.max(np.abs(mixed - top.L @ v)) <= 1e-12


@pytest.mark.parametrize("n", [DENSE_MIX_MAX_N + 1, 2000])
@pytest.mark.parametrize("graph", ["ring plus chords", "star"])
def test_mix_bit_identical_to_row_gather_segment_sum(n, graph):
    if graph == "star":
        top = Topology(n=n, edges=[(0, j) for j in range(1, n)], weights=np.full(n - 1, 1.0 / n))
    else:
        top = generate_instance(7, n, 10.0, 2 * n).topology
    rng = np.random.default_rng(n)
    for shape in [(n,), (n, 1), (n, 2), (n, 3)]:
        v = rng.standard_normal(shape)
        assert _bits(top.mix(v)) == _bits(segment_sum_mix(top, v)), shape


def test_large_instance_iterates_without_dense_matrices():
    inst = generate_instance(1534, 2000, 70.0, 4000)
    hp = HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2)
    spectral_constants(inst)
    iterate(init_state(inst, hp), inst, hp)
    assert "L" not in vars(inst.topology)


@pytest.mark.parametrize(
    "n, edges, weights, message",
    [
        (3, [(0, 1), (0, 1), (1, 2)], [0.2, 0.2, 0.3], "unique"),
        (3, [(1, 2), (0, 1)], [0.2, 0.3], "lexicographic"),
        (3, [(0, 1), (1, 1), (1, 2)], [0.2, 0.2, 0.3], "self-loops"),
        (3, [(0, 1), (2, 1)], [0.2, 0.3], "i < j"),
        (3, [(0, 1), (1, 3)], [0.2, 0.3], "out of range"),
        (3, [(-1, 1), (1, 2)], [0.2, 0.3], "out of range"),
        (3, [(0, 1), (1, 2)], [0.2, 0.0], "positive"),
        (3, [(0, 1), (1, 2)], [0.2, -0.1], "positive"),
        (3, [(0, 1), (1, 2)], [0.2, np.inf], "positive"),
        (3, [(0, 1), (1, 2)], [0.2], "one weight per edge"),
        (4, [(0, 1), (2, 3)], [0.3, 0.3], "disconnected"),
        (3, [(0, 1)], [0.5], "disconnected"),
        (0, [], [], "at least one node"),
        (2, [(0, 1)], [1.5], "node 0: edge weights sum to 1.5 > 1"),
        (3, [(0, 1), (1, 2)], [0.5, 0.75], "node 1: edge weights sum to 1.25 > 1"),
        (3, [(0, 1), (1, 2.5)], [0.2, 0.3], "integers"),
        (2.9, [(0, 1)], [0.5], "n must be a whole number, got 2.9"),
        ("2", [(0, 1)], [0.5], "n must be a whole number, got '2'"),
    ],
)
def test_edge_validation_rejects(n, edges, weights, message):
    with pytest.raises(TopologyError, match=message):
        Topology(n=n, edges=edges, weights=weights)


@pytest.mark.parametrize(
    "reorder, message",
    [
        (lambda edges: edges[::-1], "lexicographic"),
        (lambda edges: [[j, i] for i, j in edges], "i < j"),
    ],
)
def test_instance_file_rejects_unsorted_edges(reorder, message):
    doc = json.loads(instance_to_json(generate_instance(2, 6, 10.0, 3)))
    doc["topology"]["edges"] = reorder(doc["topology"]["edges"])
    with pytest.raises(TopologyError, match=message):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize("entry", [2, np.nan, -1, 0.5, "1"], ids=["two", "nan", "minus-one", "half", "text"])
def test_metropolis_weights_rejects_entries_other_than_zero_one(entry):
    adj = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=object)
    adj[0, 1] = adj[1, 0] = entry
    with pytest.raises(TopologyError, match="0/1 or booleans"):
        metropolis_weights(adj.tolist())


@pytest.mark.parametrize("adj", [[[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], [[False, True], [True, False]]])
def test_metropolis_weights_accepts_zero_one_and_booleans(adj):
    assert metropolis_weights(adj).edges.tolist() == [[0, 1]]
