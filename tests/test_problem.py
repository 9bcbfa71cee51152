import dataclasses
import json
import re

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    BufferSchedule,
    CallableCost,
    ConfigError,
    DisturbanceEvent,
    HyperParams,
    InvalidInstanceError,
    OracleSolution,
    ProblemInstance,
    SpectralConstants,
    SwarmState,
    Topology,
    TopologyError,
    generate_instance,
    instance_from_json,
    instance_to_json,
    metropolis_weights,
    optimality_gap,
    spectral_constants,
    validate_hyperparams,
)
from danyra.problem import DENSE_MIX_MAX_N


def path_topology(n):
    return Topology(n=n, edges=[(i, i + 1) for i in range(n - 1)], weights=np.full(n - 1, 1 / 3))


def star_topology(n):
    """A star with hub 0 and its Metropolis weights ``1 / n``."""
    edges = np.stack([np.zeros(n - 1, dtype=int), np.arange(1, n)], axis=1)
    return Topology(n=n, edges=edges, weights=np.full(n - 1, 1 / n))


def complete_topology(n):
    i, j = np.triu_indices(n, 1)
    return Topology(n=n, edges=np.stack([i, j], axis=1), weights=np.full(len(i), 1 / n))


NOT_FULL_ROW_RANK = "A is not full row rank (smallest singular value <= 1e-10)"


def coupled(A):
    """An instance on a path whose couplings are the (n, m, p) stack ``A``, with ``P = I`` and zero ``d`` and ``Q``."""
    n, m, p = np.shape(A)
    return ProblemInstance(
        A=A, d=np.zeros((n, m)), P=np.tile(np.eye(p), (n, 1, 1)), Q=np.zeros((n, p)), topology=path_topology(n)
    )


def identity_instance(topology):
    """Agents with ``A = P = I`` (2 x 2) and zero ``d``/``Q`` on ``topology``: only its spectrum matters."""
    eye = np.tile(np.eye(2), (topology.n, 1, 1))
    zeros = np.zeros((topology.n, 2))
    return ProblemInstance(A=eye, d=zeros, P=eye, Q=zeros, topology=topology)


def single_agent(P, Q, A=None, d=None):
    """A one-agent instance with the quadratic cost ``x'Px - Q'x``."""
    P = np.asarray(P, dtype=float)
    p = P.shape[0]
    A = np.eye(p) if A is None else np.asarray(A, dtype=float)
    d = np.zeros(A.shape[0]) if d is None else np.asarray(d, dtype=float)
    Q = np.asarray(Q, dtype=float)
    return ProblemInstance(A=A[None], d=d[None], P=P[None], Q=Q[None], topology=path_topology(1))


def square_norm_costs(dims):
    return tuple(
        CallableCost(value_fn=lambda x: float(x @ x), gradient_fn=lambda x: 2 * x, p=p) for p in dims
    )


class TestCosts:
    def test_value_identity(self):
        inst = single_agent(np.eye(2), [0.0, 0.0])
        assert inst.cost([[1.0, 1.0]])[0] == 2.0

    def test_value_with_linear_term(self):
        inst = single_agent(np.eye(2), [2.0, 0.0])
        assert inst.cost([[1.0, 0.0]])[0] == -1.0

    def test_gradient_identity(self):
        inst = single_agent(np.eye(2), [0.0, 0.0])
        assert np.array_equal(inst.gradient([[1.0, 2.0]]), [[2.0, 4.0]])

    def test_gradient_at_origin_is_minus_q(self):
        inst = single_agent([[2.0, 0.3], [0.3, 1.0]], [0.7, -0.2])
        assert np.array_equal(inst.gradient(np.zeros((1, 2))), [[-0.7, 0.2]])

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        Ps, Qs, xs = [], [], []
        for _ in range(100):
            basis, r = np.linalg.qr(rng.standard_normal((2, 2)))
            basis = basis * np.sign(np.diag(r))
            P = (basis * rng.uniform(0.5, 2.0, size=2)) @ basis.T
            Ps.append(0.5 * (P + P.T))
            Qs.append(rng.uniform(-1, 1, size=2))
            xs.append(rng.uniform(-3, 3, size=2))
        inst = ProblemInstance(
            A=np.tile(np.eye(2), (100, 1, 1)), d=np.zeros((100, 2)), P=Ps, Q=Qs, topology=path_topology(100)
        )
        x = np.array(xs)
        grad = inst.gradient(x)
        fd = np.zeros_like(x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (inst.cost(x + e) - inst.cost(x - e)) / (2 * h)
        for g, f in zip(grad, fd):
            assert np.linalg.norm(g - f) <= 1e-5 * (1 + np.linalg.norm(g))

    def test_dimension_mismatch(self):
        inst = single_agent(np.eye(2), [0.0, 0.0])
        with pytest.raises(InvalidInstanceError, match=r"x must have shape \(1, 2\), got \(1, 3\)"):
            inst.cost(np.zeros((1, 3)))
        with pytest.raises(InvalidInstanceError, match=r"x must have shape \(1, 2\)"):
            inst.gradient(np.zeros((1, 1)))
        with pytest.raises(InvalidInstanceError, match=r"x must have shape \(1, 2\)"):
            inst.gradient(np.zeros(2))

    def test_callable_cost(self):
        inst = ProblemInstance(
            A=np.eye(2)[None], d=np.zeros((1, 2)), costs=square_norm_costs([2]), topology=path_topology(1)
        )
        assert inst.cost([[1.0, 2.0]])[0] == 5.0
        assert np.array_equal(inst.gradient([[1.0, 2.0]]), [[2.0, 4.0]])
        # generic costs have no Hessian stack and no JSON form
        assert inst.hessian_stack is None
        with pytest.raises(InvalidInstanceError, match="only quadratic-cost instances are serializable"):
            instance_to_json(inst)

    def test_asymmetric_p_rejected(self):
        with pytest.raises(InvalidInstanceError):
            single_agent([[1.0, 0.5], [0.0, 1.0]], np.zeros(2))

    def test_indefinite_p_rejected(self):
        with pytest.raises(InvalidInstanceError):
            single_agent(np.diag([1.0, -0.1]), np.zeros(2))


class TestAgentSpec:
    """Each agent's coupling ``A_i``, checked on the stacked ``A``."""

    def test_rank_deficient_coupling_rejected(self):
        with pytest.raises(InvalidInstanceError):
            single_agent(np.eye(2), np.zeros(2), A=np.array([[1.0, 1.0], [1.0, 1.0]]), d=np.zeros(2))

    def test_wide_coupling_allowed(self):
        inst = single_agent(np.eye(2), np.zeros(2), A=np.array([[1.0, 1.0]]), d=np.zeros(1))
        assert inst.m == 1 and inst.p == 2

    def test_tall_coupling_rejected(self):
        with pytest.raises(InvalidInstanceError):
            single_agent(np.eye(1), np.zeros(1), A=np.array([[1.0], [2.0]]), d=np.zeros(2))


PER_AGENT_DEFECTS = [
    "asymmetric P",
    "indefinite P",
    "rank-deficient A",
    "non-finite A",
    "non-finite d",
    "non-finite P",
    "non-finite Q",
    "cost dimension",
]
STACK_DEFECTS = [
    "tall A",
    "wrong d shape",
    "wrong P shape",
    "wrong Q shape",
    "agent count",
    "P, Q and costs",
    "no cost",
    "P without Q",
    "empty A",
    "costs count",
]


def defective_stacks(defect, i):
    """Keyword arguments of a valid four-agent instance, with ``defect`` put into agent ``i``."""
    inst = generate_instance(3, 4, 8.0, 0)
    s = {"A": np.array(inst.A), "d": np.array(inst.d), "P": np.array(inst.P), "Q": np.array(inst.Q)}
    if defect == "asymmetric P":
        s["P"][i, 0, 1] += 1e-9
    elif defect == "indefinite P":
        s["P"][i] = np.diag([1.0, -0.1])
    elif defect == "rank-deficient A":
        s["A"][i] = [[1.0, 2.0], [0.5, 1.0]]
    elif defect.startswith("non-finite"):
        name = defect[-1]
        s[name][i].flat[-1] = np.nan if name in "AP" else np.inf
    elif defect == "cost dimension":
        dims = [2] * 4
        dims[i] = 3
        del s["P"], s["Q"]
        s["costs"] = square_norm_costs(dims)
    elif defect == "tall A":
        s.update(A=s["A"][:, :, :1], P=s["P"][:, :1, :1], Q=s["Q"][:, :1])
    elif defect == "wrong d shape":
        s["d"] = s["d"][:, :1]
    elif defect == "wrong P shape":
        s["P"] = s["P"][:, :1]
    elif defect == "wrong Q shape":
        s["Q"] = s["Q"][:, :1]
    elif defect == "agent count":
        s = {name: value[:-1] for name, value in s.items()}
    elif defect == "P, Q and costs":
        s["costs"] = square_norm_costs([2] * 4)
    elif defect == "no cost":
        del s["P"], s["Q"]
    elif defect == "P without Q":
        del s["Q"]
    elif defect == "empty A":
        s["A"] = s["A"][:, :0]
    elif defect == "costs count":
        del s["P"], s["Q"]
        s["costs"] = square_norm_costs([2] * 3)
    return {**s, "topology": inst.topology}


@pytest.mark.parametrize(
    "defect, agent",
    [(defect, i) for defect in PER_AGENT_DEFECTS for i in (0, 3)] + [(defect, None) for defect in STACK_DEFECTS],
)
def test_invalid_stack_rejected(defect, agent):
    with pytest.raises(InvalidInstanceError, match=None if agent is None else f"agent {agent}: "):
        ProblemInstance(**defective_stacks(defect, agent))


def test_stacks_are_read_only():
    inst = generate_instance(3, 4, 8.0, 0)
    for stack in (inst.A, inst.d, inst.P, inst.Q, inst.projector_stack, inst.demand_total):
        with pytest.raises(ValueError):
            stack[0] = 0.0


# Each constructor that stores an array from outside, and each public function that reads a caller's array (or a
# generic cost's result): the error it raises for an entry that is not a number, a call with ``row`` as one row of
# an input it checks ([1, 2] is a good row), and that input as stored (or the call's result).
_TWO = Topology(n=2, edges=[(0, 1)], weights=[0.5])


def _two_agents(row):
    zeros = np.zeros((2, 2))
    return ProblemInstance(A=[[row, [0.0, 1.0]]] * 2, d=zeros, P=[np.eye(2)] * 2, Q=zeros, topology=_TWO)


def _two_agent_state(row):
    zeros = np.zeros((2, 2))
    return SwarmState.build(_two_agents([1, 2]), k=0, x=[row, [0, 0]], x_prime=zeros, y=zeros, lam=zeros, delta=None)


def _generic_gradient(row):
    cost = CallableCost(value_fn=lambda x: 0.0, gradient_fn=lambda x: row, p=2)
    generic = ProblemInstance(A=[np.eye(2)] * 2, d=np.zeros((2, 2)), costs=[cost] * 2, topology=_TWO)
    return generic.gradient(np.zeros((2, 2)))


_ORIGIN = OracleSolution(x_star=np.zeros((2, 2)), lambda_star=np.zeros(2), f_star=0.0, active_set=())
_STORES = {
    "Topology": (TopologyError, lambda row: Topology(n=3, edges=[[0, 1], row], weights=[0.3, 0.3]), lambda t: t.edges),
    "ProblemInstance": (InvalidInstanceError, _two_agents, lambda instance: instance.A),
    "SwarmState.build": (InvalidInstanceError, _two_agent_state, lambda state: state.x),
    "DisturbanceEvent": (ConfigError, lambda row: DisturbanceEvent(1, row), lambda event: event.additive),
    "gradient": (InvalidInstanceError, lambda row: _two_agents([1, 2]).gradient([row, [0, 0]]), np.asarray),
    "cost": (InvalidInstanceError, lambda row: _two_agents([1, 2]).cost([row, [0, 0]]), np.asarray),
    "optimality_gap": (InvalidInstanceError, lambda row: optimality_gap([row, [0, 0]], _ORIGIN), np.float64),
    "CallableCost.gradient": (InvalidInstanceError, _generic_gradient, np.asarray),
}
# a bad row, and the type its bad entry is named by
_BAD_ROWS = {
    "text": (["1", 2], "str"),
    "boolean": ([True, 2], "bool"),
    "None": ([None, 2], "NoneType"),
    "ragged": ([[1], 2], "list"),
}


@pytest.mark.parametrize("bad", _BAD_ROWS)
@pytest.mark.parametrize("store", _STORES)
def test_constructors_reject_entries_that_are_not_numbers(store, bad):
    # numpy would read text as a number, a boolean as 1 or 0, and None as NaN
    error, make, _ = _STORES[store]
    row, kind = _BAD_ROWS[bad]
    noun = "integers" if store == "Topology" else "numbers"
    with pytest.raises(error, match=rf"^[\w ]+ must be {noun}, got {kind} entries$"):
        make(row)


@pytest.mark.parametrize("store", _STORES)
def test_constructors_accept_numpy_numbers(store):
    _, make, stored = _STORES[store]
    rows = [[np.int64(1), np.uint8(2)], np.array([1, 2], dtype=np.int32)]
    if store == "Topology":  # its row is an edge, of integers; the weights are floats
        assert Topology(n=2, edges=[(0, 1)], weights=np.array([0.5], dtype=np.float32)).weights.tolist() == [0.5]
    else:
        rows += [[np.float32(1.0), np.float64(2.0)], np.array([1.0, 2.0], dtype=np.float32)]
    for row in rows:
        assert stored(make(row)).tolist() == stored(make([1, 2])).tolist()


@pytest.mark.parametrize(
    "result, message",
    [
        pytest.param("1", "value must be numbers, got str entries", id="text"),
        pytest.param(True, "value must be numbers, got bool entries", id="boolean"),
        pytest.param(None, "value must be numbers, got NoneType entries", id="None"),
        pytest.param([1.0, 2.0], r"value must have shape \(\), got \(2,\)", id="two-numbers"),
    ],
)
def test_callable_cost_value_must_be_one_number(result, message):
    cost = CallableCost(value_fn=lambda x: result, gradient_fn=lambda x: 2 * x, p=2)
    with pytest.raises(InvalidInstanceError, match=rf"^{message}$"):
        cost.value(np.zeros(2))


def test_callable_cost_value_accepts_numpy_numbers():
    for result in (np.float64(3.0), np.float32(3.0), np.int64(3), np.array(3.0), 3):
        value = CallableCost(value_fn=lambda x: result, gradient_fn=lambda x: 2 * x, p=2).value(np.zeros(2))
        assert type(value) is float and value == 3.0


class TestTopology:
    def test_path_weights(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        top = metropolis_weights(adj)
        assert "L" not in vars(top)  # the dense Laplacian is built on first use, not by the constructor
        assert np.array_equal(top.edges, [[0, 1], [1, 2]])
        assert top.edges.dtype == np.int64 and not top.edges.flags.writeable
        assert np.allclose(top.weights, [1 / 3, 1 / 3])
        assert np.allclose(np.diag(top.L), [1 / 3, 2 / 3, 1 / 3])  # 1 - w_ii

    def test_complete_graph(self):
        adj = ~np.eye(3, dtype=bool)
        top = metropolis_weights(adj)
        assert np.array_equal(top.edges, [[0, 1], [0, 2], [1, 2]])
        assert np.allclose(top.weights, 1 / 3)
        assert np.allclose(top.L, np.eye(3) - 1 / 3)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        with pytest.raises(TopologyError):
            metropolis_weights(adj)

    def test_generated_topology_invariants(self):
        for seed in (1, 2, 3):
            top = generate_instance(seed, 14, 70.0, 5).topology
            ones = np.ones(top.n)
            assert np.max(np.abs(top.L @ ones)) <= 1e-12
            assert np.max(np.abs(ones @ top.L)) <= 1e-12
            assert np.array_equal(top.L, top.L.T)
            assert np.all(np.diag(top.L) < 1.0)  # positive self-weights
            assert np.linalg.eigvalsh(top.L)[1] > 0

    @pytest.mark.parametrize("n", [40000, 100000])
    def test_large_metropolis_star(self, n):
        # the rows sum to zero by construction; mix's rounding of the hub's row grows with its degree n - 1
        star = star_topology(n)
        assert np.max(np.abs(star.mix(np.ones((n, 1))))) <= 2 * (n - 1) * np.finfo(float).eps

    def test_laplacian_support_is_the_edge_set(self):
        top = generate_instance(3, 8, 10.0, 4).topology
        i, j = top.edges.T
        assert np.all(i < j) and np.array_equal(np.argsort(i * top.n + j), np.arange(len(i)))
        assert np.array_equal(top.L[i, j], -top.weights) and np.all(top.weights > 0)
        off_edges = np.ones((top.n, top.n), dtype=bool)
        off_edges[i, j] = off_edges[j, i] = False
        np.fill_diagonal(off_edges, False)
        assert not np.any(top.L[off_edges])


class TestGenerateInstance:
    def test_benchmark_demands(self):
        inst = generate_instance(1, 14, 70.0, 5)
        assert np.allclose(inst.demand_total, [70.0, 1.0])
        assert np.allclose(inst.d, [5.0, 1.0 / 14.0])

    def test_two_agent_ring_is_single_edge(self):
        inst = generate_instance(1, 2, 2.0, 0)
        assert np.array_equal(inst.topology.edges, [[0, 1]])
        assert np.array_equal(inst.topology.weights, [0.5])

    def test_deterministic(self):
        a = generate_instance(9, 6, 12.0, 3)
        b = generate_instance(9, 6, 12.0, 3)
        assert np.array_equal(a.topology.edges, b.topology.edges)
        assert np.array_equal(a.topology.weights, b.topology.weights)
        for name in ("A", "d", "P", "Q"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInstanceError):
            generate_instance(1, 1, 70.0, 0)
        with pytest.raises(InvalidInstanceError):
            generate_instance(1, 14, 0.0, 0)
        with pytest.raises(InvalidInstanceError):
            generate_instance(1, 3, 5.0, 100)
        with pytest.raises(InvalidInstanceError, match="n must be a whole number, got 14.5"):
            generate_instance(1, 14.5, 70.0, 0)
        with pytest.raises(InvalidInstanceError, match="extra_edges must be a whole number, got 2.5"):
            generate_instance(1, 14, 70.0, 2.5)
        with pytest.raises(InvalidInstanceError, match="extra_edges must be nonnegative, got -1"):
            generate_instance(1, 14, 70.0, -1)
        for seed, message in ((1.5, "seed must be a whole number"), (True, "seed must be a whole number"),
                              (-1, "seed must be >= 0")):
            with pytest.raises(InvalidInstanceError, match=message):
                generate_instance(seed, 14, 70.0, 0)
        for r_max in ("70", True, float("nan"), float("inf"), -1.0, None):
            with pytest.raises(InvalidInstanceError, match="r_max must be a finite positive number"):
                generate_instance(1, 14, r_max, 0)

    def test_ranges(self):
        inst = generate_instance(4, 10, 30.0, 2)
        for A, P, Q in zip(inst.A, inst.P, inst.Q):
            assert np.array_equal(A, np.diag([1.0, A[1, 1]])) and 0.5 <= A[1, 1] <= 2.0
            assert np.all(Q > 0) and np.all(Q <= 1)
            eigs = np.linalg.eigvalsh(P)
            assert eigs.min() >= 0.5 - 1e-12 and eigs.max() <= 2.0 + 1e-12
            assert np.linalg.svd(A, compute_uv=False).min() > 0

    def test_projector_cache(self):
        inst = generate_instance(4, 6, 12.0, 2)
        for A, proj in zip(inst.A, inst.projector_stack):
            assert np.max(np.abs(A @ proj - np.eye(inst.m))) <= 1e-10
        wide = np.array([[[1.0, 2.0, 0.5]]])  # one agent, p > m
        proj = coupled(wide).projector_stack
        assert proj.shape == (1, 3, 1)
        assert np.max(np.abs(wide[0] @ proj[0] - np.eye(1))) <= 1e-10

    @pytest.mark.parametrize(
        "A, message",
        [
            ([[[1.0, 2.0], [2.0, 4.0]]], f"agent 0: {NOT_FULL_ROW_RANK}"),
            ([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]], f"agent 1: {NOT_FULL_ROW_RANK}"),
            ([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]], "A must have p >= m, got (m, p) = (3, 2)"),  # tall: m > p
            # full rank by the rank rule (smallest singular value 3.2e-9), but AA' is singular in rounding
            ([np.eye(2), [[1.0, 2.0], [1.0, 2.0 + 1e-8]]], "agent 1: AA' is singular in floating point"),
        ],
        ids=["rank-1", "stack", "tall", "rounding"],
    )
    def test_projector_needs_full_row_rank(self, A, message):
        with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
            coupled(np.array(A))

    def test_projector_stack_lost_to_rounding_is_a_typed_error(self):
        # the rank rule reads A's singular values and passes this A; the constructor's solve of AA' rejects it
        inst = generate_instance(1, 2, 8.0, 0)
        with pytest.raises(InvalidInstanceError, match="^agent 0: AA' is singular in floating point$"):
            dataclasses.replace(inst, A=np.array([[[1.0, 2.0], [1.0, 2.0 + 1e-8]], inst.A[1]]))


class TestSpectralConstants:
    def test_identity_costs(self):
        eye = np.tile(np.eye(2), (3, 1, 1))
        top = metropolis_weights(~np.eye(3, dtype=bool))
        inst = ProblemInstance(A=eye, d=np.zeros((3, 2)), P=eye, Q=np.zeros((3, 2)), topology=top)
        sc = spectral_constants(inst)
        assert sc.ell == sc.mu == 2.0
        assert sc.sigma_A_max == sc.sigma_A_min == sc.kappa_A == 1.0

    def test_matches_dense_recomputation(self):
        inst = generate_instance(1, 14, 70.0, 5)
        sc = spectral_constants(inst)
        n, m, p = inst.n, inst.m, inst.p
        blk = np.zeros((n * m, n * p))
        for i, A in enumerate(inst.A):
            blk[i * m : (i + 1) * m, i * p : (i + 1) * p] = A
        svals = np.linalg.svd(blk, compute_uv=False)
        nonzero = svals[svals > 1e-10]
        assert sc.sigma_A_max == pytest.approx(nonzero.max(), rel=1e-12)
        assert sc.sigma_A_min == pytest.approx(nonzero.min(), rel=1e-12)
        lams = np.concatenate([np.linalg.eigvalsh(P) for P in inst.P])
        assert sc.ell == pytest.approx(2 * lams.max(), rel=1e-12)
        assert sc.mu == pytest.approx(2 * lams.min(), rel=1e-12)
        # Kronecker expansion of the mixing matrix has the same extreme spectrum
        big = np.kron(inst.topology.L, np.eye(p))
        eig = np.linalg.eigvalsh(big)
        assert sc.sigma_L_max == pytest.approx(eig[-1], rel=1e-10)
        assert sc.sigma_L_min == pytest.approx(eig[eig > 1e-8].min(), rel=1e-8)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_instance(1, 1000, 10.0, 0).topology,
            lambda: path_topology(1000),
            lambda: star_topology(700),
            lambda: complete_topology(700),
            lambda: generate_instance(5, DENSE_MIX_MAX_N + 1, 10.0, 2 * (DENSE_MIX_MAX_N + 1)).topology,
            lambda: generate_instance(1534, 2000, 70.0, 4000).topology,
        ],
        ids=["ring-1000", "path-1000", "star-700", "complete-700", "ring-plus-chords-601", "ring-plus-chords-2000"],
    )
    def test_bounds_hold_the_eigenvalues(self, make):
        top = make()
        sc = spectral_constants(identity_instance(top))
        assert "L" not in vars(top)  # O(n + |E|) bounds: the dense Laplacian is never built
        # eigvalsh is exact to rounding only: on the even ring, lambda_max = 2 l_ii = 4/3 comes out one ulp above
        eig = np.linalg.eigvalsh(top.L)
        assert 0.0 < sc.sigma_L_min <= eig[1] + 1e-12
        assert sc.sigma_L_max >= eig[-1] - 1e-12

    def test_ordering_invariants(self):
        for seed in range(5):
            sc = spectral_constants(generate_instance(seed + 1, 6, 9.0, 2))
            assert sc.mu <= sc.ell
            assert sc.sigma_A_min <= sc.sigma_A_max
            assert sc.kappa_A >= 1.0

    def test_one_agent_has_no_fiedler_value(self):
        with pytest.raises(InvalidInstanceError, match="single node's Laplacian has no nonzero eigenvalue"):
            spectral_constants(single_agent(np.eye(2), np.zeros(2)))

    def test_generic_costs_need_constants(self):
        inst = ProblemInstance(
            A=np.tile(np.eye(2), (2, 1, 1)),
            d=np.zeros((2, 2)),
            costs=square_norm_costs([2, 2]),
            topology=path_topology(2),
        )
        with pytest.raises(InvalidInstanceError):
            spectral_constants(inst)
        sc = spectral_constants(inst, ell=2.0, mu=2.0)
        assert sc.ell == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_supplied_constants_must_be_finite(self, bad):
        inst = generate_instance(3, 4, 8.0, 1)
        with pytest.raises(InvalidInstanceError, match="ell must be a finite number"):
            spectral_constants(inst, ell=bad, mu=1.0)
        with pytest.raises(InvalidInstanceError, match="mu must be a finite number"):
            spectral_constants(inst, ell=4.0, mu=bad)

    @pytest.mark.parametrize(
        "name", ["ell", "mu", "sigma_A_max", "sigma_A_min", "sigma_L_max", "sigma_L_min"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "2.0", None], ids=["nan", "inf", "text", "null"])
    def test_every_field_must_be_a_finite_number(self, name, bad):
        fields = dict(ell=2.0, mu=1.0, sigma_A_max=2.0, sigma_A_min=1.0, sigma_L_max=2.0, sigma_L_min=0.5)
        SpectralConstants(**fields)
        with pytest.raises(InvalidInstanceError, match=f"{name} must be a finite number, got {bad!r}"):
            SpectralConstants(**{**fields, name: bad})

    @pytest.mark.parametrize(
        "swap, message",
        [
            ({"ell": 0.5}, r"need ell >= mu > 0, got ell=0.5, mu=1.0"),
            ({"sigma_A_max": 0.5}, "coupling singular values must satisfy max >= min > 0"),
        ],
        ids=["ell-below-mu", "sigma-A-max-below-min"],
    )
    def test_bounds_must_be_ordered(self, swap, message):
        fields = dict(ell=2.0, mu=1.0, sigma_A_max=2.0, sigma_A_min=1.0, sigma_L_max=2.0, sigma_L_min=0.5)
        with pytest.raises(InvalidInstanceError, match=message):
            SpectralConstants(**{**fields, **swap})


def check(report, name: str):
    """The condition called ``name`` in a ``validate_hyperparams`` report."""
    return next(ch for ch in report.checks if ch.name == name)


class TestValidateHyperparams:
    def make_sc(self, ell=2.0, mu=2.0, sA=1.0, sa=1.0, sL=2.0, sl=0.5):
        from danyra import SpectralConstants

        return SpectralConstants(
            ell=ell, mu=mu, sigma_A_max=sA, sigma_A_min=sa, sigma_L_max=sL, sigma_L_min=sl
        )

    def test_eta_and_gamma_bounds_for_unit_conditioning(self, base_hp):
        sc = self.make_sc()
        report = validate_hyperparams(base_hp(gamma=0.2), sc)
        eta = check(report, "eta_curvature")
        assert eta.bound == pytest.approx(1.0) and eta.passed
        glow = check(report, "gamma_lower")
        assert glow.bound == pytest.approx(0.5) and not glow.passed
        assert check(validate_hyperparams(base_hp(gamma=0.6), sc), "gamma_lower").passed

    def test_unknown_mode_is_a_config_error(self, base_hp, benchmark_constants):
        with pytest.raises(ConfigError, match="unknown mode 'both'"):
            validate_hyperparams(base_hp(), benchmark_constants, "both")

    def test_benchmark_parameters_fail_gamma_but_report(self, base_hp, benchmark_constants):
        report = validate_hyperparams(base_hp(), benchmark_constants)
        assert not check(report, "gamma_lower").passed
        assert not report.all_passed
        assert len(report.checks) == 12  # report still fully produced

    def test_beta_above_one_third_fails(self, base_hp):
        report = validate_hyperparams(base_hp(beta=0.4), self.make_sc())
        assert not check(report, "beta_third").passed

    def test_equality_mode_adds_rate_bound_and_theta(self):
        sc = self.make_sc()
        hp = HyperParams(alpha=0.01, beta=0.05, eta=0.2, gamma=0.8)
        report = validate_hyperparams(hp, sc, EQUALITY)
        assert check(report, "alpha_linear_rate") is not None
        assert report.all_passed
        assert report.theta_prime is not None and 0 < report.theta_prime < 1

    def test_theta_prime_absent_on_failure(self):
        sc = self.make_sc()
        hp = HyperParams(alpha=0.01, beta=0.05, eta=0.2, gamma=0.2)  # gamma too small
        report = validate_hyperparams(hp, sc, EQUALITY)
        assert not report.all_passed and report.theta_prime is None

    def test_own_parameter_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sc = self.make_sc(
                ell=rng.uniform(1, 5),
                mu=rng.uniform(0.2, 1.0),
                sA=rng.uniform(1.0, 2.0),
                sa=rng.uniform(0.3, 1.0),
                sL=rng.uniform(1.0, 2.0),
                sl=rng.uniform(0.05, 0.9),
            )
            hp = HyperParams(
                alpha=rng.uniform(1e-4, 0.3),
                beta=rng.uniform(1e-3, 0.5),
                eta=rng.uniform(1e-3, 0.5),
                gamma=rng.uniform(0.05, 0.95),
            )
            report = validate_hyperparams(hp, sc)
            shrunk = HyperParams(
                alpha=hp.alpha / 2, beta=hp.beta / 2, eta=hp.eta / 2, gamma=hp.gamma
            )
            # each parameter's own checks compare it to bounds free of that parameter
            for name in ("alpha_decision_coupling", "alpha_network_coupling", "alpha_queue_coupling"):
                if check(report, name).passed:
                    half = validate_hyperparams(
                        HyperParams(alpha=hp.alpha / 2, beta=hp.beta, eta=hp.eta, gamma=hp.gamma),
                        sc,
                    )
                    assert check(half, name).passed
            if check(report, "beta_third").passed:
                half = validate_hyperparams(
                    HyperParams(alpha=hp.alpha, beta=hp.beta / 2, eta=hp.eta, gamma=hp.gamma), sc
                )
                assert check(half, "beta_third").passed
            if check(report, "eta_curvature").passed:
                half = validate_hyperparams(
                    HyperParams(alpha=hp.alpha, beta=hp.beta, eta=hp.eta / 2, gamma=hp.gamma), sc
                )
                assert check(half, "eta_curvature").passed
            assert shrunk.alpha < hp.alpha  # sanity


class TestBufferSchedule:
    def test_constant(self):
        sched = BufferSchedule.constant(0.3)
        assert sched.value(0) == sched.value(1000) == 0.3
        assert sched.limit == 0.3

    def test_decaying_family(self):
        sched = BufferSchedule.decaying(5.0)
        assert sched.value(0) == 5.0
        assert sched.value(499) == pytest.approx(0.01)  # floor in force at iterate 500
        assert sched.limit == 0.0

    def test_decaying_square_summable(self):
        sched = BufferSchedule.decaying(5.0)
        ks = np.arange(1_000_000)
        partial = np.sum((sched.coefficient / (ks + 1)) ** 2)
        assert partial < 25 * np.pi**2 / 6

    def test_sequence_holds_last_value(self):
        sched = BufferSchedule.sequence([1.0, 0.5, 0.25])
        assert sched.value(2) == 0.25 and sched.value(10) == 0.25

    def test_validation(self):
        with pytest.raises(ConfigError):
            BufferSchedule.constant(-0.1)
        with pytest.raises(ConfigError):
            BufferSchedule.sequence([0.1, -0.2])
        with pytest.raises(ConfigError, match="buffer levels must be nonincreasing"):
            BufferSchedule.sequence([0.1, 1.0, 5.0])
        with pytest.raises(ConfigError, match="finite"):
            BufferSchedule.sequence([])
        for bad in (5, 0.1, None):  # not a sequence at all
            with pytest.raises(ConfigError, match=f"buffer levels must be finite and >= 0, got {bad!r}"):
                BufferSchedule.sequence(bad)
        with pytest.raises(ConfigError, match="coefficient must be finite and >= 0"):
            BufferSchedule(levels=(0.1,), coefficient=-1.0)
        with pytest.raises(ConfigError, match="positive coefficient"):
            BufferSchedule.decaying(0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="finite"):
                BufferSchedule.constant(bad)
            with pytest.raises(ConfigError, match="finite"):
                BufferSchedule.decaying(bad)
            with pytest.raises(ConfigError, match="finite"):
                BufferSchedule.sequence([bad, 0.1])
            with pytest.raises(ConfigError, match="finite"):
                BufferSchedule.sequence([0.2, bad])

    def test_levels_stored_as_floats(self):
        assert BufferSchedule.constant(np.float64(0.5)).levels == (0.5,)
        assert type(BufferSchedule.constant(np.float64(0.5)).levels[0]) is float
        assert BufferSchedule.decaying(5).coefficient == 5.0
        assert type(BufferSchedule.decaying(np.int64(5)).coefficient) is float
        assert BufferSchedule.sequence([2, np.float32(0.5)]).levels == (2.0, 0.5)
        assert all(type(v) is float for v in BufferSchedule.sequence(np.array([2, 1])).levels)
        zero = BufferSchedule.constant(-0.0)  # stored + 0.0, so the floor is never -0.0
        assert zero.levels[0].hex() == (0.0).hex() and zero.value(0).hex() == (0.0).hex()

    def test_constructors_agree(self):
        # the config's buffer kinds are built by these factories (tests/test_cli.py::TestBufferConfig)
        assert BufferSchedule.constant(0.1) == BufferSchedule.sequence([0.1]) == BufferSchedule(levels=(0.1,))
        assert BufferSchedule.decaying(5.0) == BufferSchedule(levels=(0.0,), coefficient=5.0)

    def test_one_formula_reproduces_the_three_kinds(self):
        # the per-kind formulas the single formula replaced, checked bit for bit
        values = (1.0, 0.5, 0.5, 0.2)
        old = {
            "constant(0.01)": (BufferSchedule.constant(0.01), lambda k: 0.01, 0.01),
            "constant(0.0)": (BufferSchedule.constant(0.0), lambda k: 0.0, 0.0),
            "sequence": (BufferSchedule.sequence(values), lambda k: values[min(k, len(values) - 1)], values[-1]),
            "decaying(5.0)": (BufferSchedule.decaying(5.0), lambda k: 5.0 / (k + 1), 0.0),
        }
        for name, (sched, value, limit) in old.items():
            assert sched.limit.hex() == limit.hex(), name
            for k in range(100_001):
                assert sched.value(k).hex() == value(k).hex(), (name, k)

    def test_hyperparams_stored_as_floats(self):
        hp = HyperParams(alpha=np.float64(0.01), beta=0.02, eta=0.1, gamma=np.float32(0.5))
        assert type(hp.alpha) is float and hp.gamma == 0.5

    def test_hyperparams_validation(self):
        with pytest.raises(ConfigError):
            HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=1.0)
        with pytest.raises(ConfigError):
            HyperParams(alpha=-0.01, beta=0.02, eta=0.1, gamma=0.2)
        steps = {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2}
        for name in steps:
            for bad in (np.nan, np.inf):
                with pytest.raises(ConfigError, match=f"{name} must be finite"):
                    HyperParams(**{**steps, name: bad})

    @pytest.mark.parametrize("bad", ["x", 0.1, None, {"kind": "constant", "omega": 0.1}])
    def test_hyperparams_buffer_must_be_a_schedule(self, bad):
        steps = {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2}
        with pytest.raises(ConfigError, match="buffer must be a BufferSchedule, got"):
            HyperParams(**steps, buffer=bad)


class TestSerialization:
    def test_round_trip_exact(self):
        inst = generate_instance(11, 5, 9.0, 2)
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert back.n == inst.n and back.p == inst.p and back.m == inst.m
        assert np.array_equal(back.topology.edges, inst.topology.edges)
        assert np.array_equal(back.topology.weights, inst.topology.weights)
        assert np.array_equal(back.topology.L, inst.topology.L)
        for name in ("A", "d", "P", "Q"):
            assert np.array_equal(getattr(back, name), getattr(inst, name))

    def test_round_trip_bit_exact_above_dense_mixing(self):
        inst = generate_instance(11, DENSE_MIX_MAX_N + 1, 70.0, 2 * (DENSE_MIX_MAX_N + 1))
        back = instance_from_json(instance_to_json(inst))
        assert np.array_equal(back.topology.edges, inst.topology.edges)
        assert back.topology.weights.tobytes() == inst.topology.weights.tobytes()
        for name in ("A", "d", "P", "Q"):
            assert getattr(back, name).tobytes() == getattr(inst, name).tobytes(), name
        v = np.random.default_rng(0).standard_normal((inst.n, 2))
        assert back.topology.mix(v).tobytes() == inst.topology.mix(v).tobytes()
        assert "L" not in vars(back.topology)

    def test_schema_fields(self):
        inst = generate_instance(11, 4, 9.0, 1)
        doc = json.loads(instance_to_json(inst))
        assert set(doc) == {"n", "p", "m", "agents", "topology"}
        assert set(doc["agents"][0]) == {"P", "Q", "A", "d"}
        assert set(doc["topology"]) == {"edges", "weights"}
        assert doc["topology"]["edges"] == inst.topology.edges.tolist()
        assert len(doc["topology"]["weights"]) == len(doc["topology"]["edges"])
        assert all(isinstance(w, float) for w in doc["topology"]["weights"])

    def test_missing_key_rejected(self):
        doc = json.loads(instance_to_json(generate_instance(11, 4, 9.0, 1)))
        del doc["agents"]
        with pytest.raises(InvalidInstanceError):
            instance_from_json(json.dumps(doc))
