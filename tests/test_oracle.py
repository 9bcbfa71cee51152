import numpy as np
import pytest

from danyra import (
    CallableCost,
    InvalidInstanceError,
    OracleFailureError,
    ProblemInstance,
    generate_instance,
    metropolis_weights,
    oracle,
    solve_active_set,
    solve_equality,
)

from reference_oracle import (
    kkt_residuals,
    reference_enumeration,
    reference_equality,
    reference_projected_gradient,
)


def scalar_instance(d_value: float, n: int = 1):
    """Agents with f_i = x^2 and scalar coupling sum(x) <= d (p = m = 1)."""
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return ProblemInstance(
        A=np.ones((n, 1, 1)),
        d=np.full((n, 1), d_value / n),
        P=np.ones((n, 1, 1)),
        Q=np.zeros((n, 1)),
        topology=metropolis_weights(adj),
    )


def random_small_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    extra = 1 if n >= 5 else 0
    return generate_instance(int(rng.integers(1, 10_000)), n, float(rng.uniform(2.0, 30.0)), extra)


def ring(n: int):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    return metropolis_weights(adj)


def random_dense_instance(seed: int, n: int | None = None, m: int | None = None, p: int | None = None):
    """A ring of agents with dense Gaussian ``A`` (full row rank almost surely), ``P = B B' + I/2`` and ``Q``, ``d``.

    Unless given, n is drawn from 3..8, m from 1..8 and p from m..m+2.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9)) if n is None else n
    m = int(rng.integers(1, 9)) if m is None else m
    p = m + int(rng.integers(0, 3)) if p is None else p
    B = rng.standard_normal((n, p, p))
    return ProblemInstance(
        A=rng.standard_normal((n, m, p)),
        d=rng.standard_normal((n, m)),
        P=B @ B.transpose(0, 2, 1) + 0.5 * np.eye(p),
        Q=rng.standard_normal((n, p)),
        topology=ring(n),
    )


def assert_same_bits(sol, ref):
    assert np.array_equal(sol.x_star, ref.x_star)
    assert np.array_equal(sol.lambda_star, ref.lambda_star)
    assert sol.f_star == ref.f_star
    assert sol.active_set == ref.active_set


# the workload instances: fig2 (seeds 1534 and 52), equality (101 and 7) and large-n (1534 and 7)
WORKLOAD_INSTANCES = [
    (seed, n, r_max, extra)
    for seeds, n, r_max, extra in (((1534, 52), 14, 70.0, 16), ((101, 7), 10, 20.0, 6), ((1534, 7), 2000, 70.0, 4000))
    for seed in seeds
]


class TestReferenceBits:
    """Both solvers match the per-agent references (2^m enumeration, one dual solve) bit for bit."""

    @pytest.mark.parametrize("args", WORKLOAD_INSTANCES, ids=lambda a: f"seed{a[0]}-n{a[1]}")
    def test_workload_instances(self, args):
        inst = generate_instance(*args)
        assert_same_bits(solve_active_set(inst), reference_enumeration(inst))
        assert_same_bits(solve_equality(inst), reference_equality(inst))

    def test_small_generated_instances(self):
        for seed in range(50):
            inst = random_small_instance(seed)
            assert_same_bits(solve_active_set(inst), reference_enumeration(inst))
            assert_same_bits(solve_equality(inst), reference_equality(inst))

    def test_random_dense_instances(self):
        sizes = set()
        for seed in range(300):
            inst = random_dense_instance(seed)
            sol = solve_active_set(inst)
            assert_same_bits(sol, reference_enumeration(inst))
            assert_same_bits(solve_equality(inst), reference_equality(inst))
            sizes.add(len(sol.active_set))
        assert {0, 1, 2, 3, 4} <= sizes  # the draws exercise empty, partial and larger active sets


class TestActiveSet:
    def test_single_agent_binding_constraint(self):
        # f = x^2 with x <= -1: x* = -1, dual 2 (stationarity 2x + lam = 0)
        inst = scalar_instance(-1.0)
        sol = solve_active_set(inst)
        assert sol.active_set == (0,)
        assert sol.x_star[0, 0] == pytest.approx(-1.0)
        assert sol.lambda_star[0] == pytest.approx(2.0)
        assert sol.f_star == pytest.approx(1.0)

    def test_single_agent_inactive_constraint(self):
        inst = scalar_instance(1.0)
        sol = solve_active_set(inst)
        assert sol.active_set == ()
        assert sol.x_star[0, 0] == pytest.approx(0.0)
        assert sol.lambda_star[0] == pytest.approx(0.0)

    def test_kkt_residuals_on_generated_instances(self):
        for seed in range(1, 8):
            inst = random_small_instance(seed)
            sol = solve_active_set(inst)
            res = kkt_residuals(inst, sol)
            assert max(res.values()) <= 1e-8
            assert np.all(sol.lambda_star >= 0)

    def test_large_m_solves(self):
        # m = 40 rows: far beyond what trying all 2^m active sets could reach
        inst = random_dense_instance(40, n=6, m=40, p=42)
        sol = solve_active_set(inst)
        assert 0 < len(sol.active_set) < 40
        assert np.all(sol.lambda_star >= 0)
        assert max(kkt_residuals(inst, sol).values()) <= 1e-8

    @pytest.mark.parametrize(
        "G, message, solve",
        [
            pytest.param(np.zeros((1, 1)), "singular dual system", solve_active_set, id="singular"),
            # an indefinite dual: the held row's multiplier comes out negative at every step
            pytest.param(-np.ones((1, 1)), "did not settle within 4 steps", solve_active_set, id="step-cap"),
            pytest.param(
                np.zeros((1, 1)), r"singular dual system on rows \[0\]", solve_equality, id="equality-singular"
            ),
        ],
    )
    def test_failures_raise_oracle_failure(self, monkeypatch, G, message, solve):
        inst = scalar_instance(-1.0)
        H = np.ones((1, 1, 1))
        monkeypatch.setattr(oracle, "_dual", lambda instance: (H, G, np.ones(1)))
        with pytest.raises(OracleFailureError, match=message):
            solve(inst)

    def test_generic_costs_rejected(self):
        cost = CallableCost(value_fn=lambda x: float(x @ x), gradient_fn=lambda x: 2 * x, p=2)
        adj = np.array([[0, 1], [1, 0]], dtype=bool)
        inst = ProblemInstance(
            A=np.tile(np.eye(2), (2, 1, 1)),
            d=np.zeros((2, 2)),
            costs=(cost, cost),
            topology=metropolis_weights(adj),
        )
        with pytest.raises(InvalidInstanceError):
            solve_active_set(inst)


class TestEquality:
    def test_single_pinned_agent(self):
        # f = x^2 with x = 3: x* = 3 and 2x + lambda = 0 gives lambda = -6
        inst = scalar_instance(3.0)
        sol = solve_equality(inst)
        assert sol.x_star[0, 0] == pytest.approx(3.0)
        assert sol.lambda_star[0] == pytest.approx(-6.0)
        res = kkt_residuals(inst, sol, mode="equality")
        assert max(res.values()) <= 1e-10

    def test_symmetric_split(self):
        inst = scalar_instance(2.0, n=2)
        sol = solve_equality(inst)
        assert np.allclose(sol.x_star, [[1.0], [1.0]])
        assert sol.lambda_star[0] == pytest.approx(-2.0)

    def test_residuals_on_random_instances(self):
        for seed in (5, 6, 7):
            inst = random_small_instance(seed)
            sol = solve_equality(inst)
            res = kkt_residuals(inst, sol, mode="equality")
            assert max(res.values()) <= 1e-10


class TestProjectedGradient:
    def test_identity_inactive_instance(self):
        inst = scalar_instance(1.0, n=2)
        sol = reference_projected_gradient(inst)
        assert np.max(np.abs(sol.x_star)) <= 1e-9

    def test_agrees_with_active_set(self):
        for seed in range(1, 7):
            inst = random_small_instance(seed)
            a = solve_active_set(inst)
            b = reference_projected_gradient(inst)
            assert np.max(np.abs(a.x_star - b.x_star)) <= 1e-7
            assert max(kkt_residuals(inst, b).values()) <= 1e-8

    def test_agrees_with_equality_solver(self):
        for seed in (2, 9):
            inst = random_small_instance(seed)
            a = solve_equality(inst)
            b = reference_projected_gradient(inst, mode="equality")
            assert np.max(np.abs(a.x_star - b.x_star)) <= 1e-7

    def test_iteration_cap_fails_loudly(self):
        inst = scalar_instance(-1.0)  # binding constraint: dual must actually move
        with pytest.raises(OracleFailureError):
            reference_projected_gradient(inst, iters=1, tol=1e-14)

