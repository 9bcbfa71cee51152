import numpy as np
import pytest

from danyra import (
    CallableCost,
    InvalidInstanceError,
    OracleFailureError,
    ProblemInstance,
    UnsupportedProblemError,
    generate_instance,
    metropolis_weights,
    solve_active_set,
    solve_equality,
)

from reference_oracle import kkt_residuals, reference_projected_gradient


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

    def test_large_m_guarded(self):
        eye = np.tile(np.eye(11), (2, 1, 1))
        adj = np.array([[0, 1], [1, 0]], dtype=bool)
        inst = ProblemInstance(
            A=eye, d=np.zeros((2, 11)), P=eye, Q=np.zeros((2, 11)), topology=metropolis_weights(adj)
        )
        with pytest.raises(UnsupportedProblemError):
            solve_active_set(inst)

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

