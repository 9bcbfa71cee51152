"""Unequal demands: the step converges to the optimum however the demands are split among the agents.

Each agent mixes ``v_i = z_i - d_i + lambda_i``.  At a fixed point ``z_i = d_i``, so ``L v = 0`` and ``v_i =
lambda_i`` give one consensus multiplier, and the limit is the KKT point.  Mixing ``z_i + lambda_i`` instead
gives ``lambda_i = c - d_i``: agents with different demands end on different multipliers, and the limit is not
the optimum.  ``generate_instance`` gives every agent the same demand, so these tests split it unevenly:

- fig2's instance with each ``d_i`` shifted by a seeded uniform draw in [-5, 5], centred in each column so that
  ``sum_i d_i``, and the optimum, stay the same (mixing ``z + lambda`` ends 199.5 from it in inequality mode);
- a dense instance with p = 3 > m = 2 and Gaussian demands (mixing ``z + lambda`` stalls at a gap of 0.84).
"""

from __future__ import annotations

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    INEQUALITY,
    ExperimentPlan,
    HyperParams,
    ProblemInstance,
    optimality_gap,
    run_experiment,
    solve_active_set,
    solve_equality,
)

from test_oracle import random_dense_instance

SOLVERS = {INEQUALITY: solve_active_set, EQUALITY: solve_equality}


def resplit(instance: ProblemInstance, seed: int = 0, width: float = 5.0) -> ProblemInstance:
    """``instance`` with each agent's demand shifted by a uniform draw in [-width, width], centred per column."""
    shift = np.random.default_rng(seed).uniform(-width, width, size=instance.d.shape)
    shift -= shift.mean(axis=0)
    return ProblemInstance(A=instance.A, d=instance.d + shift, P=instance.P, Q=instance.Q, topology=instance.topology)


def final_state(instance, hp, mode, iters):
    plan = ExperimentPlan(instance=instance, hp=hp, iters=iters, mode=mode, record_every=iters)
    return run_experiment(plan).final_state


@pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
def test_resplit_fig2_instance_converges_to_the_oracle(benchmark_instance, mode):
    instance = resplit(benchmark_instance)
    assert np.ptp(instance.d, axis=0).min() > 1.0
    assert np.allclose(instance.demand_total, benchmark_instance.demand_total, rtol=0, atol=1e-12)
    oracle = SOLVERS[mode](instance)
    state = final_state(instance, HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2), mode, 20000)
    assert optimality_gap(state.x, oracle) < 1e-8
    assert np.max(np.abs(state.lam - oracle.lambda_star)) < 1e-3


@pytest.fixture(scope="module", params=[INEQUALITY, EQUALITY])
def dense_limit(request):
    """``(oracle, state)``: the dense p > m instance's solution and its state after 15000 steps."""
    mode = request.param
    instance = random_dense_instance(5, n=6, m=2, p=3)
    hp = HyperParams(alpha=0.02, beta=0.05, eta=0.1, gamma=0.2)
    return SOLVERS[mode](instance), final_state(instance, hp, mode, 15000)


def test_dense_unequal_demands_converge_to_the_oracle(dense_limit):
    oracle, state = dense_limit
    assert optimality_gap(state.x, oracle) < 1e-20
    assert np.max(np.abs(state.x - state.x_prime)) < 1e-12


def test_at_the_limit_the_agents_multipliers_agree(dense_limit):
    oracle, state = dense_limit
    assert np.max(np.ptp(state.lam, axis=0)) < 1e-12
    assert np.max(np.abs(state.lam - oracle.lambda_star)) < 1e-12
