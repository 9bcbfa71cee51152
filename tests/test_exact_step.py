"""The step over exact rationals: the paper's identities checked with no tolerance.

``engine._step`` is the one place the update equations are written, and ``iterate`` calls it on float arrays.
These tests call the same kernel on object arrays of ``fractions.Fraction``, which takes every float exactly, built
from a preset's generated instance and start state:

- ``A``, ``d``, the Hessians ``2 P``, ``Q`` and the start iterates converted exactly, and the step sizes and the
  floor too, since a float times a ``Fraction`` is a float;
- each agent's projector ``A'(AA')^{-1}``, solved exactly rather than converted from the rounded float one;
- the Laplacian, ``-w_ij`` off the diagonal from ``topology.weights`` and the diagonal summed exactly from them, so
  that its columns sum to exactly zero.  The stored float ``L``'s diagonal is a rounded sum, and with it the
  equality identity below holds in none of the steps.

Summing the projection over the agents, and with ``sum_i (L y)_i = 0``, the slack
``s_k = sum_i (A_i x_i + delta_i - d_i)`` (no ``delta`` in equality mode) obeys ``s_{k+1} = (1 - gamma) s_k``.  A
start with ``s_0 <= 0`` and a zero floor then keeps ``sum_i (A_i x_i - d_i) = s_k - sum_i delta_i <= 0``: the run is
feasible at every step, with a violation of exactly 0.  The recursion holds as well with a positive floor ``omega``,
which every queue entry then stays at or above, and from a start that violates the constraint.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from danyra.engine import _step

from conftest import preset_plans

# numpy's einsum takes object arrays from 1.25 on, and the project allows numpy 1.24
pytestmark = pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "1.25.0", reason="einsum of objects: numpy>=1.25")

exact = np.frompyfunc(Fraction, 1, 1)  # a float array as an object array of its entries' exact values


def solve(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``G^{-1} B`` for a nonsingular object matrix ``G`` of Fractions, by Gauss-Jordan elimination."""
    M = np.concatenate([G, B], axis=1)
    for c in range(len(G)):
        pivot = next(r for r in range(c, len(G)) if M[r, c] != 0)
        M[[c, pivot]] = M[[pivot, c]]
        M[c] = M[c] / M[c, c]
        for r in range(len(G)):
            if r != c:
                M[r] = M[r] - M[r, c] * M[c]
    return M[:, len(G) :]


def exact_laplacian(topology) -> np.ndarray:
    """The (n, n) Laplacian of the stored edge weights, its diagonal summed exactly."""
    L = np.full((topology.n, topology.n), Fraction(0), dtype=object)
    for (i, j), w in zip(topology.edges.tolist(), map(Fraction, topology.weights.tolist())):
        L[i, j] = L[j, i] = -w
        L[i, i] += w
        L[j, j] += w
    return L


def exact_run(preset: str, steps: int, member: int = 0):
    """``(gamma, d, states)``: the preset's start and ``steps`` steps of ``_step`` on it, all in Fractions.

    ``member`` picks a sweep member (a single run is member 0).  The start is the run's ``ExperimentPlan.start``, so
    a disturbance at iteration 0 is in it.  Each state is the tuple ``(x, x', y, lam, delta, Ax, z)`` that ``_step``
    returns; ``Ax`` and ``z`` of the start are its products as ``SwarmState`` defines them.
    """
    instance, plans, _ = preset_plans(preset)
    hp, start = plans[member].hp, plans[member].start
    A, d, hessian, Q = (exact(a) for a in (instance.A, instance.d, instance.hessian_stack, instance.Q))
    projector = np.stack([solve(a @ a.T, a).T for a in A])
    L = exact_laplacian(instance.topology)
    alpha, beta, eta, gamma = (Fraction(v) for v in (hp.alpha, hp.beta, hp.eta, hp.gamma))

    def mix(v):
        return L @ v

    x, x_prime, y, lam = (exact(a) for a in (start.x, start.x_prime, start.y, start.lam))
    delta = None if start.delta is None else exact(start.delta)
    z = np.einsum("nmp,np->nm", A, x_prime) + mix(y) + (0 if delta is None else delta)
    states = [(x, x_prime, y, lam, delta, np.einsum("nmp,np->nm", A, x), z)]
    for k in range(steps):
        floor = None if delta is None else Fraction(hp.buffer.value(k))
        x_prime = states[-1][1]
        gradient = np.einsum("nij,nj->ni", hessian, x_prime) - Q
        states.append(_step(*states[-1][1:], A, d, projector, gradient, mix, alpha, beta, eta, gamma, floor))
    return gamma, d, states


def slack(state, d) -> list:
    """``sum_i (A_i x_i + delta_i - d_i)`` of a state tuple (no ``delta`` in equality mode), as a list of Fractions."""
    delta, Ax = state[4], state[5]
    return list((Ax - d if delta is None else Ax + delta - d).sum(axis=0))


def violation(state, d) -> Fraction:
    """``sum_j max(sum_i (A_i x_i - d_i)_j, 0)`` of a state tuple, from its ``Ax``."""
    return sum(max(total, 0) for total in (state[5] - d).sum(axis=0))


def test_equality_slack_contracts_by_exactly_one_minus_gamma():
    gamma, d, states = exact_run("equality", 25)  # from x = 0
    assert all(s != 0 for s in slack(states[0], d))  # each step's identity is not 0 == 0
    for k, (state, after) in enumerate(zip(states, states[1:])):
        assert slack(after, d) == [(1 - gamma) * s for s in slack(state, d)], k


def test_fig2_is_feasible_at_every_step_exactly():
    # inequality mode from at_demand, with fig2's zero floor and no disturbance
    gamma, d, states = exact_run("fig2", 12)
    assert all(s <= 0 for s in slack(states[0], d))
    assert any((states[-1][4] != 0).flat)  # the queue moved, so the recursion's (1 - gamma) delta term is exercised
    for k, (state, after) in enumerate(zip(states, states[1:])):
        assert all(type(entry) is Fraction for array in after for entry in array.flat), k  # no float leaked in
        assert violation(after, d) == 0, k
        assert slack(after, d) == [(1 - gamma) * s for s in slack(state, d)], k


def test_a_floored_run_from_a_violated_start_keeps_the_recursion_exactly():
    # buffer-sweep's omega = 0.1 member: an active floor, from at_demand shifted by +50 at iteration 0
    gamma, d, states = exact_run("buffer-sweep", 12, member=1)
    omega = Fraction(0.1)
    assert violation(states[0], d) > 0
    for k, (state, after) in enumerate(zip(states, states[1:])):
        assert all(type(entry) is Fraction for array in after for entry in array.flat), k
        assert all(entry >= omega for entry in after[4].flat), k
        assert slack(after, d) == [(1 - gamma) * s for s in slack(state, d)], k
    assert violation(states[-1], d) < violation(states[0], d)
