"""Agents innermost in memory: every per-agent stack and iterate is Fortran-ordered.

``ProblemInstance`` and ``SwarmState.build`` store their (n, ...) arrays with
the agent axis contiguous, and ``iterate`` keeps that layout.  The first tests
require it of every array an instance or a state holds, wherever the state
comes from.  The dense ``Topology.mix`` must equal the row-major ``L @ v`` bit
for bit, and ``agent_sum`` numpy's ``.sum(axis=0)`` of the C-order
copy bit for bit, signed zeros included, since the recorded metrics are pinned
to that sum.  The last tests cover ``iterate``'s finiteness check, which sums
two of the returned fields only, ``x`` and ``lambda``: a non-finite value
injected into any field at one agent must still raise the ``DivergenceError``
of the full five-field check of ``reference_step.reference_iterate``, and so
must a finite dual that overflows in the dual update alone.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    INEQUALITY,
    DisturbanceEvent,
    DivergenceError,
    ProblemInstance,
    apply_disturbance,
    generate_instance,
    init_state,
    iterate,
    metropolis_weights,
)
from danyra.engine import SwarmState
from danyra.problem import agent_sum

from conftest import randomize_state
from reference_step import reference_copy, reference_iterate

STACKS = ("A", "d", "P", "Q", "projector_stack", "hessian_stack")
ARRAYS = ("x", "x_prime", "y", "lam", "delta", "Ax", "z")
FIELDS = ("x", "x_prime", "y", "lam", "delta")


@pytest.fixture(scope="module", params=[14, 601], ids=["dense-mix-14", "segment-sum-601"])
def instance(request):
    n = request.param
    return generate_instance(3, n, 70.0, 2 * n)


def wide_instance():
    """p = 3, m = 2 from C-ordered inputs: the constructor sets the layout, not the caller."""
    rng = np.random.default_rng(4)
    n = 6
    basis = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0]
    P = basis * rng.uniform(0.5, 2.0, (n, 1, 3)) @ basis.transpose(0, 2, 1)
    return ProblemInstance(
        A=rng.uniform(0.5, 2.0, (n, 2, 3)),
        d=rng.uniform(0.0, 1.0, (n, 2)),
        P=0.5 * (P + P.transpose(0, 2, 1)),
        Q=rng.uniform(0.0, 1.0, (n, 3)),
        topology=metropolis_weights(~np.eye(n, dtype=bool)),
    )


def assert_agent_contiguous(state: SwarmState):
    for name in ARRAYS:
        arr = getattr(state, name)
        if arr is not None:
            assert arr.flags.f_contiguous, name


class TestLayout:
    def test_instance_stacks(self, instance):
        for inst in (instance, wide_instance()):
            for name in STACKS:
                assert getattr(inst, name).flags.f_contiguous, name

    @pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
    @pytest.mark.parametrize("init_mode", ["at_demand", "zero"])
    def test_states_from_init_and_iterate(self, instance, base_hp, mode, init_mode):
        state = init_state(instance, base_hp(0.1), init_mode, mode=mode)
        assert_agent_contiguous(state)
        for _ in range(3):
            state = iterate(state, instance, base_hp(0.1))
            assert_agent_contiguous(state)

    def test_states_from_disturbance_dict_and_copy(self, instance, base_hp):
        state = iterate(init_state(instance, base_hp(0.1)), instance, base_hp(0.1))
        event = DisturbanceEvent(at_iteration=1, additive=np.array([1.0, -1.0]))
        disturbed = apply_disturbance(state, instance, event)
        for made in (disturbed, SwarmState.from_dict(state.to_dict(), instance), copy.deepcopy(state)):
            assert_agent_contiguous(made)
        assert_agent_contiguous(iterate(disturbed, instance, base_hp(0.1)))


@pytest.mark.parametrize("n", [10, 14, 50, 200, 450, 600])
def test_dense_mix_is_the_row_major_product(n):
    top = generate_instance(2, n, 70.0, 2 * n).topology
    v = np.random.default_rng(n).standard_normal((n, 2))
    mixed = top.mix(np.asfortranarray(v))
    assert mixed.flags.f_contiguous
    assert np.ascontiguousarray(mixed).tobytes() == (top.L @ v).tobytes()


class TestAgentSum:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 14, 100, 2000])
    def test_is_the_c_order_sum(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        values = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-12, 12, (n, k))
        for zeros in (None, 0, k - 1):  # an all -0.0 column sums to +0.0
            stack = values.copy()
            if zeros is not None:
                stack[:, zeros] = -0.0
            expected = np.ascontiguousarray(stack).sum(axis=0)
            got = agent_sum(np.asfortranarray(stack))
            assert got.tobytes() == expected.tobytes()
            if zeros is not None:
                assert not np.signbit(got[zeros])


def injections():
    for n, agents in ((5, range(5)), (601, (0, 300, 600))):
        for mode in (INEQUALITY, EQUALITY):
            for field in FIELDS if mode == INEQUALITY else FIELDS[:-1]:
                yield pytest.param(n, agents, mode, field, id=f"n{n}-{mode}-{field}")


@pytest.fixture(scope="module")
def divergence_instances():
    return {n: generate_instance(11, n, 10.0, n) for n in (5, 601)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n, agents, mode, field", injections())
def test_finiteness_check_names_the_first_nonfinite_field(divergence_instances, base_hp, n, agents, mode, field):
    instance = divergence_instances[n]
    hp = base_hp(0.1)
    start = randomize_state(instance, init_state(instance, hp, mode=mode), seed=n)
    for agent in agents:
        for bad in (np.inf, np.nan):
            values = getattr(start, field).copy()
            values[agent, 0] = bad
            state = SwarmState.build(
                instance, **{**{f: getattr(start, f) for f in ("k", *FIELDS)}, field: values}
            )
            with pytest.raises(DivergenceError) as full_check:
                reference_iterate(reference_copy(state, instance), instance, hp)
            with pytest.raises(DivergenceError) as err:
                iterate(state, instance, hp)
            assert str(err.value) == str(full_check.value)
            assert (err.value.k, err.value.agents) == (full_check.value.k, full_check.value.agents)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
def test_finiteness_check_sees_an_overflow_in_the_dual_update(divergence_instances, base_hp, mode):
    # a finite dual at agent i whose A_i'lam_i is finite but A_i A_i'lam_i overflows: x_next
    # stays finite, and only lam_next shows the divergence
    instance = divergence_instances[5]
    hp = base_hp(0.1)
    agent = int(np.argmax(instance.A[:, 1, 1]))
    c = instance.A[agent, 1, 1]  # A_i = diag(1, c)
    assert c > 1.1
    lam = np.zeros((instance.n, instance.m))
    lam[agent, 1] = np.finfo(float).max / c**1.5
    start = init_state(instance, hp, mode=mode)
    state = SwarmState.build(instance, **{**{f: getattr(start, f) for f in ("k", *FIELDS)}, "lam": lam})
    with pytest.raises(DivergenceError, match=rf"non-finite lambda at iteration 0 \(agents \[{agent}\]\)"):
        reference_iterate(reference_copy(state, instance), instance, hp)
    with pytest.raises(DivergenceError, match=rf"non-finite lambda at iteration 0 \(agents \[{agent}\]\)"):
        iterate(state, instance, hp)
