"""Bitwise fixed points: ``iterate`` reuses a state that maps to itself, and nothing else.

In floating point the iteration's linear rate ends in a state whose step
returns its own bits.  ``iterate`` marks such a state and, called again with
the same ``instance`` and ``hp`` objects and an equal floor, returns it at
``k + 1`` without arithmetic or exchanges.  On a 4-agent instance that gets
there within about 3500 steps in both modes (the inequality run's floor then
steps down from 0.1 to 0.05 at ``FLOOR_DROP_K``), these tests require:

- every state of the run to equal, bit for bit, a chain with no reuse, whose
  every input is rebuilt with ``SwarmState.build`` (all fields and products);
- a step to make no ``Topology.mix`` call exactly when its input equals its
  predecessor in the six arrays a step reads under an unchanged floor, and
  two otherwise;
- a fixed state paired with a value-equal but distinct ``HyperParams`` or
  instance, remade by ``apply_disturbance``, ``copy``, ``deepcopy``,
  ``pickle``, ``from_dict`` or ``build``, or under a floor that stepped down,
  to be stepped in full, to the same bits;
- a step that changes ``x'`` only along the null space of ``A`` (p > m), and
  so no other array a step reads, not to be reused.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    INEQUALITY,
    BufferSchedule,
    CallableCost,
    DisturbanceEvent,
    HyperParams,
    ProblemInstance,
    SwarmState,
    Topology,
    apply_disturbance,
    generate_instance,
    init_state,
    iterate,
)

from conftest import count_mix, rebuild

# From the zero start, the first step that returns its input's bits is the one from k = 1782 in equality
# mode and from k = 3483 in inequality mode; every later step reuses its state until the floor drops.
GENERATE = {"seed": 1, "n": 4, "r_max": 10.0, "extra_edges": 2}
STEP_SIZES = {"alpha": 0.02974, "beta": 0.27, "eta": 0.07, "gamma": 0.8922}  # the equality preset's
FLOOR_DROP_K = 3600
ITERS = {EQUALITY: 1900, INEQUALITY: 3650}
FIELDS = ("x", "x_prime", "y", "lam", "delta", "Ax", "z", "Ax_sum")
STEP_READS = ("x_prime", "y", "lam", "delta", "Ax", "z")


def make_hp(mode):
    levels = [0.1] * FLOOR_DROP_K + [0.05] if mode == INEQUALITY else [0.0]
    return HyperParams(**STEP_SIZES, buffer=BufferSchedule.sequence(levels))


def assert_same_bits(got: SwarmState, want: SwarmState) -> None:
    assert got.k == want.k
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.f_contiguous == b.flags.f_contiguous and not a.flags.writeable, name
        assert a.tobytes() == b.tobytes(), name


def reads(state: SwarmState) -> list:
    return [None if getattr(state, name) is None else getattr(state, name).tobytes() for name in STEP_READS]


@pytest.fixture(scope="module", params=[EQUALITY, INEQUALITY])
def run(request):
    """``(instance, hp, states, mixes)``: the states at k = 0..ITERS and each step's ``Topology.mix`` calls."""
    mode = request.param
    instance, hp = generate_instance(**GENERATE), make_hp(mode)
    states, mixes = [init_state(instance, hp, "zero", mode=mode)], []
    with pytest.MonkeyPatch.context() as patch:
        calls = count_mix(patch)
        for _ in range(ITERS[mode]):
            calls.clear()
            states.append(iterate(states[-1], instance, hp))
            mixes.append(len(calls))
    return instance, hp, states, mixes


def test_run_is_bit_identical_to_a_chain_without_reuse(run):
    instance, hp, states, _ = run
    fresh = states[0]
    for state in states[1:]:
        fresh = iterate(rebuild(instance, fresh), instance, hp)
        assert_same_bits(state, fresh)


def test_reused_steps_make_no_exchange(run):
    _, hp, states, mixes = run
    floors = [hp.buffer.value(k) if states[0].delta is not None else None for k in range(len(states))]
    reused = [
        k >= 2 and reads(states[k]) == reads(states[k - 1]) and floors[k] == floors[k - 1]
        for k in range(len(mixes))
    ]
    assert mixes == [0 if r else 2 for r in reused]
    assert sum(reused) > 50  # the run reaches its fixed point (in inequality mode, before the floor drops)
    if states[0].delta is not None:
        assert reused[FLOOR_DROP_K - 1] and not reused[FLOOR_DROP_K]


# ways of pairing a fixed state with a step: (state, instance, hp) -> the state, instance and hp stepped
REMADE = {
    "equal_hp": lambda state, instance, hp: (state, instance, dataclasses.replace(hp)),
    "other_instance": lambda state, instance, hp: (state, generate_instance(**GENERATE), hp),
    "apply_disturbance": lambda state, instance, hp: (
        apply_disturbance(state, instance, DisturbanceEvent(state.k, np.zeros(instance.p))), instance, hp
    ),
    "copy": lambda state, instance, hp: (copy.copy(state), instance, hp),
    "deepcopy": lambda state, instance, hp: (copy.deepcopy(state), instance, hp),
    "pickle": lambda state, instance, hp: (pickle.loads(pickle.dumps(state)), instance, hp),
    "from_dict": lambda state, instance, hp: (SwarmState.from_dict(state.to_dict(), instance), instance, hp),
    "build": lambda state, instance, hp: (rebuild(instance, state), instance, hp),
}


@pytest.mark.parametrize("name", REMADE)
def test_a_fixed_state_remade_or_paired_anew_is_stepped_in_full(run, counted_mix, name):
    instance, hp, states, _ = run
    fixed = states[FLOOR_DROP_K - 1] if states[0].delta is not None else states[-1]
    counted_mix.clear()
    reused = iterate(fixed, instance, hp)
    assert counted_mix == []  # the control: the same objects reuse the fixed state
    assert_same_bits(reused, iterate(rebuild(instance, fixed), instance, hp))

    state, step_instance, step_hp = REMADE[name](fixed, instance, hp)
    counted_mix.clear()
    got = iterate(state, step_instance, step_hp)
    assert len(counted_mix) == 2
    assert_same_bits(got, iterate(rebuild(step_instance, state), step_instance, step_hp))


@pytest.mark.parametrize("run", [INEQUALITY], indirect=True)
def test_a_floor_that_steps_down_is_stepped_in_full(run, counted_mix):
    instance, hp, states, _ = run
    fixed = states[FLOOR_DROP_K]
    assert hp.buffer.value(FLOOR_DROP_K) < hp.buffer.value(FLOOR_DROP_K - 1)
    assert reads(fixed) == reads(states[FLOOR_DROP_K - 1])
    counted_mix.clear()
    got = iterate(fixed, instance, hp)
    assert len(counted_mix) == 2
    assert_same_bits(got, iterate(rebuild(instance, fixed), instance, hp))
    assert reads(got) != reads(fixed)


def test_a_step_that_moves_x_prime_only_along_the_null_space_of_A_is_not_reused():
    # p = 2 > m = 1 and A_i = [1, 0]: a constant gradient (0, g) moves x'_i along (0, 1), and with equal
    # demands, x = x' and y = lam = 0, every other array a step reads keeps its bits from step to step
    n, g = 2, 1.0
    topology = Topology(n=n, edges=[(0, 1)], weights=[0.5])
    cost = CallableCost(value_fn=lambda x: g * x[1], gradient_fn=lambda x: np.array([0.0, g]), p=2)
    A = np.tile([[[1.0, 0.0]]], (n, 1, 1))
    instance = ProblemInstance(A=A, d=np.ones((n, 1)), topology=topology, costs=(cost,) * n)
    hp = make_hp(EQUALITY)
    x = np.tile([1.0, 0.0], (n, 1))
    zeros = np.zeros((n, 1))
    states = [SwarmState.build(instance, k=0, x=x, x_prime=x, y=zeros, lam=zeros, delta=None)]
    for _ in range(4):
        states.append(iterate(states[-1], instance, hp))
    fresh = states[0]
    for before, state in zip(states, states[1:]):
        fresh = iterate(rebuild(instance, fresh), instance, hp)
        assert_same_bits(state, fresh)
        assert reads(state)[0] != reads(before)[0] and reads(state)[1:] == reads(before)[1:]
