"""The carried products: bit-identical to the frozen kernel, and never stale.

A state carries ``Ax = A_i x_i`` and the message ``z = A_i x'_i + (L y)_i
(+ delta_i)``; ``iterate`` reads them instead of recomputing them, and the
recorded violation and slack are formed from ``Ax``.  The first tests require
every iterate, both products and both metrics to equal, bit for bit,
``reference_step.reference_iterate`` (the two-exchange step with the products
recomputed) and its metric formulas over 50 steps on several kinds of
instance.  The others require a state's arrays to be read-only wherever the
state comes from, and its products to be exactly the products of its
iterates: ``Ax`` of ``x``, and ``z`` of ``x'``, ``Topology.mix(state.y)`` and
``delta``, bit for bit.
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
    ExperimentPlan,
    HyperParams,
    InvalidInstanceError,
    ProblemInstance,
    apply_disturbance,
    generate_instance,
    init_state,
    iterate,
    metropolis_weights,
    run_experiment,
    slack_sum,
    violation_l1,
)
from danyra.engine import SwarmState
from danyra.problem import agent_sum

from conftest import randomize_state
from reference_step import (
    ReferenceState,
    reference_copy,
    reference_disturb,
    reference_iterate,
    reference_slack_sum,
    reference_violation_l1,
    reference_z,
)

FIELDS = ("x", "x_prime", "y", "lam", "delta")
ARRAYS = FIELDS + ("Ax", "z")
STEPS = 50


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def same_bits(a, b) -> bool:
    return np.shape(a) == np.shape(b) and bits(a) == bits(b)


def products(instance, x):
    return np.einsum("nmp,np->nm", instance.A, x)


def message(instance, state: SwarmState):
    """``A x' + L y (+ delta)`` of a state's iterates, formed by the reference from its own ``L y``."""
    return reference_z(instance, reference_copy(state, instance))


def dense_wide_instance(n=6, seed=21):
    """p=3, m=2 with dense random couplings on a ring."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    M = rng.normal(size=(n, 3, 3))
    return ProblemInstance(
        A=rng.normal(size=(n, 2, 3)),
        d=rng.uniform(1.0, 3.0, size=(n, 2)),
        P=M @ M.swapaxes(1, 2) + np.eye(3),
        Q=rng.normal(size=(n, 3)),
        topology=metropolis_weights(adj),
    )


def callable_instance(instance):
    """The quadratic instance with each cost given as callables."""
    costs = tuple(
        CallableCost(
            value_fn=lambda x, P=P, Q=Q: x @ P @ x - Q @ x,
            gradient_fn=lambda x, P=P, Q=Q: 2.0 * (P @ x) - Q,
            p=instance.p,
        )
        for P, Q in zip(instance.P, instance.Q)
    )
    return ProblemInstance(A=instance.A, d=instance.d, topology=instance.topology, costs=costs)


def hyperparams(buffer=None):
    return HyperParams(
        alpha=0.01, beta=0.02, eta=0.1, gamma=0.2, buffer=buffer or BufferSchedule.constant(0.1)
    )


def assert_matches_reference(instance, state: SwarmState, ref: ReferenceState) -> None:
    assert state.k == ref.k
    for name in FIELDS:
        if ref.delta is None and name == "delta":
            assert state.delta is None
            continue
        assert same_bits(getattr(state, name), getattr(ref, name)), name
    assert same_bits(state.Ax, products(instance, ref.x))
    assert same_bits(state.z, reference_z(instance, ref))
    assert bits(violation_l1(instance, state)) == bits(reference_violation_l1(instance, ref.x))
    assert same_bits(slack_sum(instance, state), reference_slack_sum(instance, ref.x, ref.delta))


def run_both(instance, hp, mode, seed, events=None):
    """50 steps of ``iterate`` and of the frozen kernel from one randomized state, compared each step."""
    state = randomize_state(instance, init_state(instance, hp, "at_demand", mode=mode), seed=seed)
    ref = reference_copy(state, instance)
    for _ in range(STEPS):
        for event in (events or {}).get(state.k, ()):
            state = apply_disturbance(state, instance, event)
            ref = reference_disturb(ref, event)
            assert_matches_reference(instance, state, ref)
        state = iterate(state, instance, hp)
        ref = reference_iterate(ref, instance, hp)
        assert_matches_reference(instance, state, ref)
    return state


class TestBitIdenticalToFrozenKernel:
    @pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
    def test_fig2_instance(self, benchmark_instance, mode):
        run_both(benchmark_instance, hyperparams(), mode, seed=1)

    @pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
    def test_dense_wide_coupling(self, mode):
        run_both(dense_wide_instance(), hyperparams(), mode, seed=2)

    def test_decaying_buffer(self, small_instance):
        run_both(small_instance, hyperparams(BufferSchedule.decaying(2.0)), INEQUALITY, seed=3)

    def test_callable_costs(self, small_instance):
        run_both(callable_instance(small_instance), hyperparams(), INEQUALITY, seed=4)

    def test_segment_sum_mixing(self):
        # above DENSE_MIX_MAX_N (600) agents mix is the segment sum
        run_both(generate_instance(1534, 601, 70.0, 1202), hyperparams(), INEQUALITY, seed=5)

    def test_disturbances_mid_run(self, benchmark_instance):
        events = {
            20: [DisturbanceEvent(at_iteration=20, additive=[50.0, 50.0])],
            30: [  # several events at one iteration apply one after another
                DisturbanceEvent(at_iteration=30, additive=[-3.0, 7.0]),
                DisturbanceEvent(at_iteration=30, additive=[-3.0, 7.0]),
                DisturbanceEvent(at_iteration=30, additive=[1.5, 0.5]),
            ],
        }
        run_both(benchmark_instance, hyperparams(), INEQUALITY, seed=6, events=events)

    def test_recorded_rows(self, benchmark_instance, benchmark_oracle):
        """``run_experiment`` records what the frozen kernel's loop recorded."""
        hp = hyperparams()
        event = DisturbanceEvent(at_iteration=25, additive=[50.0, 50.0])
        plan = ExperimentPlan(instance=benchmark_instance, hp=hp, iters=STEPS, disturbances=(event,))
        trace = run_experiment(plan, benchmark_oracle)
        ref = reference_copy(init_state(benchmark_instance, hp, "at_demand"), benchmark_instance)
        viols, slacks = [], []
        for _ in range(STEPS):
            if ref.k == event.at_iteration:
                ref = reference_disturb(ref, event)
            ref = reference_iterate(ref, benchmark_instance, hp)
            viols.append(reference_violation_l1(benchmark_instance, ref.x))
            slacks.append(reference_slack_sum(benchmark_instance, ref.x, ref.delta))
        assert list(trace.ks) == list(range(1, STEPS + 1))
        assert same_bits(trace.violation_l1, viols)
        assert same_bits(trace.slack, np.stack(slacks))
        assert same_bits(trace.final_state.x, ref.x)


def handed_out_states(instance, hp):
    """A state from each place that hands one out, in both modes."""
    states = {}
    for mode in (INEQUALITY, EQUALITY):
        start = init_state(instance, hp, "at_demand", mode=mode)
        stepped = iterate(start, instance, hp)
        states[f"init_state-{mode}"] = start
        states[f"iterate-{mode}"] = stepped
        states[f"apply_disturbance-{mode}"] = apply_disturbance(
            stepped, instance, DisturbanceEvent(at_iteration=1, additive=[1.0, -2.0])
        )
        states[f"from_dict-{mode}"] = SwarmState.from_dict(stepped.to_dict(), instance)
    return states


class TestNoStaleProducts:
    @pytest.mark.parametrize("name", ARRAYS)
    def test_arrays_are_read_only(self, small_instance, base_hp, name):
        for origin, state in handed_out_states(small_instance, base_hp(omega=0.1)).items():
            arr = getattr(state, name)
            if arr is None:
                assert name == "delta" and origin.endswith(f"-{EQUALITY}")
                continue
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            assert not arr.flags.writeable, origin

    def test_copies_and_pickles_stay_read_only(self, small_instance, base_hp):
        state = iterate(init_state(small_instance, base_hp(omega=0.1), "at_demand"), small_instance, base_hp(omega=0.1))
        for copied in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            for name in ARRAYS:
                assert not getattr(copied, name).flags.writeable, name
                assert same_bits(getattr(copied, name), getattr(state, name)), name

    def test_fields_cannot_be_reassigned(self, small_instance, base_hp):
        state = init_state(small_instance, base_hp(), "at_demand")
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.x = state.x + 1.0

    def test_only_build_and_iterate_make_a_state(self, small_instance, base_hp):
        hp = base_hp(omega=0.1)
        state = iterate(init_state(small_instance, hp, "at_demand"), small_instance, hp)
        x = np.ones((small_instance.n, small_instance.p))
        zeros = np.zeros((small_instance.n, small_instance.m))
        fields = {"k": 0, "x": x, "x_prime": x, "y": zeros, "lam": zeros, "delta": None}
        for make in (
            lambda: SwarmState(**fields),
            lambda: SwarmState(**fields, Ax=zeros, z=zeros),
            lambda: SwarmState(*fields.values(), zeros, zeros),
            lambda: SwarmState(),
            lambda: dataclasses.replace(state, x=x),
            lambda: dataclasses.replace(state, Ax=zeros),
            lambda: dataclasses.replace(state),
        ):
            with pytest.raises(InvalidInstanceError, match=r"^a SwarmState is made by SwarmState\.build, "):
                make()
        assert x.flags.writeable and zeros.flags.writeable  # the caller's arrays are left alone
        assert state.x.flags.writeable is False and state.k == 1

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda instance, state, hp: violation_l1(instance, state), id="violation_l1"),
            pytest.param(lambda instance, state, hp: slack_sum(instance, state), id="slack_sum"),
            pytest.param(lambda instance, state, hp: iterate(state, instance, hp), id="iterate"),
        ],
    )
    def test_a_state_of_other_sizes_is_rejected(self, base_hp, call):
        # both sums over the agents are of shape (m,), so a state of 4 agents once measured an instance of 5
        hp = base_hp(omega=0.1)
        state = init_state(generate_instance(1, 4, 8.0, 1), hp)
        with pytest.raises(InvalidInstanceError, match=r"^a state of \(n, m, p\) = \(4, 2, 2\) used with an instance of \(5, "):
            call(generate_instance(1, 5, 8.0, 1), state, hp)

    def test_products_match_the_decisions(self, small_instance, base_hp):
        for origin, state in handed_out_states(small_instance, base_hp(omega=0.1)).items():
            assert same_bits(state.Ax, products(small_instance, state.x)), origin
            assert same_bits(state.z, message(small_instance, state)), origin
            # the shared total behind a row's violation and slack: computed once, read-only
            assert same_bits(state.Ax_sum, agent_sum(state.Ax)), origin
            assert state.Ax_sum is state.Ax_sum and not state.Ax_sum.flags.writeable, origin

    @pytest.mark.parametrize("n", [5, 601], ids=["dense-mix-5", "segment-sum-601"])
    def test_z_is_the_message(self, base_hp, n):
        instance = generate_instance(77, n, 10.0, 2 if n == 5 else 2 * n)
        hp = base_hp(omega=0.1)
        states = handed_out_states(instance, hp)
        stepped = states[f"iterate-{INEQUALITY}"]
        states["pickle"] = pickle.loads(pickle.dumps(stepped))
        states["deepcopy"] = copy.deepcopy(stepped)
        for origin, state in states.items():
            assert same_bits(state.z, message(instance, state)), origin
            assert not state.z.flags.writeable, origin
            assert state.z.flags.f_contiguous, origin

    def test_disturbance_refreshes_products(self, small_instance, base_hp):
        state = randomize_state(small_instance, init_state(small_instance, base_hp(), "at_demand"), seed=7)
        hit = apply_disturbance(state, small_instance, DisturbanceEvent(at_iteration=1, additive=[4.0, -1.0]))
        assert not same_bits(hit.Ax, state.Ax)
        assert same_bits(hit.Ax, products(small_instance, hit.x))
        assert same_bits(hit.z, message(small_instance, hit))
        assert not same_bits(hit.z, state.z)
        assert same_bits(state.Ax, products(small_instance, state.x))  # the input is unchanged

    @pytest.mark.parametrize("n", [5, 601], ids=["dense-mix-5", "segment-sum-601"])
    def test_disturbance_is_the_per_agent_shift(self, base_hp, n):
        """The one broadcast addition gives the bits of ``x[i] += additive`` for each agent in turn."""
        instance = generate_instance(77, n, 10.0, 2 if n == 5 else 2 * n)
        state = randomize_state(instance, init_state(instance, base_hp(omega=0.1), "at_demand"), seed=9)
        event = DisturbanceEvent(at_iteration=1, additive=[50.0 / 3.0, -1e-7])
        hit = apply_disturbance(state, instance, event)
        assert_matches_reference(instance, hit, reference_disturb(reference_copy(state, instance), event))
        assert hit.x.flags.f_contiguous and hit.x_prime.flags.f_contiguous

    def test_round_trip_rebuilds_products(self, small_instance, base_hp):
        state = randomize_state(small_instance, init_state(small_instance, base_hp(omega=0.2), "at_demand"), seed=8)
        state = iterate(state, small_instance, base_hp(omega=0.2))
        data = state.to_dict()
        assert "Ax" not in data and "z" not in data
        back = SwarmState.from_dict(data, small_instance)
        for name in ARRAYS:
            assert same_bits(getattr(back, name), getattr(state, name)), name
        assert back.k == state.k

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({"k": "3"}, "k must be a whole number, got '3'", id="k-text"),
            pytest.param({"k": True}, "k must be a whole number, got True", id="k-boolean"),
            pytest.param({"k": 2.5}, "k must be a whole number, got 2.5", id="k-fraction"),
            pytest.param({"k": -1}, "k must be >= 0, got -1", id="k-negative"),
            pytest.param({"x": "x"}, "x must be numbers, got str entries", id="x-text"),
            pytest.param({"y": [["0", 0.0]] * 5}, "y must be numbers, got str entries", id="y-text-entry"),
            pytest.param({"lam": None}, "lam must be numbers, got NoneType entries", id="lam-null"),
            pytest.param(
                {"x_prime": [[0.0, 0.0], [1.0]] * 2}, "x_prime must be numbers, got list entries", id="x-prime-ragged"
            ),
            pytest.param({"delta": [[float("nan"), 0.0]] * 5}, "delta must be finite", id="delta-nan"),
            pytest.param({"x": [[float("inf"), 0.0]] * 5}, "x must be finite", id="x-inf"),
            pytest.param({"y": [[0.0, 0.0]] * 3}, r"y must have shape \(5, 2\), got \(3, 2\)", id="y-shape"),
            pytest.param({"delta": 0.5}, r"delta must have shape \(5, 2\), got \(\)", id="delta-scalar"),
        ],
    )
    def test_from_dict_rejects_bad_documents(self, small_instance, base_hp, edit, message):
        data = init_state(small_instance, base_hp(omega=0.2), "at_demand").to_dict()
        with pytest.raises(InvalidInstanceError, match=message):
            SwarmState.from_dict({**data, **edit}, small_instance)

    @pytest.mark.parametrize("key", ["k", "x", "x_prime", "y", "lam", "delta"])
    def test_from_dict_needs_every_key(self, small_instance, base_hp, key):
        data = init_state(small_instance, base_hp(omega=0.2), "at_demand", mode=EQUALITY).to_dict()
        del data[key]
        with pytest.raises(InvalidInstanceError, match="a state document is an object with the keys k, x, x_prime"):
            SwarmState.from_dict(data, small_instance)

    def test_from_dict_needs_an_object(self, small_instance):
        for data in (None, [], "k"):
            with pytest.raises(InvalidInstanceError, match="a state document is an object"):
                SwarmState.from_dict(data, small_instance)

    def test_from_dict_reads_a_whole_float_k_and_a_null_delta(self, small_instance, base_hp):
        data = init_state(small_instance, base_hp(omega=0.2), "at_demand").to_dict()
        state = SwarmState.from_dict({**data, "k": 7.0, "delta": None}, small_instance)
        assert type(state.k) is int and state.k == 7 and state.delta is None

    @pytest.mark.parametrize(
        "k, message",
        [(2.7, "k must be a whole number, got 2.7"), ("3", "k must be a whole number, got '3'"), (-1, "k must be >= 0")],
        ids=["fraction", "text", "negative"],
    )
    def test_build_checks_k(self, small_instance, k, message):
        x = np.zeros((small_instance.n, small_instance.p))
        with pytest.raises(InvalidInstanceError, match=message):
            SwarmState.build(small_instance, k=k, x=x, x_prime=x, y=x, lam=x, delta=None)

    def test_build_keeps_non_finite_values(self, small_instance):
        # iterate's divergence check, not build, reports them (tests/test_layout.py runs it on such states)
        x = np.full((small_instance.n, small_instance.p), np.nan)
        zeros = np.zeros((small_instance.n, small_instance.m))
        state = SwarmState.build(small_instance, k=0, x=x, x_prime=x, y=zeros, lam=zeros, delta=zeros + np.inf)
        assert np.isnan(state.x).all() and np.isinf(state.delta).all()

    def test_build_copies_and_checks_shapes(self, small_instance, base_hp):
        x = np.ones((small_instance.n, small_instance.p))
        zeros = np.zeros((small_instance.n, small_instance.m))
        state = SwarmState.build(
            small_instance, k=3, x=x, x_prime=x, y=zeros, lam=zeros, delta=None
        )
        x[0] = 5.0
        assert x.flags.writeable and np.all(state.x == 1.0)
        assert same_bits(state.Ax, products(small_instance, np.ones_like(x)))
        with pytest.raises(InvalidInstanceError, match=r"x_prime must have shape \(5, 2\)"):
            SwarmState.build(
                small_instance, k=0, x=x, x_prime=x[:3], y=zeros, lam=zeros, delta=None
            )
        with pytest.raises(InvalidInstanceError, match=r"delta must have shape \(5, 2\)"):
            SwarmState.build(
                small_instance, k=0, x=x, x_prime=x, y=zeros, lam=zeros, delta=zeros[:, :1]
            )
