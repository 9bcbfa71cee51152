import copy
import dataclasses

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    BufferSchedule,
    ConfigError,
    DisturbanceEvent,
    ExperimentPlan,
    HyperParams,
    apply_disturbance,
    generate_instance,
    init_state,
    recovery_iteration,
    run_experiment,
    slack_sum,
    solve_active_set,
    solve_equality,
)

from conftest import randomize_state


class TestDisturbance:
    def test_zero_additive_leaves_state(self, small_instance, base_hp):
        st = randomize_state(small_instance, init_state(small_instance, base_hp(), "at_demand"), seed=1)
        before = copy.deepcopy(st)
        st = apply_disturbance(st, small_instance, DisturbanceEvent(at_iteration=1, additive=np.zeros(2)))
        assert np.array_equal(st.x, before.x) and np.array_equal(st.x_prime, before.x_prime)

    def test_single_agent_only(self, small_instance, base_hp):
        st = init_state(small_instance, base_hp(), "at_demand")
        before = copy.deepcopy(st)
        st = apply_disturbance(
            st, small_instance, DisturbanceEvent(at_iteration=1, additive=np.array([1.0, -2.0]), agent_ids=(2,))
        )
        assert np.array_equal(st.x[0], before.x[0])
        assert np.allclose(st.x[2] - before.x[2], [1.0, -2.0])
        assert np.array_equal(st.y, before.y) and np.array_equal(st.lam, before.lam)
        assert np.array_equal(st.delta, before.delta)

    def test_slack_jump_matches_dense_recomputation(self, benchmark_instance, base_hp):
        st = init_state(benchmark_instance, base_hp(), "at_demand")
        s_before = slack_sum(benchmark_instance, st)
        bump = np.array([50.0, 50.0])
        st = apply_disturbance(st, benchmark_instance, DisturbanceEvent(at_iteration=1, additive=bump))
        s_after = slack_sum(benchmark_instance, st)
        expected_jump = sum(A_i @ bump for A_i in benchmark_instance.A)
        assert np.max(np.abs((s_after - s_before) - expected_jump)) <= 1e-9

    def test_x_only_flag(self, small_instance, base_hp):
        st = init_state(small_instance, base_hp(), "at_demand")
        before = copy.deepcopy(st)
        st = apply_disturbance(
            st,
            small_instance,
            DisturbanceEvent(at_iteration=1, additive=np.ones(2), perturb_x_prime=False),
        )
        assert np.allclose(st.x - before.x, 1.0)
        assert np.array_equal(st.x_prime, before.x_prime)

    def test_unknown_agent_rejected(self, small_instance, base_hp):
        st = init_state(small_instance, base_hp(), "at_demand")
        with pytest.raises(ConfigError):
            apply_disturbance(
                st, small_instance, DisturbanceEvent(at_iteration=1, additive=np.ones(2), agent_ids=(99,))
            )

    def test_event_validation(self):
        with pytest.raises(ConfigError):
            DisturbanceEvent(at_iteration=0, additive=np.ones(2))
        with pytest.raises(ConfigError):
            DisturbanceEvent(at_iteration=5, additive=np.array([np.inf, 0.0]))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            pytest.param({"additive": ["1", "2"]}, "must be numbers", id="additive-text"),
            pytest.param({"additive": [True, 2.0]}, "must be numbers", id="additive-boolean"),
            pytest.param({"additive": [[1.0], [1.0, 2.0]]}, "must be numbers", id="additive-ragged"),
            pytest.param({"agent_ids": (1.5, 2)}, "agent id must be a whole number, got 1.5", id="agent-fraction"),
            pytest.param({"agent_ids": ("2",)}, "agent id must be a whole number, got '2'", id="agent-text"),
            pytest.param({"agent_ids": (True,)}, "agent id must be a whole number, got True", id="agent-boolean"),
            pytest.param({"agent_ids": 5}, "agent_ids must be a list of agent ids, got 5", id="agent-ids-number"),
            pytest.param({"agent_ids": [0, 0]}, "agent id 0 is listed more than once", id="agent-repeated"),
            pytest.param({"agent_ids": [3, 1, 3, 1]}, "agent id 1 is listed more than once", id="agents-repeated"),
        ],
    )
    def test_event_rejects_what_is_not_a_number(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            DisturbanceEvent(**{"at_iteration": 5, "additive": [1.0, 2.0], **kwargs})

    @pytest.mark.parametrize("flag", ["false", 0, None], ids=["text", "zero", "null"])
    def test_event_perturb_x_prime_must_be_boolean(self, flag):
        with pytest.raises(ConfigError, match="perturb_x_prime must be a boolean"):
            DisturbanceEvent(at_iteration=5, additive=[1.0, 2.0], perturb_x_prime=flag)

    def test_event_perturb_x_prime_accepts_numpy_boolean(self):
        event = DisturbanceEvent(at_iteration=5, additive=[1.0, 2.0], perturb_x_prime=np.bool_(False))
        assert event.perturb_x_prime is False

    def test_event_agent_ids_are_ints(self):
        event = DisturbanceEvent(at_iteration=5, additive=[1, 2], agent_ids=(1.0, np.int64(2)))
        assert event.agent_ids == (1, 2)
        assert all(type(i) is int for i in event.agent_ids)
        assert event.additive.tolist() == [1.0, 2.0]


class TestRunExperiment:
    def test_feasible_init_never_violates(self, benchmark_instance, benchmark_oracle, base_hp):
        plan = ExperimentPlan(
            instance=benchmark_instance, hp=base_hp(), iters=500, init_mode="at_demand"
        )
        trace = run_experiment(plan, benchmark_oracle)
        assert trace.violation_l1.max() <= 1e-12

    def test_single_iteration_single_row(self, small_instance, base_hp):
        trace = run_experiment(
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=1, init_mode="at_demand")
        )
        assert list(trace.ks) == [1]

    def test_record_stride_includes_final(self, small_instance, base_hp):
        trace = run_experiment(
            ExperimentPlan(
                instance=small_instance, hp=base_hp(), iters=25, record_every=10,
                init_mode="at_demand",
            )
        )
        assert list(trace.ks) == [10, 20, 25]

    def test_disturbance_jump_and_recovery(self, benchmark_instance, benchmark_oracle, base_hp):
        hp = base_hp(omega=0.1)
        plan = ExperimentPlan(
            instance=benchmark_instance,
            hp=hp,
            iters=400,
            init_mode="at_demand",
            disturbances=(DisturbanceEvent(at_iteration=50, additive=np.array([50.0, 50.0])),),
        )
        trace = run_experiment(plan, benchmark_oracle)
        ks = trace.ks
        assert trace.violation_l1[ks <= 50].max() <= 1e-12
        assert trace.violation_l1[ks == 51][0] > 1.0
        rec = recovery_iteration(trace, from_k=51)
        assert rec is not None and rec < 400
        # geometric recovery after injection: every pair from k=51 on contracts by 1-gamma
        s = trace.slack
        idx = np.flatnonzero(ks >= 51)
        lhs = s[idx[1:]] - (1 - hp.gamma) * s[idx[:-1]]
        rel = np.abs(lhs).max(axis=1) / (1 + np.abs(s[idx[:-1]]).max(axis=1))
        assert rel.max() <= 1e-9

    def test_gap_column_requires_oracle(self, small_instance, base_hp):
        plan = ExperimentPlan(instance=small_instance, hp=base_hp(), iters=3, init_mode="at_demand")
        without = run_experiment(plan)
        assert without.gap is None
        assert without.csv_text().splitlines()[0] == "k,violation_l1,slack_0,slack_1"
        with_oracle = run_experiment(plan, solve_active_set(small_instance))
        assert with_oracle.gap is not None
        assert with_oracle.csv_text().splitlines()[0] == "k,gap,violation_l1,slack_0,slack_1"

    def test_reproducible_csv(self, small_instance, base_hp):
        oracle = solve_active_set(small_instance)
        plan = ExperimentPlan(
            instance=small_instance, hp=base_hp(omega=0.05), iters=40, init_mode="at_demand",
            x0_offset=np.array([3.0, 3.0]),
        )
        a = run_experiment(plan, oracle).csv_text()
        b = run_experiment(plan, oracle).csv_text()
        assert a == b

    def test_csv_floats_use_17_significant_digits(self, small_instance, base_hp):
        trace = run_experiment(
            ExperimentPlan(
                instance=small_instance, hp=base_hp(omega=0.05), iters=2, init_mode="at_demand",
                x0_offset=np.array([1.0, 1.0]),
            ),
            solve_active_set(small_instance),
        )
        line = trace.csv_text().splitlines()[1]
        fields = line.split(",")
        # every float field round-trips exactly
        parsed = [float(f) for f in fields[1:]]
        assert parsed[0] == trace.gap[0]
        assert parsed[1] == trace.violation_l1[0]
        assert parsed[2] == trace.slack[0][0] and parsed[3] == trace.slack[0][1]

    def test_plan_builds_its_start_state(self, small_instance, base_hp):
        hp, offset = base_hp(omega=0.05), np.array([3.0, -1.0])
        event = DisturbanceEvent(at_iteration=5, additive=np.ones(2))
        plan = ExperimentPlan(instance=small_instance, hp=hp, iters=20, x0_offset=offset, disturbances=(event,))
        direct = init_state(small_instance, hp, "at_demand", x0_offset=offset)
        assert plan.start.k == direct.k
        for name in ("x", "x_prime", "y", "lam", "delta", "Ax", "Ax_prime"):
            assert getattr(plan.start, name).tobytes() == getattr(direct, name).tobytes(), name
            assert not getattr(plan.start, name).flags.writeable, name
        # derived, so a caller can neither pass nor replace it
        with pytest.raises(TypeError):
            ExperimentPlan(instance=small_instance, hp=hp, iters=20, start=direct)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.start = direct
        # every run starts from the same state: a disturbance does not reach into it
        first, second = run_experiment(plan), run_experiment(plan)
        assert first.csv_text() == second.csv_text()
        assert first.final_state.x.tobytes() == second.final_state.x.tobytes()
        assert plan.start.x.tobytes() == direct.x.tobytes()

    def test_disturbance_beyond_horizon_rejected(self, small_instance, base_hp):
        with pytest.raises(ConfigError):
            ExperimentPlan(
                instance=small_instance,
                hp=base_hp(),
                iters=10,
                init_mode="at_demand",
                disturbances=(DisturbanceEvent(at_iteration=10, additive=np.zeros(2)),),
            )

    def test_plan_validation(self, small_instance, base_hp):
        with pytest.raises(ConfigError):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=0)
        with pytest.raises(ConfigError):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, record_every=0)
        # an agent the instance lacks is rejected before the run, not when the disturbance fires
        far = DisturbanceEvent(at_iteration=3, additive=np.ones(2), agent_ids=(small_instance.n,))
        with pytest.raises(ConfigError, match="agent ids outside"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, disturbances=(far,))
        with pytest.raises(ConfigError, match="unknown mode 'both'"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, mode="both")
        # x0 is read only by the custom init, so elsewhere it is an error rather than ignored
        x0 = np.full((small_instance.n, small_instance.p), 1e3)
        with pytest.raises(ConfigError, match="only read by init mode 'custom', not 'at_demand'"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, x0=x0)
        with pytest.raises(ConfigError, match="needs x0"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, init_mode="custom")
        # iteration numbers are whole: a fraction would never fire, or skip recorded rows
        with pytest.raises(ConfigError, match="at_iteration must be a whole number, got 10.5"):
            DisturbanceEvent(at_iteration=10.5, additive=np.ones(2))
        with pytest.raises(ConfigError, match="iters must be a whole number, got 10.5"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=10.5)
        with pytest.raises(ConfigError, match="record_every must be a whole number, got 1.5"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=10, record_every=1.5)
        for bad in (True, "3", None, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="whole number"):
                ExperimentPlan(instance=small_instance, hp=base_hp(), iters=10, record_every=bad)
        event = DisturbanceEvent(at_iteration=np.int64(3), additive=np.ones(2))
        plan = ExperimentPlan(
            instance=small_instance, hp=base_hp(), iters=np.int32(10), record_every=2.0, disturbances=(event,)
        )
        assert type(event.at_iteration) is type(plan.iters) is type(plan.record_every) is int
        assert run_experiment(plan).ks.tolist() == [2, 4, 6, 8, 10]

    def test_equality_mode_residual_contracts(self, base_hp):
        inst = generate_instance(101, 10, 20.0, 6)
        hp = HyperParams(
            alpha=0.02974, beta=0.27, eta=0.07, gamma=0.8922,
            buffer=BufferSchedule.constant(0.0),
        )
        trace = run_experiment(
            ExperimentPlan(instance=inst, hp=hp, iters=60, mode=EQUALITY, init_mode="zero"),
            solve_equality(inst),
        )
        s = trace.slack
        rel = np.abs(s[1:] - (1 - hp.gamma) * s[:-1]).max(axis=1) / (
            1 + np.abs(s[:-1]).max(axis=1)
        )
        assert rel.max() <= 1e-9

    def test_wallclock_recorded(self, small_instance, base_hp):
        trace = run_experiment(
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, init_mode="at_demand")
        )
        assert trace.wallclock_per_iteration > 0
