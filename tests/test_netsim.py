import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    BufferSchedule,
    ConfigError,
    DisturbanceEvent,
    DivergenceError,
    ExperimentPlan,
    HyperParams,
    InvalidInstanceError,
    apply_disturbance,
    generate_instance,
    init_state,
    iterate,
    recovery_iteration,
    run_experiment,
    slack_sum,
    solve_active_set,
)
from danyra import netsim
from danyra.engine import SwarmState
from danyra.netsim import Trace

from conftest import randomize_state


class TestDisturbance:
    def test_zero_additive_leaves_state(self, small_instance, base_hp):
        st = randomize_state(small_instance, init_state(small_instance, base_hp(), "at_demand"), seed=1)
        before = copy.deepcopy(st)
        st = apply_disturbance(st, small_instance, DisturbanceEvent(at_iteration=1, additive=np.zeros(2)))
        assert np.array_equal(st.x, before.x) and np.array_equal(st.x_prime, before.x_prime)

    def test_every_agent_decisions_only(self, small_instance, base_hp):
        st = init_state(small_instance, base_hp(), "at_demand")
        before = copy.deepcopy(st)
        st = apply_disturbance(st, small_instance, DisturbanceEvent(at_iteration=1, additive=np.array([1.0, -2.0])))
        assert np.allclose(st.x - before.x, [1.0, -2.0])
        assert np.allclose(st.x_prime - before.x_prime, [1.0, -2.0])
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

    @pytest.mark.parametrize("additive", [[5.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]], ids=["one", "three", "row"])
    def test_additive_must_fit_the_instance(self, small_instance, base_hp, additive):
        # a (1,) vector would broadcast to every coordinate; only shape (p,) is a shift of each agent
        st = init_state(small_instance, base_hp(), "at_demand")
        with pytest.raises(ConfigError, match=r"additive must have shape \(2,\)"):
            apply_disturbance(st, small_instance, DisturbanceEvent(at_iteration=1, additive=additive))

    def test_event_validation(self):
        with pytest.raises(ConfigError, match="at_iteration must be >= 0, got -1"):
            DisturbanceEvent(at_iteration=-1, additive=np.ones(2))
        assert DisturbanceEvent(at_iteration=0, additive=np.ones(2)).at_iteration == 0  # a shifted start
        with pytest.raises(ConfigError):
            DisturbanceEvent(at_iteration=5, additive=np.array([np.inf, 0.0]))
        event = DisturbanceEvent(at_iteration=5, additive=[1, 2])
        assert event.additive.dtype == np.float64 and not event.additive.flags.writeable


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
            disturbances=(DisturbanceEvent(at_iteration=0, additive=np.array([3.0, 3.0])),),
        )
        a = run_experiment(plan, oracle).csv_text()
        b = run_experiment(plan, oracle).csv_text()
        assert a == b

    def test_csv_floats_use_17_significant_digits(self, small_instance, base_hp):
        trace = run_experiment(
            ExperimentPlan(
                instance=small_instance, hp=base_hp(omega=0.05), iters=2, init_mode="at_demand",
                disturbances=(DisturbanceEvent(at_iteration=0, additive=np.array([1.0, 1.0])),),
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
        hp = base_hp(omega=0.05)
        shifts = [DisturbanceEvent(at_iteration=0, additive=v) for v in ([3.0, -1.0], [0.25, 2.0])]
        event = DisturbanceEvent(at_iteration=5, additive=np.ones(2))
        plan = ExperimentPlan(instance=small_instance, hp=hp, iters=20, disturbances=(shifts[0], event, shifts[1]))
        # the start carries every iteration-0 event, applied in order
        direct = init_state(small_instance, hp, "at_demand")
        for shift in shifts:
            direct = apply_disturbance(direct, small_instance, shift)
        assert plan.start.k == direct.k == 0
        for name in ("x", "x_prime", "y", "lam", "delta", "Ax", "z"):
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
        # a run applies each event once: the iteration-0 ones only through the start
        state = plan.start
        for _ in range(plan.iters):
            state = iterate(state, small_instance, hp)
            if state.k == event.at_iteration:
                state = apply_disturbance(state, small_instance, event)
        for name in ("x", "x_prime", "y", "lam", "delta"):
            assert getattr(first.final_state, name).tobytes() == getattr(state, name).tobytes(), name

    def test_non_finite_recorded_value_is_a_divergence(self, benchmark_instance, benchmark_oracle, base_hp):
        # a floor of 1e300 keeps the iterates finite, but the gap overflows to inf from the first row on
        shift = DisturbanceEvent(at_iteration=0, additive=np.array([50.0, 50.0]))
        plan = ExperimentPlan(instance=benchmark_instance, hp=base_hp(omega=1e300), iters=4, disturbances=(shift,))
        with pytest.raises(DivergenceError, match="^non-finite gap recorded at k = 1$") as exc:
            run_experiment(plan, benchmark_oracle)
        assert exc.value.k == 1
        assert np.all(np.isfinite(run_experiment(plan).violation_l1))  # without the gap column, nothing overflows

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_a_lost_run_stops_within_one_block_of_rows(
        self, benchmark_instance, benchmark_oracle, base_hp, monkeypatch, record_every
    ):
        # the same run over 20000 iterations: its recorded values are checked once every CSV_BLOCK_ROWS rows
        calls = []
        monkeypatch.setattr(netsim, "iterate", lambda *args: calls.append(None) or iterate(*args))
        shift = DisturbanceEvent(at_iteration=0, additive=np.array([50.0, 50.0]))
        hp = base_hp(omega=1e300)
        plan = ExperimentPlan(benchmark_instance, hp, 20000, disturbances=(shift,), record_every=record_every)
        with pytest.raises(DivergenceError, match=f"^non-finite gap recorded at k = {record_every}$") as exc:
            run_experiment(plan, benchmark_oracle)
        assert exc.value.k == record_every
        assert 0 < len(calls) <= netsim.CSV_BLOCK_ROWS * record_every

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
        # an additive the instance cannot take is rejected before the run, not when the disturbance fires
        wide = DisturbanceEvent(at_iteration=3, additive=np.ones(3))
        with pytest.raises(ConfigError, match=r"additive must have shape \(2,\)"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, disturbances=(wide,))
        with pytest.raises(ConfigError, match="unknown mode 'both'"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, mode="both")
        with pytest.raises(ConfigError, match="unknown init mode 'custom'"):
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, init_mode="custom")
        # what is not a sequence of events, or not a step-parameter set, is a typed error
        event = DisturbanceEvent(at_iteration=3, additive=np.ones(2))
        for bad in ({"at_iteration": 3, "additive": [1.0, 1.0]}, "3"):
            with pytest.raises(ConfigError, match="disturbances must be a sequence of DisturbanceEvent"):
                ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, disturbances=(bad,))
        for bad in (event, 3, None):
            with pytest.raises(ConfigError, match="disturbances must be a sequence of DisturbanceEvent"):
                ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, disturbances=bad)
        for bad in (None, {"alpha": 0.01}):
            with pytest.raises(InvalidInstanceError, match="hp must be a HyperParams"):
                ExperimentPlan(instance=small_instance, hp=bad, iters=5)
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

    @pytest.mark.parametrize(
        "buffer, zero",
        [
            (BufferSchedule.constant(0.5), False),
            (BufferSchedule.decaying(5.0), False),
            (BufferSchedule.sequence([1.0, 0.0]), False),
            (BufferSchedule.constant(0.0), True),
            (BufferSchedule.constant(-0.0), True),
            (BufferSchedule.sequence([0.0, -0.0]), True),
        ],
        ids=["constant", "decaying", "sequence", "zero", "negative-zero", "zero-sequence"],
    )
    def test_equality_plan_takes_only_a_zero_floor(self, small_instance, base_hp, buffer, zero):
        hp = dataclasses.replace(base_hp(), buffer=buffer)
        ExperimentPlan(instance=small_instance, hp=hp, iters=5)  # inequality mode reads any floor
        if zero:
            assert ExperimentPlan(instance=small_instance, hp=hp, iters=5, mode=EQUALITY).start.delta is None
        else:
            with pytest.raises(ConfigError, match="hp.buffer must be zero in equality mode, which has no queue, got"):
                ExperimentPlan(instance=small_instance, hp=hp, iters=5, mode=EQUALITY)

    def test_wallclock_recorded(self, small_instance, base_hp):
        trace = run_experiment(
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=5, init_mode="at_demand")
        )
        assert trace.wallclock_per_iteration > 0


class TestTraceStorage:
    """Rows go into columns allocated before the run, and trace.csv is written a block at a time."""

    def test_recording_keeps_no_per_row_objects(self, monkeypatch, small_instance, base_hp):
        # beyond its own columns, recording 4000 rows may hold no per-row Python
        # objects: a list entry, two boxed floats and a slack array came to
        # about 400 B a row.  The step only advances k (its state's products
        # are its own), so the traced time goes to recording.
        def advance(state, instance, hp):
            fields = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
            return SwarmState._with_products(**{**fields, "k": state.k + 1})

        monkeypatch.setattr(netsim, "iterate", advance)
        oracle = solve_active_set(small_instance)
        hp = base_hp(omega=0.05)
        run_experiment(ExperimentPlan(instance=small_instance, hp=hp, iters=2), oracle)  # lazy instance caches
        plan = ExperimentPlan(instance=small_instance, hp=hp, iters=4000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_experiment(plan, oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(a.nbytes for a in (trace.ks, trace.violation_l1, trace.slack, trace.gap))
        assert columns == 8 * (small_instance.m + 3) * len(trace.ks)
        assert (peak - before - columns) / len(trace.ks) < 64

    @pytest.mark.parametrize("with_gap", [False, True], ids=["no-gap", "gap"])
    @pytest.mark.parametrize("rows", [1, 3, 4, 7])
    def test_to_csv_is_csv_text_across_blocks(self, tmp_path, monkeypatch, small_instance, base_hp, rows, with_gap):
        monkeypatch.setattr(netsim, "CSV_BLOCK_ROWS", 3)
        oracle = solve_active_set(small_instance) if with_gap else None
        trace = run_experiment(ExperimentPlan(instance=small_instance, hp=base_hp(), iters=rows), oracle)
        whole = trace.csv_text()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_bytes() == whole.encode("utf-8")
        assert "".join(trace.csv_text(start, start + 3) for start in range(0, rows, 3)) == whole
        lines = whole.splitlines()
        assert len(lines) == rows + 1 and lines[0].startswith("k,") and lines.count(lines[0]) == 1
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, rows + 1))

    def test_hand_built_trace(self, tmp_path):
        trace = Trace(ks=[2, 5], violation_l1=[0.5, 0.0], slack=[[1.0, -2.0], [0.0, 0.25]], gap=None)
        assert trace.csv_text() == "k,violation_l1,slack_0,slack_1\n2,0.5,1,-2\n5,0,0,0.25\n"
        assert trace.csv_text(1) == "5,0,0,0.25\n"
        empty = Trace(ks=np.empty(0, dtype=int), violation_l1=np.empty(0), slack=np.empty((0, 2)), gap=None)
        empty.to_csv(tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text(encoding="utf-8") == "k,violation_l1,slack_0,slack_1\n"

    @pytest.mark.parametrize(
        "iters, record_every, ks", [(10, 4, [4, 8, 10]), (3, 5, [3]), (6, 3, [3, 6])], ids=["remainder", "one", "exact"]
    )
    def test_last_row_is_the_last_iteration(self, small_instance, base_hp, iters, record_every, ks):
        trace = run_experiment(
            ExperimentPlan(instance=small_instance, hp=base_hp(), iters=iters, record_every=record_every)
        )
        assert trace.ks.dtype == np.int64 and trace.ks.tolist() == ks
        assert trace.final_state.k == iters
        assert trace.violation_l1.shape == (len(ks),) and trace.slack.shape == (len(ks), small_instance.m)
        assert trace.slack[-1].tobytes() == slack_sum(small_instance, trace.final_state).tobytes()


def test_records_that_hold_arrays_compare_by_identity():
    # compared field by field, two records of equal arrays raise numpy's "truth value ... is ambiguous"
    def records():
        instance = generate_instance(1, 4, 8.0, 1)
        event = DisturbanceEvent(1, [1.0, 2.0])
        plan = ExperimentPlan(instance=instance, hp=HyperParams(0.01, 0.02, 0.1, 0.2), iters=3, disturbances=(event,))
        oracle = solve_active_set(instance)
        trace = run_experiment(plan, oracle)
        return [instance, instance.topology, event, plan, plan.start, oracle, trace]

    first, second = records(), records()
    for record, twin in zip(first, second):
        assert record == record and record != twin, type(record).__name__
    assert len(set(first + second)) == 2 * len(first)
