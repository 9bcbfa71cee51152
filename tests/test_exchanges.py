"""Two neighbor exchanges per computed iteration: ``z + lam``, then the new ``y``.

``iterate`` reads the mixed auxiliaries ``y_bar = L y`` from the state (the
previous iteration's second exchange) and mixes ``z + lam`` as one message,
since ``L z + L lam = L (z + lam)``.  The first tests count the calls to
``Topology.mix``: two per computed ``iterate`` and one per
``SwarmState.build``, on both mix branches and in both modes.  A step that
reuses a fixed state (see ``danyra.engine``) makes none; ``test_fixed_point``
counts those.  The others run ``run_experiment`` beside
``reference_step.reference_iterate_four_exchanges`` (the step that mixed
``lam``, ``y``, ``z`` and the new ``y``) for 3000 iterations, on the fig2
instance with its k=500 disturbance and on a 601-agent instance: every
recorded column must agree within the artifact check's tolerances
(``perfbench/check.py``), and the recovery iteration must be the same.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    INEQUALITY,
    BufferSchedule,
    DisturbanceEvent,
    ExperimentPlan,
    HyperParams,
    apply_disturbance,
    generate_instance,
    init_state,
    iterate,
    optimality_gap,
    recovery_iteration,
    run_experiment,
    solve_active_set,
    solve_equality,
)
from danyra.netsim import Trace

from reference_step import (
    reference_copy,
    reference_disturb,
    reference_iterate_four_exchanges,
    reference_slack_sum,
    reference_violation_l1,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import check  # noqa: E402  (perfbench/check.py: the artifact check's tolerances)

ITERS = 3000
DISTURBANCE_K = 500


@pytest.fixture(scope="module", params=[14, 601], ids=["dense-mix-14", "segment-sum-601"])
def instance(request):
    n = request.param
    return generate_instance(3, n, 70.0, 2 * n)


@pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
def test_two_mixes_per_iterate_and_one_per_build(instance, base_hp, counted_mix, mode):
    hp = base_hp(0.1)
    state = init_state(instance, hp, mode=mode)
    assert len(counted_mix) == 1
    for _ in range(3):
        counted_mix.clear()
        state = iterate(state, instance, hp)
        assert len(counted_mix) == 2
    counted_mix.clear()
    apply_disturbance(state, instance, DisturbanceEvent(at_iteration=3, additive=[1.0, 1.0]))
    assert len(counted_mix) == 1


def four_exchange_trace(plan: ExperimentPlan, oracle) -> Trace:
    """``run_experiment``'s rows, stepped by the four-exchange kernel."""
    instance, hp = plan.instance, plan.hp
    state = reference_copy(plan.start)
    viols, slacks, gaps = [], [], []
    for _ in range(plan.iters):
        for event in plan.disturbances:
            if event.at_iteration == state.k:
                state = reference_disturb(state, event)
        state = reference_iterate_four_exchanges(state, instance, hp)
        viols.append(reference_violation_l1(instance, state.x))
        slacks.append(reference_slack_sum(instance, state.x, state.delta))
        gaps.append(optimality_gap(state.x, oracle))
    return Trace(
        ks=np.arange(1, plan.iters + 1),
        violation_l1=np.array(viols),
        slack=np.stack(slacks),
        gap=np.array(gaps),
    )


def columns(trace: Trace) -> dict[str, np.ndarray]:
    out = {"gap": trace.gap, "violation_l1": trace.violation_l1}
    out.update({f"slack_{j}": col for j, col in enumerate(trace.slack.T)})
    return out


def assert_close_to_four_exchanges(instance, hp, mode, disturbances=()):
    plan = ExperimentPlan(instance=instance, hp=hp, iters=ITERS, mode=mode, disturbances=disturbances)
    oracle = solve_active_set(instance) if mode == INEQUALITY else solve_equality(instance)
    new = run_experiment(plan, oracle)
    old = four_exchange_trace(plan, oracle)
    assert list(new.ks) == list(old.ks)
    got_columns = columns(new)
    for column, expected in columns(old).items():
        got = got_columns[column]
        if column == "gap":  # compared as distances, sqrt(gap), as the artifact check does
            got, expected, atol = np.sqrt(got), np.sqrt(expected), check.DISTANCE_ATOL
        else:
            atol = check.ATOL_SHARE * max(1.0, float(np.max(np.abs(expected))))
        assert np.all(np.isfinite(got)), column
        assert np.all(np.abs(got - expected) <= check.RTOL * np.abs(expected) + atol), column
    assert recovery_iteration(new) == recovery_iteration(old)
    return recovery_iteration(new)


@pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
def test_fig2_instance_agrees_with_four_exchanges(benchmark_instance, mode):
    # the fig2 preset's instance, step sizes and disturbance
    hp = HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2, buffer=BufferSchedule.constant(0.0))
    event = DisturbanceEvent(at_iteration=DISTURBANCE_K, additive=[50.0, 50.0])
    recovery = assert_close_to_four_exchanges(benchmark_instance, hp, mode, (event,))
    assert recovery is not None and recovery > DISTURBANCE_K


@pytest.mark.parametrize("mode", [INEQUALITY, EQUALITY])
def test_segment_sum_instance_agrees_with_four_exchanges(mode):
    instance = generate_instance(1534, 601, 70.0, 1202)
    hp = HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2, buffer=BufferSchedule.constant(0.1))
    assert assert_close_to_four_exchanges(instance, hp, mode) is not None
