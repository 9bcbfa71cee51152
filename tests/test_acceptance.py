"""End-to-end acceptance suite.

Each test prints one line summarizing the measured quantity against its
threshold; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
Long runs are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    BufferSchedule,
    DisturbanceEvent,
    ExperimentPlan,
    HyperParams,
    bounds_report,
    generate_instance,
    init_state,
    iterate,
    recovery_iteration,
    run_experiment,
    slack_sum,
    solve_active_set,
    solve_equality,
    spectral_constants,
    validate_hyperparams,
    violation_l1,
)
from danyra.cli import PRESETS, main, parse_config

from conftest import rebuild
from reference_oracle import kkt_residuals, reference_projected_gradient
from reference_step import state_difference

BENCH = PRESETS["fig2"]["instance"]["generate"]
GAMMA = 0.2
OFFSET = np.array([50.0, 50.0])


def hp_with(buffer):
    return HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=GAMMA, buffer=buffer)


@pytest.fixture(scope="module")
def bench():
    return generate_instance(BENCH["seed"], BENCH["n"], BENCH["r_max"], BENCH["extra_edges"])


@pytest.fixture(scope="module")
def oracle(bench):
    return solve_active_set(bench)


@pytest.fixture(scope="module")
def constants(bench):
    return spectral_constants(bench)


@pytest.fixture(scope="module")
def feasible_run(bench, oracle):
    plan = ExperimentPlan(
        instance=bench, hp=hp_with(BufferSchedule.constant(0.0)), iters=2000,
        init_mode="at_demand",
    )
    start = time.perf_counter()
    trace = run_experiment(plan, oracle)
    return trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig2_trace(bench, oracle):
    plan = ExperimentPlan(
        instance=bench,
        hp=hp_with(BufferSchedule.constant(0.0)),
        iters=20000,
        init_mode="at_demand",
        disturbances=(DisturbanceEvent(at_iteration=500, additive=OFFSET),),
    )
    return run_experiment(plan, oracle)


@pytest.fixture(scope="module")
def decaying_trace(bench, oracle):
    plan = ExperimentPlan(
        instance=bench,
        hp=hp_with(BufferSchedule.decaying(5.0)),
        iters=20000,
        init_mode="at_demand",
        x0_offset=OFFSET,
    )
    return run_experiment(plan, oracle)


@pytest.fixture(scope="module")
def sweep_runs(bench, oracle):
    runs = {}
    for omega in (0.01, 0.1, 1.0):
        hp = hp_with(BufferSchedule.constant(omega))
        initial = init_state(bench, hp, "at_demand", x0_offset=OFFSET)
        plan = ExperimentPlan(
            instance=bench, hp=hp, iters=8000, init_mode="at_demand", x0_offset=OFFSET
        )
        start = time.perf_counter()
        trace = run_experiment(plan, oracle)
        elapsed = time.perf_counter() - start
        runs[omega] = {
            "trace": trace,
            "elapsed": elapsed,
            "C0": violation_l1(bench, initial),
            "hp": hp,
        }
    return runs


@pytest.fixture(scope="module")
def equality_setup():
    gen = PRESETS["equality"]["instance"]["generate"]
    inst = generate_instance(gen["seed"], gen["n"], gen["r_max"], gen["extra_edges"])
    hp_keys = PRESETS["equality"]["hp"]
    hp = HyperParams(
        alpha=hp_keys["alpha"], beta=hp_keys["beta"], eta=hp_keys["eta"], gamma=hp_keys["gamma"],
        buffer=BufferSchedule.constant(0.0),
    )
    sol = solve_equality(inst)
    plan = ExperimentPlan(instance=inst, hp=hp, iters=50000, mode=EQUALITY, init_mode="zero")
    trace = run_experiment(plan, sol)
    return inst, hp, sol, trace


def pair_recursion_defect(trace, gamma, skip_ks=()):
    """Worst relative defect of s_{k+1} = (1-gamma) s_k over consecutive rows."""
    s, ks = trace.slack, trace.ks
    worst = 0.0
    for idx in range(len(ks) - 1):
        if ks[idx + 1] != ks[idx] + 1 or ks[idx + 1] in skip_ks:
            continue
        defect = np.max(np.abs(s[idx + 1] - (1 - gamma) * s[idx]))
        worst = max(worst, defect / (1 + np.max(np.abs(s[idx]))))
    return worst


def test_c01_anytime_feasibility(feasible_run):
    trace, elapsed = feasible_run
    worst = float(trace.violation_l1.max())
    assert len(trace.ks) == 2000
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"criterion 1 PASS: max violation {worst:.2e} <= 1e-12 over 2000 iterations "
          f"({elapsed:.2f}s < 5s)")


def test_c02_geometric_slack_recursion(feasible_run, fig2_trace, decaying_trace, sweep_runs):
    defects = {
        "feasible": pair_recursion_defect(feasible_run[0], GAMMA),
        "fig2": pair_recursion_defect(fig2_trace, GAMMA, skip_ks={501}),  # injection pair exempt
        "decaying": pair_recursion_defect(decaying_trace, GAMMA),
        "omega=0.1": pair_recursion_defect(sweep_runs[0.1]["trace"], GAMMA),
    }
    worst = max(defects.values())
    assert worst <= 1e-9
    print(f"criterion 2 PASS: worst slack-recursion defect {worst:.2e} <= 1e-9 "
          f"across {len(defects)} runs")


def test_c03_exact_convergence(fig2_trace, decaying_trace):
    fig2_gap = float(fig2_trace.gap.min())
    fig2_first = int(fig2_trace.ks[np.flatnonzero(fig2_trace.gap <= 1e-6)][0])
    decay_gap = float(decaying_trace.gap[-1])
    assert fig2_gap <= 1e-6
    assert decay_gap <= 1e-6
    print(f"criterion 3 PASS: fig2 gap {fig2_trace.gap[-1]:.2e} (first <=1e-6 at k={fig2_first}), "
          f"decaying-buffer gap {decay_gap:.2e} <= 1e-6 within 20000 iterations")


def test_c04_finite_time_recovery_bound(bench, sweep_runs):
    total = 0.0
    lines = []
    for omega, data in sweep_runs.items():
        C0, n = data["C0"], bench.n
        bound = math.ceil(math.log(n * omega / C0) / math.log(1 - GAMMA))
        measured = recovery_iteration(data["trace"])
        total += data["elapsed"]
        assert measured is not None and measured <= bound
        lines.append(f"w={omega}: {measured}<={bound}")
    assert total < 10.0
    print(f"criterion 4 PASS: recovery within bound ({'; '.join(lines)}); "
          f"runtime {total:.2f}s < 10s")


def test_c05_one_step_absorption(bench):
    omega = 0.1
    hp = hp_with(BufferSchedule.constant(omega))
    state = init_state(bench, hp, "at_demand")
    target = 0.9 * bench.n * omega / (1 - GAMMA)
    bump = np.linalg.solve(bench.A[0], target - slack_sum(bench, state))
    x, x_prime = state.x.copy(), state.x_prime.copy()
    x[0] += bump
    x_prime[0] += bump
    state = rebuild(bench, state, x=x, x_prime=x_prime)
    assert np.allclose(slack_sum(bench, state), target)
    before = violation_l1(bench, state)
    assert before > 0  # genuinely violated before the absorbing step
    worst = 0.0
    for _ in range(501):
        state = iterate(state, bench, hp)
        worst = max(worst, violation_l1(bench, state))
    assert worst <= 1e-12
    print(f"criterion 5 PASS: violation {before:.3f} at slack 0.9*n*w/(1-gamma) absorbed in "
          f"one iteration and stayed <= {worst:.2e} for 500 more")


def test_c06_steady_state_accuracy_bound(bench, constants, sweep_runs):
    lines = []
    for omega, data in sweep_runs.items():
        bound = bounds_report(constants, data["hp"], bench.n, data["C0"]).accuracy_bound
        final_norm = math.sqrt(data["trace"].gap[-1])
        assert final_norm <= bound * 1.05
        squared_ok = data["trace"].gap[-1] <= bound  # squared-form variant, informational
        lines.append(f"w={omega}: |x-x*|={final_norm:.3e}<={bound * 1.05:.3e} (sq-form {squared_ok})")
    print(f"criterion 6 PASS: {'; '.join(lines)}")


def test_c07_tradeoff_monotonicity(sweep_runs):
    omegas = sorted(sweep_runs)
    recoveries = [recovery_iteration(sweep_runs[w]["trace"]) for w in omegas]
    gaps = [float(sweep_runs[w]["trace"].gap[-1]) for w in omegas]
    assert all(a >= b for a, b in zip(recoveries, recoveries[1:]))
    assert all(a <= b for a, b in zip(gaps, gaps[1:]))
    print(f"criterion 7 PASS: recovery nonincreasing {recoveries}, "
          f"final gap nondecreasing {[f'{g:.2e}' for g in gaps]}")


def test_c08_equality_linear_rate(equality_setup):
    inst, hp, _, trace = equality_setup
    report = validate_hyperparams(hp, spectral_constants(inst), EQUALITY)
    assert report.all_passed and report.theta_prime < 1

    gap, ks = trace.gap, trace.ks
    below = ks[np.flatnonzero(gap <= 1e-8)]
    assert below.size and below[0] <= 50000

    start = int(np.flatnonzero(gap <= gap[0] * 1e-2)[0])
    floor_hits = np.flatnonzero(gap <= 1e-22)
    stop = int(floor_hits[0]) if floor_hits.size else len(gap) - 1
    window_k = ks[start : stop + 1].astype(float)
    window_log = np.log(gap[start : stop + 1])
    design = np.vstack([window_k, np.ones_like(window_k)]).T
    coef, residual, *_ = np.linalg.lstsq(design, window_log, rcond=None)
    slope = coef[0]
    r2 = 1 - float(residual[0]) / float(np.sum((window_log - window_log.mean()) ** 2))
    contraction = float(
        (gap[stop] / gap[start]) ** (1.0 / (window_k[-1] - window_k[0]))
    )
    assert slope < 0
    assert r2 >= 0.98
    assert contraction <= 1 - 1e-5
    print(f"criterion 8 PASS: theta'={report.theta_prime:.6f}, gap<=1e-8 at k={int(below[0])}, "
          f"log-gap slope {slope:.2e} (R^2={r2:.4f}), contraction {contraction:.6f} <= 1-1e-5")


def test_c09_equality_feasibility_invariance(equality_setup):
    inst, hp, _, trace = equality_setup
    defect = pair_recursion_defect(trace, hp.gamma)
    assert defect <= 1e-9
    resid = np.abs(trace.slack).max(axis=1)
    first_zero = int(np.flatnonzero(resid <= 1e-9)[0])
    assert np.all(resid[first_zero:] <= 1e-9)
    print(f"criterion 9 PASS: residual contraction defect {defect:.2e} <= 1e-9; "
          f"residual <= 1e-9 from k={int(trace.ks[first_zero])} onward")


def test_c10_oracle_cross_validation():
    rng = np.random.default_rng(2024)
    worst_dx, worst_kkt = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        inst = generate_instance(
            int(rng.integers(1, 100_000)), n, float(rng.uniform(2.0, 40.0)), 0
        )
        a = solve_active_set(inst)
        b = reference_projected_gradient(inst)
        worst_dx = max(worst_dx, float(np.max(np.abs(a.x_star - b.x_star))))
        for sol in (a, b):
            worst_kkt = max(worst_kkt, max(kkt_residuals(inst, sol).values()))
    assert worst_dx <= 1e-7
    assert worst_kkt <= 1e-8
    print(f"criterion 10 PASS: oracle agreement {worst_dx:.2e} <= 1e-7, "
          f"KKT residuals {worst_kkt:.2e} <= 1e-8 on 20 instances")


def test_c11_fixed_point_stationarity(bench, fig2_trace):
    state = fig2_trace.final_state
    moved = iterate(state, bench, hp_with(BufferSchedule.constant(0.0)))
    movement = state_difference(moved, state)
    assert movement <= 1e-9
    print(f"criterion 11 PASS: one extra iteration after convergence moves fields by "
          f"{movement:.2e} <= 1e-9")


def test_c12_determinism(tmp_path, fig2_trace):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--preset", "fig2", "--iters", "700", "--out", str(out)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]
    wallclock = fig2_trace.wallclock_per_iteration
    print(f"criterion 12 PASS: byte-identical traces across reruns; "
          f"informational wall-clock {wallclock * 1e6:.1f}us/iteration")
