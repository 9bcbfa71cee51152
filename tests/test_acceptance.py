"""End-to-end acceptance suite.

Each test prints one line summarizing the measured quantity against its
threshold; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
Long runs are shared through module-scoped fixtures.  Each runs a preset's
plan as ``danyra run`` builds it (``conftest.preset_plans``), with the edits
its fixture names, against the oracle and spectral constants of
``conftest.py``'s session fixtures.
"""

import math
import time

import numpy as np
import pytest

from danyra import (
    EQUALITY,
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
from danyra.cli import main
from danyra.theory import largest_violation

from conftest import preset_plans, rebuild
from reference_oracle import kkt_residuals, reference_projected_gradient
from reference_step import state_difference


@pytest.fixture(scope="module")
def feasible_run(benchmark_oracle):
    """``(plan, trace, seconds)``: fig2 from its feasible start, with no disturbance, for 2000 iterations."""
    _, (plan,), _ = preset_plans("fig2", iters=2000, disturbances=[])
    start = time.perf_counter()
    trace = run_experiment(plan, benchmark_oracle)
    return plan, trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig2_run(benchmark_oracle):
    """``(plan, trace)`` of the fig2 preset."""
    _, (plan,), _ = preset_plans("fig2")
    return plan, run_experiment(plan, benchmark_oracle)


@pytest.fixture(scope="module")
def decaying_run(benchmark_oracle):
    """``(plan, trace)`` of buffer-sweep's decaying member, its last."""
    _, plans, _ = preset_plans("buffer-sweep")
    return plans[-1], run_experiment(plans[-1], benchmark_oracle)


@pytest.fixture(scope="module")
def sweep_runs(benchmark_oracle, benchmark_constants):
    """buffer-sweep's constant members at 8000 iterations, by omega, each with the bounds ``danyra run`` writes."""
    instance, plans, _ = preset_plans("buffer-sweep", iters=8000)
    runs = {}
    for plan in plans[:3]:
        start = time.perf_counter()
        trace = run_experiment(plan, benchmark_oracle)
        elapsed = time.perf_counter() - start
        C_vio, _ = largest_violation(violation_l1(instance, plan.start), trace)
        bounds = bounds_report(benchmark_constants, plan.hp, instance.n, C_vio)
        runs[plan.hp.buffer.limit] = {"plan": plan, "trace": trace, "elapsed": elapsed, "bounds": bounds}
    return runs


@pytest.fixture(scope="module")
def equality_setup():
    """``(plan, trace)`` of the equality preset with every row recorded (it records every 5th), for c09's pairs."""
    instance, (plan,), _ = preset_plans("equality", record_every=1)
    return plan, run_experiment(plan, solve_equality(instance))


def pair_recursion_defect(plan, trace):
    """Worst relative defect of s_{k+1} = (1-gamma) s_k over consecutive rows, bar each disturbance's jump.

    A trace with no such pair of rows fails.
    """
    s, ks = trace.slack, trace.ks
    jumps = [event.at_iteration + 1 for event in plan.disturbances]
    pairs = (ks[1:] == ks[:-1] + 1) & ~np.isin(ks[1:], jumps)
    assert pairs.any(), "no two consecutive rows to compare"
    defects = np.abs(s[1:] - (1 - plan.hp.gamma) * s[:-1]).max(axis=1) / (1 + np.abs(s[:-1]).max(axis=1))
    return float(defects[pairs].max())


def test_c01_anytime_feasibility(feasible_run):
    _, trace, elapsed = feasible_run
    worst = float(trace.violation_l1.max())
    assert len(trace.ks) == 2000
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"criterion 1 PASS: max violation {worst:.2e} <= 1e-12 over 2000 iterations "
          f"({elapsed:.2f}s < 5s)")


def test_c02_geometric_slack_recursion(feasible_run, fig2_run, decaying_run, sweep_runs):
    runs = {"feasible": feasible_run[:2], "fig2": fig2_run, "decaying": decaying_run}
    runs["omega=0.1"] = sweep_runs[0.1]["plan"], sweep_runs[0.1]["trace"]
    defects = {name: pair_recursion_defect(*run) for name, run in runs.items()}
    worst = max(defects.values())
    assert worst <= 1e-9
    print(f"criterion 2 PASS: worst slack-recursion defect {worst:.2e} <= 1e-9 "
          f"across {len(defects)} runs")


def test_c03_exact_convergence(fig2_run, decaying_run):
    fig2_trace, decaying_trace = fig2_run[1], decaying_run[1]
    fig2_gap = float(fig2_trace.gap.min())
    fig2_first = int(fig2_trace.ks[np.flatnonzero(fig2_trace.gap <= 1e-6)][0])
    decay_gap = float(decaying_trace.gap[-1])
    assert fig2_gap <= 1e-6
    assert decay_gap <= 1e-6
    print(f"criterion 3 PASS: fig2 gap {fig2_trace.gap[-1]:.2e} (first <=1e-6 at k={fig2_first}), "
          f"decaying-buffer gap {decay_gap:.2e} <= 1e-6 within 20000 iterations")


def test_c04_finite_time_recovery_bound(sweep_runs):
    total = 0.0
    lines = []
    for omega, data in sweep_runs.items():
        bound = data["bounds"].recovery_bound_t  # bounds.json's, at the largest violation the run faced
        measured = recovery_iteration(data["trace"])
        total += data["elapsed"]
        assert measured is not None and measured <= bound
        lines.append(f"w={omega}: {measured}<={bound:g}")
    assert total < 10.0
    print(f"criterion 4 PASS: recovery within bound ({'; '.join(lines)}); "
          f"runtime {total:.2f}s < 10s")


def test_c05_one_step_absorption():
    instance, plans, labels = preset_plans("buffer-sweep")
    hp = plans[labels.index("omega-0.1")].hp
    state = init_state(instance, hp, "at_demand")
    target = 0.9 * instance.n * hp.buffer.limit / (1 - hp.gamma)
    bump = np.linalg.solve(instance.A[0], target - slack_sum(instance, state))
    x, x_prime = state.x.copy(), state.x_prime.copy()
    x[0] += bump
    x_prime[0] += bump
    state = rebuild(instance, state, x=x, x_prime=x_prime)
    assert np.allclose(slack_sum(instance, state), target)
    before = violation_l1(instance, state)
    assert before > 0  # genuinely violated before the absorbing step
    worst = 0.0
    for _ in range(501):
        state = iterate(state, instance, hp)
        worst = max(worst, violation_l1(instance, state))
    assert worst <= 1e-12
    print(f"criterion 5 PASS: violation {before:.3f} at slack 0.9*n*w/(1-gamma) absorbed in "
          f"one iteration and stayed <= {worst:.2e} for 500 more")


def test_c06_steady_state_accuracy_bound(sweep_runs):
    lines = []
    for omega, data in sweep_runs.items():
        bound = data["bounds"].accuracy_bound
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
    plan, trace = equality_setup
    report = validate_hyperparams(plan.hp, spectral_constants(plan.instance), EQUALITY)
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
    plan, trace = equality_setup
    defect = pair_recursion_defect(plan, trace)
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


def test_c11_fixed_point_stationarity(fig2_run):
    plan, trace = fig2_run
    state = trace.final_state
    moved = iterate(state, plan.instance, plan.hp)
    movement = state_difference(moved, state)
    assert movement <= 1e-9
    print(f"criterion 11 PASS: one extra iteration after convergence moves fields by "
          f"{movement:.2e} <= 1e-9")


def test_c12_determinism(tmp_path, fig2_run):
    trace = fig2_run[1]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--preset", "fig2", "--iters", "700", "--out", str(out)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1] == trace.csv_text(0, 700).encode()  # the CLI's run is the one c02, c03 and c11 check
    wallclock = trace.wallclock_per_iteration
    print(f"criterion 12 PASS: byte-identical traces across reruns and to the fig2 run's first 700 rows; "
          f"informational wall-clock {wallclock * 1e6:.1f}us/iteration")
