import math
import re

import numpy as np
import pytest

from danyra import (
    BufferSchedule,
    ConfigError,
    HyperParams,
    InvalidInstanceError,
    ProblemInstance,
    SpectralConstants,
    bounds_report,
    generate_instance,
    metropolis_weights,
    optimality_gap,
    recovery_iteration,
    slack_sum,
    solve_active_set,
    violation_l1,
)
from danyra.netsim import Trace

from conftest import state_at


def free_instance(n=2):
    """Identity couplings with zero demand: violation equals positive part of sums."""
    eye = np.tile(np.eye(2), (n, 1, 1))
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return ProblemInstance(
        A=eye, d=np.zeros((n, 2)), P=eye, Q=np.zeros((n, 2)), topology=metropolis_weights(adj)
    )


def trace_with(violations, ks=None):
    v = np.asarray(violations, dtype=float)
    ks = np.arange(1, len(v) + 1) if ks is None else np.asarray(ks)
    return Trace(ks=ks, violation_l1=v, slack=np.zeros((len(v), 2)), gap=None)


class TestPointMetrics:
    def test_violation_zero_when_feasible(self):
        inst = free_instance()
        x = -np.ones((2, 2))
        assert violation_l1(inst, state_at(inst, x)) == 0.0

    def test_violation_positive_part_l1(self):
        inst = free_instance()
        x = np.array([[1.0, -2.0], [1.0, 1.0]])  # sums to (2, -1)
        assert violation_l1(inst, state_at(inst, x)) == 2.0

    def test_violation_matches_dense_recomputation(self, benchmark_instance):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(14, 2)) * 10
        total = sum(A_i @ xi for A_i, xi in zip(benchmark_instance.A, x))
        expected = float(np.sum(np.maximum(total - benchmark_instance.demand_total, 0)))
        assert violation_l1(benchmark_instance, state_at(benchmark_instance, x)) == pytest.approx(expected, rel=1e-12)

    def test_gap_trivial_cases(self, benchmark_instance, benchmark_oracle):
        assert optimality_gap(benchmark_oracle.x_star, benchmark_oracle) == 0.0
        bumped = benchmark_oracle.x_star.copy()
        bumped[0, 0] += 1.0
        assert optimality_gap(bumped, benchmark_oracle) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "reshape, shape",
        [
            pytest.param(lambda x: x.T, r"\(2, 14\)", id="transposed"),
            pytest.param(lambda x: x.reshape(-1), r"\(28,\)", id="flat"),
            pytest.param(lambda x: x[:-1], r"\(13, 2\)", id="one-agent-short"),
        ],
    )
    def test_gap_needs_the_optimum_shape(self, benchmark_oracle, reshape, shape):
        # a transposed or flat decision has the optimum's entry count, and once read as its stack
        with pytest.raises(InvalidInstanceError, match=rf"^x must have shape \(14, 2\), got {shape}$"):
            optimality_gap(reshape(benchmark_oracle.x_star), benchmark_oracle)

    def test_slack_sum_cases(self):
        inst = free_instance()
        x = np.zeros((2, 2))
        assert np.array_equal(slack_sum(inst, state_at(inst, x, np.zeros((2, 2)))), [0.0, 0.0])
        assert np.allclose(slack_sum(inst, state_at(inst, x, np.full((2, 2), 0.3))), [0.6, 0.6])
        assert np.array_equal(slack_sum(inst, state_at(inst, x)), [0.0, 0.0])

    def test_slack_sum_matches_dense(self, benchmark_instance):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(14, 2))
        delta = rng.uniform(size=(14, 2))
        expected = (
            sum(A_i @ xi for A_i, xi in zip(benchmark_instance.A, x))
            + delta.sum(axis=0)
            - benchmark_instance.demand_total
        )
        assert np.max(np.abs(slack_sum(benchmark_instance, state_at(benchmark_instance, x, delta)) - expected)) <= 1e-12


class TestRecoveryIteration:
    def test_always_feasible_returns_from_k(self):
        tr = trace_with([0, 0, 0, 0])
        assert recovery_iteration(tr, from_k=0) == 1
        assert recovery_iteration(tr, from_k=3) == 3

    def test_requires_staying_zero(self):
        tr = trace_with([1.0, 0.0, 0.5, 0.0, 0.0])
        assert recovery_iteration(tr) == 4

    def test_never_recovered(self):
        tr = trace_with([1.0, 0.5, 0.25])
        assert recovery_iteration(tr) is None

    def test_respects_zero_tolerance(self):
        tr = trace_with([1.0, 5e-13, 5e-13])
        assert recovery_iteration(tr) == 2
        # above the 1e-12 rounding level a violation still counts
        assert recovery_iteration(trace_with([1.0, 2e-12, 5e-13])) == 3

    def test_zero_buffer_decays_geometrically_without_recovering(
        self, benchmark_instance, benchmark_oracle, base_hp
    ):
        # without a buffer floor the violation only contracts by 1-gamma per
        # step, so it never becomes exactly zero on a finite horizon
        from danyra import DisturbanceEvent, ExperimentPlan, run_experiment

        plan = ExperimentPlan(
            instance=benchmark_instance, hp=base_hp(omega=0.0), iters=150,
            init_mode="at_demand", disturbances=(DisturbanceEvent(at_iteration=0, additive=np.array([50.0, 50.0])),),
        )
        trace = run_experiment(plan, benchmark_oracle)
        v = trace.violation_l1
        assert v[-1] > 0.0
        ratios = v[1:] / v[:-1]
        clean = v[:-1] > 1e-3  # queues re-engage once the violation is tiny
        assert clean.sum() > 50
        assert np.max(np.abs(ratios[clean] - 0.8)) <= 1e-9


class TestBoundsReport:
    def sc(self):
        return SpectralConstants(
            ell=4.0, mu=1.0, sigma_A_max=1.5, sigma_A_min=0.5, sigma_L_max=1.4, sigma_L_min=0.2
        )

    def hp(self, omega, gamma=0.2):
        return HyperParams(
            alpha=0.01, beta=0.02, eta=0.1, gamma=gamma, buffer=BufferSchedule.constant(omega)
        )

    def test_recovery_bound_worked_example(self):
        report = bounds_report(self.sc(), self.hp(0.1), n=14, C_vio=14.0)
        assert report.recovery_bound_t == 11  # ceil(ln(1.4/14)/ln(0.8))

    def test_zero_buffer_limits(self):
        report = bounds_report(self.sc(), self.hp(0.0), n=14, C_vio=14.0)
        assert report.accuracy_bound == 0.0
        assert math.isinf(report.recovery_bound_t)
        assert report.tradeoff_rhs == 0.0
        assert not report.one_step_satisfied

    def test_one_step_flag(self):
        hp = self.hp(1.0)
        report = bounds_report(self.sc(), hp, n=14, C_vio=14.0 / 0.8 - 1.0)
        assert report.one_step_threshold == pytest.approx(14.0 / 0.8)
        assert report.one_step_satisfied
        assert report.recovery_bound_t >= 0

    def test_small_violation_recovers_immediately(self):
        report = bounds_report(self.sc(), self.hp(1.0), n=14, C_vio=10.0)
        assert report.recovery_bound_t == 0

    def test_gamma_domain(self):
        # the bounds divide by 1 - gamma and take log(1 - gamma); HyperParams is
        # what keeps every gamma that reaches bounds_report inside (0, 1)
        for gamma in (0.0, -0.2, 1.0, 1.5):
            with pytest.raises(ConfigError, match="gamma"):
                self.hp(0.1, gamma=gamma)
        assert bounds_report(self.sc(), self.hp(0.1, gamma=0.999), n=14, C_vio=1e3).recovery_bound_t > 0

    def test_negative_violation_rejected(self):
        with pytest.raises(InvalidInstanceError, match="C_vio must be nonnegative, got -1.0"):
            bounds_report(self.sc(), self.hp(0.1), n=14, C_vio=-1.0)

    @pytest.mark.parametrize(
        "n, C_vio, message",
        [
            pytest.param(14, math.nan, "need a whole n >= 1 and a finite C_vio, got n=14, C_vio=nan", id="C_vio-nan"),
            pytest.param(14, math.inf, "need a whole n >= 1 and a finite C_vio, got n=14, C_vio=inf", id="C_vio-inf"),
            pytest.param(14, "3", "C_vio must be a finite number, got '3'", id="C_vio-text"),
            pytest.param(14, True, "C_vio must be a finite number, got True", id="C_vio-boolean"),
            pytest.param(0, 1.0, "need a whole n >= 1 and a finite C_vio, got n=0, C_vio=1.0", id="n-zero"),
            pytest.param(2.5, 1.0, "n must be a whole number, got 2.5", id="n-fraction"),
            pytest.param("14", 1.0, "n must be a whole number, got '14'", id="n-text"),
            pytest.param(True, 1.0, "n must be a whole number, got True", id="n-boolean"),
        ],
    )
    def test_scalars_are_checked(self, n, C_vio, message):
        with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
            bounds_report(self.sc(), self.hp(0.1), n=n, C_vio=C_vio)

    def test_scalars_accept_numpy_numbers(self):
        report = bounds_report(self.sc(), self.hp(0.1), n=14, C_vio=14.0)
        assert bounds_report(self.sc(), self.hp(0.1), n=np.int64(14), C_vio=np.float32(14.0)) == report
        assert bounds_report(self.sc(), self.hp(0.1), n=14.0, C_vio=14) == report

    def test_tradeoff_monotonicity_in_buffer(self):
        sc = self.sc()
        omegas = [0.01, 0.05, 0.1, 0.5, 1.0, 2.0]
        reports = [bounds_report(sc, self.hp(w), n=14, C_vio=100.0) for w in omegas]
        recovery = [r.recovery_bound_t for r in reports]
        accuracy = [r.accuracy_bound for r in reports]
        assert all(a >= b for a, b in zip(recovery, recovery[1:]))
        assert all(a < b for a, b in zip(accuracy, accuracy[1:]))

    def test_accuracy_bound_formula(self):
        sc = self.sc()
        report = bounds_report(sc, self.hp(0.3), n=9, C_vio=0.0)
        assert report.accuracy_bound == pytest.approx(4.0 * 3 * 0.3 / (1.0 * 0.5))


class TestAgainstLiveRun:
    def test_gap_and_violation_consistency(self, benchmark_instance, benchmark_oracle, base_hp):
        from danyra import DisturbanceEvent, ExperimentPlan, run_experiment

        plan = ExperimentPlan(
            instance=benchmark_instance, hp=base_hp(omega=0.1), iters=50,
            init_mode="at_demand", disturbances=(DisturbanceEvent(at_iteration=0, additive=np.array([5.0, 5.0])),),
        )
        trace = run_experiment(plan, benchmark_oracle)
        state = trace.final_state
        assert trace.violation_l1[-1] == pytest.approx(
            violation_l1(benchmark_instance, state)
        )
        assert trace.gap[-1] == pytest.approx(optimality_gap(state.x, benchmark_oracle))
        assert np.allclose(
            trace.slack[-1], slack_sum(benchmark_instance, state)
        )
