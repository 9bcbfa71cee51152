import numpy as np
import pytest

from danyra import (
    EQUALITY,
    BufferSchedule,
    CallableCost,
    ConfigError,
    DisturbanceEvent,
    DivergenceError,
    ExperimentPlan,
    HyperParams,
    InvalidInstanceError,
    ProblemInstance,
    generate_instance,
    init_state,
    iterate,
    metropolis_weights,
    slack_sum,
)
from danyra.engine import SwarmState

from conftest import randomize_state, rebuild
from reference_step import (
    AgentData,
    AgentMessages,
    AgentState,
    agent_data,
    agent_state,
    exchange_primary,
    project_affine,
    project_decision,
    step_auxiliary,
    step_dual,
    step_virtual_decision,
    step_virtual_queue,
    state_difference,
)


def pair_instance(A=np.eye(2), d=(1.0, 2.0)):
    """Two identical agents with unit quadratic costs; identity couplings by default."""
    top = metropolis_weights(np.array([[0, 1], [1, 0]], dtype=bool))
    return ProblemInstance(
        A=np.tile(A, (2, 1, 1)),
        d=np.tile(d, (2, 1)),
        P=np.tile(np.eye(2), (2, 1, 1)),
        Q=np.zeros((2, 2)),
        topology=top,
    )


def agent_view(x=None, x_prime=None, y=None, lam=None, delta=None, projector=None):
    z2 = np.zeros(2)
    return AgentState(
        x=z2 if x is None else np.asarray(x, dtype=float),
        x_prime=z2 if x_prime is None else np.asarray(x_prime, dtype=float),
        y=z2 if y is None else np.asarray(y, dtype=float),
        lam=z2 if lam is None else np.asarray(lam, dtype=float),
        delta=delta if delta is None else np.asarray(delta, dtype=float),
        projector=np.eye(2) if projector is None else projector,
    )


def messages(z=None, z_bar=None, lambda_bar=None, y_bar=None, y_bar_next=None, d_bar=None):
    z2 = np.zeros(2)
    return AgentMessages(
        lambda_bar=z2 if lambda_bar is None else np.asarray(lambda_bar, dtype=float),
        y_bar=z2 if y_bar is None else np.asarray(y_bar, dtype=float),
        z=z2 if z is None else np.asarray(z, dtype=float),
        z_bar=z2 if z_bar is None else np.asarray(z_bar, dtype=float),
        d_bar=z2 if d_bar is None else np.asarray(d_bar, dtype=float),
        y_bar_next=y_bar_next if y_bar_next is None else np.asarray(y_bar_next, dtype=float),
    )


class TestInitState:
    def test_benchmark_init_is_demand_vector(self, benchmark_instance, base_hp):
        st = init_state(benchmark_instance, base_hp(), "at_demand")
        assert np.allclose(st.x, np.tile([5.0, 1.0 / 14.0], (14, 1)))
        assert np.array_equal(st.x, st.x_prime)
        assert np.all(st.y == 0) and np.all(st.lam == 0) and np.all(st.delta == 0)

    def test_zero_mode_with_buffer_floor(self, small_instance, base_hp):
        st = init_state(small_instance, base_hp(omega=0.3), "zero")
        assert np.all(st.x == 0) and np.all(st.x_prime == 0)
        assert np.all(st.delta == 0.3)

    def test_at_demand_identity_coupling(self, base_hp):
        inst = pair_instance()
        st = init_state(inst, base_hp(), "at_demand")
        assert np.allclose(st.x, [[1.0, 2.0], [1.0, 2.0]])

    def test_at_demand_wide_coupling_satisfies_demand(self, base_hp):
        inst = pair_instance(A=np.array([[1.0, 1.0]]), d=(4.0,))
        st = init_state(inst, base_hp(), "at_demand")
        assert np.allclose(st.x @ np.array([1.0, 1.0]), 4.0)

    @pytest.mark.parametrize(
        "init_mode, message",
        [
            pytest.param("warm", "unknown init mode 'warm'", id="unknown-init-mode"),
            pytest.param("custom", "unknown init mode 'custom'", id="custom-without-x0"),
        ],
    )
    def test_bad_start_inputs_are_config_errors(self, small_instance, base_hp, init_mode, message):
        with pytest.raises(ConfigError, match=message):
            init_state(small_instance, base_hp(), init_mode)

    @pytest.mark.parametrize("hp", [None, {"alpha": 0.01}], ids=["none", "dict"])
    def test_hp_must_be_hyperparams(self, small_instance, hp):
        with pytest.raises(InvalidInstanceError, match="hp must be a HyperParams"):
            init_state(small_instance, hp, "at_demand")

    def test_unknown_mode_is_a_config_error(self, small_instance, base_hp):
        with pytest.raises(ConfigError, match="unknown mode 'both'"):
            init_state(small_instance, base_hp(), "at_demand", mode="both")

    def test_offset_shifts_the_start(self, small_instance, base_hp):
        # a shifted start is a disturbance at iteration 0, applied to init_state's state by the plan
        shift = DisturbanceEvent(at_iteration=0, additive=[50.0, 50.0])
        st = ExperimentPlan(instance=small_instance, hp=base_hp(), iters=1, disturbances=(shift,)).start
        assert st.k == 0
        assert np.allclose(st.x - small_instance.d, 50.0)
        assert np.array_equal(st.x_prime, st.x)

    def test_equality_mode_has_no_queue(self, small_instance, base_hp):
        st = init_state(small_instance, base_hp(), "at_demand", mode=EQUALITY)
        assert st.delta is None and not hasattr(st, "mode")
        assert "mode" not in st.to_dict()


class TestExchange:
    def test_identical_agents_and_states_mix_to_zero(self, base_hp):
        inst = pair_instance()  # identical agents, so identical z as well
        st = init_state(inst, base_hp(omega=0.1), "at_demand")
        st = rebuild(inst, st, lam=np.full_like(st.lam, 0.7), y=np.full_like(st.y, -0.3))
        msgs = exchange_primary(st, inst)
        assert np.max(np.abs(msgs.lambda_bar)) <= 1e-12
        assert np.max(np.abs(msgs.y_bar)) <= 1e-12
        assert np.max(np.abs(msgs.z_bar)) <= 1e-12

    def test_two_agent_hand_computation(self, base_hp):
        inst = pair_instance()
        st = init_state(inst, base_hp(), "zero")
        lam = st.lam.copy()
        lam[0] = [1.0, 0.0]
        st = rebuild(inst, st, lam=lam)
        msgs = exchange_primary(st, inst)
        assert np.allclose(msgs.lambda_bar[0], [0.5, 0.0])
        assert np.allclose(msgs.lambda_bar[1], [-0.5, 0.0])

    def test_random_state_matches_dense_mixing(self, small_instance, base_hp):
        st = randomize_state(small_instance, init_state(small_instance, base_hp(omega=0.2), "at_demand"), seed=3)
        msgs = exchange_primary(st, small_instance)
        L = small_instance.topology.L
        z_dense = np.stack(
            [A_i @ st.x_prime[i] for i, A_i in enumerate(small_instance.A)]
        ) + L @ st.y + st.delta
        assert np.max(np.abs(msgs.z - z_dense)) <= 1e-12
        assert np.max(np.abs(msgs.z_bar - L @ z_dense)) <= 1e-12
        assert np.max(np.abs(msgs.z_bar.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(msgs.lambda_bar.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(msgs.y_bar.sum(axis=0))) <= 1e-10

    def test_equality_mode_z_has_no_queue_term(self, small_instance, base_hp):
        st = init_state(small_instance, base_hp(), "at_demand", mode=EQUALITY)
        msgs = exchange_primary(st, small_instance)
        expected = np.stack(
            [A_i @ st.x_prime[i] for i, A_i in enumerate(small_instance.A)]
        )
        assert np.allclose(msgs.z, expected)


class TestLocalSteps:
    def spec(self, Q=None):
        return AgentData(
            A=np.eye(2),
            d=np.array([1.0, 2.0]),
            P=np.eye(2),
            Q=np.zeros(2) if Q is None else np.asarray(Q),
        )

    def test_virtual_decision_stationary(self, base_hp):
        spec = self.spec()
        ag = agent_view(x_prime=[0.0, 0.0])  # gradient zero at origin
        msgs = messages(z=spec.d)
        out = step_virtual_decision(spec, ag, msgs, base_hp())
        assert np.array_equal(out, ag.x_prime)

    def test_virtual_decision_gradient_step(self):
        hp = HyperParams(alpha=0.1, beta=0.02, eta=0.1, gamma=0.2)
        spec = self.spec()
        ag = agent_view(x_prime=[1.0, 0.0])
        out = step_virtual_decision(spec, ag, messages(z=spec.d), hp)
        assert np.allclose(out, [0.8, 0.0])

    def test_virtual_decision_benchmark_scalar_recomputation(self, benchmark_instance, base_hp):
        hp = base_hp()
        st = init_state(benchmark_instance, hp, "at_demand")
        msgs = exchange_primary(st, benchmark_instance)
        for i in (0, 7, 13):
            spec = agent_data(benchmark_instance, i)
            out = step_virtual_decision(
                spec, agent_state(st, benchmark_instance, i), msgs.agent(i), hp
            )
            # straight-line recomputation with explicit scalar loops
            expect = []
            for r in range(2):
                grad = 2.0 * sum(spec.P[r][c] * st.x_prime[i][c] for c in range(2)) - spec.Q[r]
                pull = sum(
                    spec.A[c][r] * (msgs.z[i][c] - spec.d[c] + st.lam[i][c]) for c in range(2)
                )
                expect.append(st.x_prime[i][r] - hp.alpha * (grad + pull))
            assert np.max(np.abs(out - np.array(expect))) <= 1e-12

    def test_auxiliary_updates(self, base_hp):
        hp = HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2)
        ag = agent_view(y=[0.0, 0.0])
        assert np.array_equal(step_auxiliary(ag, messages(), hp), [0.0, 0.0])
        out = step_auxiliary(ag, messages(z_bar=[0.5, 0.5], lambda_bar=[0.5, 0.5]), hp)
        assert np.allclose(out, [-0.01, -0.01])
        out = step_auxiliary(ag, messages(z_bar=[0.5, 0.5], lambda_bar=[0.5, 0.5], d_bar=[1.0, 0.0]), hp)
        assert np.allclose(out, [0.0, -0.01])  # the mixed message is z + lambda - d

    def test_queue_floor_binds_per_component(self):
        hp = HyperParams(alpha=1.0, beta=0.02, eta=0.1, gamma=0.2)
        spec = self.spec()
        ag = agent_view(delta=[1.0, 1.0])
        # alpha*(z - d + lam) = (2, 0)
        out = step_virtual_queue(spec, ag, messages(z=spec.d + [2.0, 0.0]), hp, omega_k=0.1)
        assert np.allclose(out, [0.1, 1.0])

    def test_queue_without_floor_is_plain_subtraction(self):
        hp = HyperParams(alpha=0.5, beta=0.02, eta=0.1, gamma=0.2)
        spec = self.spec()
        ag = agent_view(delta=[1.0, 1.0])
        out = step_virtual_queue(spec, ag, messages(z=spec.d + [1.0, 1.0]), hp, omega_k=0.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_queue_in_equality_mode_raises(self, base_hp):
        ag = agent_view()  # delta defaults to None
        with pytest.raises(ConfigError, match="undefined in equality mode"):
            step_virtual_queue(self.spec(), ag, messages(), base_hp(), omega_k=0.0)

    def test_decaying_floor_reaches_benchmark_level(self):
        # producing the iterate labeled k=500 applies the 5/k schedule's 0.01 floor
        sched = BufferSchedule.decaying(5.0)
        assert sched.value(499) == pytest.approx(0.01, abs=0, rel=0)

    def test_dual_stationary(self, base_hp):
        spec = self.spec()
        ag = agent_view(lam=[0.0, 0.0])  # lam = 0, grad = 0 kills the damping term
        out = step_dual(spec, ag, z_next=spec.d, hp=base_hp(), grad_at_old_xprime=np.zeros(2))
        assert np.array_equal(out, [0.0, 0.0])

    def test_dual_pure_mismatch_step(self, base_hp):
        spec = self.spec()
        ag = agent_view(lam=[0.0, 0.0])
        out = step_dual(
            spec, ag, z_next=spec.d + [1.0, 0.0], hp=base_hp(), grad_at_old_xprime=np.zeros(2)
        )
        assert np.allclose(out, [0.02, 0.0])


class TestProjection:
    def test_square_full_rank_pins_target(self):
        out = project_affine(np.array([3.0, 4.0]), np.eye(2), np.array([1.0, 2.0]))
        assert np.allclose(out, [1.0, 2.0])

    def test_line_projection_symmetric(self):
        out = project_affine(np.zeros(2), np.array([[1.0, 1.0]]), np.array([4.0]))
        assert np.allclose(out, [2.0, 2.0])

    def test_random_matches_svd_least_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.integers(1, 4)
            p = m + rng.integers(0, 3)
            A = rng.normal(size=(m, p))
            if np.linalg.svd(A, compute_uv=False).min() < 1e-3:
                continue
            x_prime = rng.normal(size=p)
            b = rng.normal(size=m)
            mine = project_affine(x_prime, A, b)
            oracle = x_prime + np.linalg.pinv(A) @ (b - A @ x_prime)
            assert np.max(np.abs(mine - oracle)) <= 1e-9
            assert np.max(np.abs(A @ mine - b)) <= 1e-10
            # displacement is orthogonal to null(A)
            _, s, vt = np.linalg.svd(A)
            null_basis = vt[m:]
            if null_basis.size:
                assert np.max(np.abs(null_basis @ (mine - x_prime))) <= 1e-9

    def test_project_decision_inequality_target(self, base_hp):
        hp = base_hp(gamma=0.25)
        spec = AgentData(A=np.diag([1.0, 2.0]), d=np.array([1.0, 1.0]), P=np.eye(2), Q=np.zeros(2))
        ag = agent_view(x=[2.0, 3.0], projector=np.linalg.inv(np.diag([1.0, 2.0])))
        delta_old = np.array([0.4, 0.4])
        delta_new = np.array([0.1, 0.2])
        y_bar_next = np.array([0.05, -0.05])
        msgs = messages(y_bar_next=y_bar_next)
        x_prime_next = np.array([0.7, 0.9])
        out = project_decision(spec, ag, msgs, hp, delta_old, delta_new, x_prime_next)
        Ax = spec.A @ ag.x
        b = Ax - 0.25 * (Ax + y_bar_next + delta_new - spec.d) + 0.75 * (delta_old - delta_new)
        assert np.max(np.abs(spec.A @ out - b)) <= 1e-10

    def test_project_decision_equality_target(self, base_hp):
        hp = base_hp(gamma=0.25)
        spec = AgentData(A=np.eye(2), d=np.array([1.0, 1.0]), P=np.eye(2), Q=np.zeros(2))
        ag = agent_view(x=[2.0, 3.0])
        y_bar_next = np.array([0.05, -0.05])
        out = project_decision(
            spec, ag, messages(y_bar_next=y_bar_next), hp, None, None,
            np.array([0.7, 0.9]), mode=EQUALITY,
        )
        Ax = spec.A @ ag.x
        b = Ax - 0.25 * (Ax + y_bar_next - spec.d)
        assert np.max(np.abs(spec.A @ out - b)) <= 1e-10


class TestIterate:
    def test_argument_types_are_checked(self, small_instance, base_hp):
        hp = base_hp(omega=0.05)
        st = init_state(small_instance, hp, "at_demand")
        message = "^need a SwarmState and a HyperParams, got "
        with pytest.raises(InvalidInstanceError, match=message + "SwarmState, dict$"):
            iterate(st, small_instance, {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2})
        with pytest.raises(InvalidInstanceError, match=message + "dict, HyperParams$"):
            iterate(st.to_dict(), small_instance, hp)
        with pytest.raises(InvalidInstanceError, match=message + "NoneType, NoneType$"):
            iterate(None, small_instance, None)

    def test_step_reads_its_own_x_prime_unchecked(self, small_instance, base_hp, monkeypatch):
        # the public gradient copies and checks its x; the step's x' is the state's own array
        hp = base_hp(omega=0.05)
        st = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=3)
        expected = iterate(st, small_instance, hp)
        monkeypatch.setattr(ProblemInstance, "gradient", lambda self, x: pytest.fail("iterate called gradient"))
        nxt = iterate(st, small_instance, hp)
        for name in ("x", "x_prime", "y", "lam", "delta", "Ax", "z"):
            assert getattr(nxt, name).tobytes() == getattr(expected, name).tobytes()

    @pytest.mark.parametrize("entry, kind", [("1", "str"), (True, "bool")])
    def test_step_checks_a_generic_gradient(self, base_hp, entry, kind):
        quadratic = pair_instance()
        cost = CallableCost(value_fn=lambda x: float(x @ x), gradient_fn=lambda x: [entry, 0.0], p=2)
        generic = ProblemInstance(A=quadratic.A, d=quadratic.d, topology=quadratic.topology, costs=(cost, cost))
        hp = base_hp(omega=0.05)
        with pytest.raises(InvalidInstanceError, match=rf"^gradient must be numbers, got {kind} entries$"):
            iterate(init_state(generic, hp, "at_demand"), generic, hp)

    def test_matches_per_agent_composition(self, small_instance, base_hp):
        hp = base_hp(omega=0.05)
        st = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=1)
        msgs = exchange_primary(st, small_instance)
        omega0 = hp.buffer.value(st.k)
        xp, yn, dn = [], [], []
        for i in range(small_instance.n):
            spec, ag, ms = agent_data(small_instance, i), agent_state(st, small_instance, i), msgs.agent(i)
            xp.append(step_virtual_decision(spec, ag, ms, hp))
            yn.append(step_auxiliary(ag, ms, hp))
            dn.append(step_virtual_queue(spec, ag, ms, hp, omega0))
        xp, yn, dn = map(np.stack, (xp, yn, dn))
        msgs.y_bar_next = small_instance.topology.L @ yn
        lamn, xn = [], []
        for i in range(small_instance.n):
            spec, ag, ms = agent_data(small_instance, i), agent_state(st, small_instance, i), msgs.agent(i)
            z_next = spec.A @ xp[i] + msgs.y_bar_next[i] + dn[i]
            lamn.append(step_dual(spec, ag, z_next, hp, spec.gradient(st.x_prime[i])))
            xn.append(project_decision(spec, ag, ms, hp, st.delta[i], dn[i], xp[i]))
        nxt = iterate(st, small_instance, hp)
        assert np.max(np.abs(nxt.x_prime - xp)) <= 1e-12
        assert np.max(np.abs(nxt.y - yn)) <= 1e-12
        assert np.max(np.abs(nxt.delta - dn)) <= 1e-12
        assert np.max(np.abs(nxt.lam - np.stack(lamn))) <= 1e-12
        assert np.max(np.abs(nxt.x - np.stack(xn))) <= 1e-12
        assert nxt.k == st.k + 1

    def test_slack_recursion_from_benchmark_init(self, benchmark_instance, base_hp):
        hp = base_hp()
        st0 = init_state(benchmark_instance, hp, "at_demand")
        s0 = slack_sum(benchmark_instance, st0)
        st1 = iterate(st0, benchmark_instance, hp)
        s1 = slack_sum(benchmark_instance, st1)
        assert np.max(np.abs(s1 - 0.8 * s0)) <= 1e-9 * (1 + np.max(np.abs(s0)))

    def test_slack_recursion_from_random_state(self, small_instance, base_hp):
        hp = base_hp(omega=0.2, gamma=0.35)
        st = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=9)
        for _ in range(50):
            s_prev = slack_sum(small_instance, st)
            st = iterate(st, small_instance, hp)
            s = slack_sum(small_instance, st)
            assert np.max(np.abs(s - 0.65 * s_prev)) <= 1e-9 * (1 + np.max(np.abs(s_prev)))

    def test_equality_residual_recursion(self, small_instance, base_hp):
        hp = base_hp(gamma=0.3)
        st = randomize_state(small_instance, init_state(small_instance, hp, "zero", mode=EQUALITY), seed=4)
        for _ in range(30):
            r_prev = slack_sum(small_instance, st)
            st = iterate(st, small_instance, hp)
            r = slack_sum(small_instance, st)
            assert np.max(np.abs(r - 0.7 * r_prev)) <= 1e-9 * (1 + np.max(np.abs(r_prev)))

    def test_auxiliary_sum_conserved(self, small_instance, base_hp):
        hp = base_hp(omega=0.1)
        st = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=2)
        total0 = st.y.sum(axis=0)
        for _ in range(200):
            st = iterate(st, small_instance, hp)
        assert np.max(np.abs(st.y.sum(axis=0) - total0)) <= 1e-9

    def test_queue_floor_invariant_decaying(self, small_instance):
        hp = HyperParams(
            alpha=0.01, beta=0.02, eta=0.1, gamma=0.2, buffer=BufferSchedule.decaying(2.0)
        )
        st = init_state(small_instance, hp, "at_demand")
        assert np.all(st.delta >= hp.buffer.value(0))
        for _ in range(300):
            floor = hp.buffer.value(st.k)
            st = iterate(st, small_instance, hp)
            assert np.all(st.delta >= floor)          # floor used by this step
            assert np.all(st.delta >= hp.buffer.value(st.k))  # nonincreasing schedule

    def test_projection_exactness_along_run(self, small_instance, base_hp):
        hp = base_hp(omega=0.05)
        st = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=6)
        for _ in range(20):
            prev = st
            st = iterate(prev, small_instance, hp)
            # recompute this iteration's target from its own ingredients
            y_bar_next = small_instance.topology.L @ st.y
            for i in range(small_instance.n):
                spec = agent_data(small_instance, i)
                Ax = spec.A @ prev.x[i]
                b = (
                    Ax
                    - hp.gamma * (Ax + y_bar_next[i] + st.delta[i] - spec.d)
                    + (1 - hp.gamma) * (prev.delta[i] - st.delta[i])
                )
                assert np.max(np.abs(spec.A @ st.x[i] - b)) <= 1e-10

    def test_deterministic(self, small_instance, base_hp):
        hp = base_hp(omega=0.1)
        a = init_state(small_instance, hp, "at_demand")
        b = init_state(small_instance, hp, "at_demand")
        for _ in range(25):
            a = iterate(a, small_instance, hp)
            b = iterate(b, small_instance, hp)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.lam, b.lam)

    def test_long_run_reaches_fixed_point(self, base_hp):
        inst = generate_instance(5, 4, 8.0, 2)
        hp = HyperParams(alpha=0.02, beta=0.05, eta=0.1, gamma=0.5)
        st = init_state(inst, hp, "at_demand")
        for _ in range(4000):
            st = iterate(st, inst, hp)
        nxt = iterate(st, inst, hp)
        assert state_difference(nxt, st) <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_iteration_index(self, small_instance):
        hp = HyperParams(alpha=1e12, beta=1e12, eta=1e12, gamma=0.2)
        st = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=8)
        with pytest.raises(DivergenceError) as err:
            for _ in range(4000):
                st = iterate(st, small_instance, hp)
        assert err.value.k is not None

    def test_generic_cost_oracles_match_quadratic_path(self, small_instance, base_hp):
        hp = base_hp(omega=0.05)
        wrapped = tuple(
            CallableCost(
                value_fn=lambda x, P=P, Q=Q: x @ P @ x - Q @ x,
                gradient_fn=lambda x, P=P, Q=Q: 2.0 * (P @ x) - Q,
                p=2,
            )
            for P, Q in zip(small_instance.P, small_instance.Q)
        )
        generic = ProblemInstance(
            A=small_instance.A, d=small_instance.d, topology=small_instance.topology, costs=wrapped
        )
        a = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=13)
        b = randomize_state(generic, init_state(generic, hp, "at_demand"), seed=13)
        for _ in range(10):
            a = iterate(a, small_instance, hp)
            b = iterate(b, generic, hp)
        assert np.max(np.abs(a.x - b.x)) <= 1e-12
        assert np.max(np.abs(a.lam - b.lam)) <= 1e-12

    @pytest.mark.parametrize(
        "gradients, agent",
        [
            pytest.param([lambda x: 2 * x.sum()] * 2, 0, id="scalar"),
            pytest.param([lambda x: 2 * x, lambda x: np.append(2 * x, 0.0)], 1, id="wrong-length"),
        ],
    )
    def test_generic_gradient_of_the_wrong_shape_is_rejected(self, base_hp, gradients, agent):
        costs = tuple(CallableCost(value_fn=lambda x: float(x @ x), gradient_fn=g, p=2) for g in gradients)
        quadratic = pair_instance()
        generic = ProblemInstance(A=quadratic.A, d=quadratic.d, topology=quadratic.topology, costs=costs)
        st = init_state(generic, base_hp(omega=0.05), "at_demand")
        message = rf"agent {agent}: gradient must have shape \(2,\)"
        with pytest.raises(InvalidInstanceError, match=message):
            generic.gradient(st.x_prime)
        with pytest.raises(InvalidInstanceError, match=message):
            iterate(st, generic, base_hp(omega=0.05))

    def test_state_round_trip(self, small_instance, base_hp):
        st = randomize_state(small_instance, init_state(small_instance, base_hp(omega=0.2), "at_demand"), seed=11)
        back = SwarmState.from_dict(st.to_dict(), small_instance)
        assert state_difference(back, st) == 0.0

    def test_the_queue_decides_the_step(self, small_instance, base_hp):
        # a state is in inequality mode exactly when it carries delta
        hp = base_hp(omega=0.2)
        ineq = randomize_state(small_instance, init_state(small_instance, hp, "at_demand"), seed=12)
        data = ineq.to_dict()
        data["delta"] = None
        eq = randomize_state(small_instance, init_state(small_instance, hp, "at_demand", mode=EQUALITY), seed=12)
        stepped = iterate(SwarmState.from_dict(data, small_instance), small_instance, hp)
        assert stepped.delta is None and state_difference(stepped, iterate(eq, small_instance, hp)) == 0.0
        assert iterate(ineq, small_instance, hp).delta is not None

