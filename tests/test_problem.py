import json

import numpy as np
import pytest

from danyra import (
    EQUALITY,
    AgentSpec,
    BufferSchedule,
    CallableCost,
    HyperParams,
    InvalidInstanceError,
    QuadraticCost,
    TopologyError,
    compute_projector,
    cost_gradient,
    cost_value,
    generate_instance,
    instance_from_json,
    instance_to_json,
    metropolis_weights,
    spectral_constants,
    validate_hyperparams,
)


def make_spec(P, Q, A=None, d=None):
    P = np.asarray(P, dtype=float)
    p = P.shape[0]
    A = np.eye(p) if A is None else np.asarray(A, dtype=float)
    d = np.zeros(A.shape[0]) if d is None else np.asarray(d, dtype=float)
    return AgentSpec(cost=QuadraticCost(P=P, Q=np.asarray(Q, dtype=float)), A=A, d=d)


def random_spec(rng, p=2):
    basis, r = np.linalg.qr(rng.standard_normal((p, p)))
    basis = basis * np.sign(np.diag(r))
    P = (basis * rng.uniform(0.5, 2.0, size=p)) @ basis.T
    return make_spec(0.5 * (P + P.T), rng.uniform(-1, 1, size=p))


class TestCosts:
    def test_value_identity(self):
        spec = make_spec(np.eye(2), [0.0, 0.0])
        assert cost_value(spec, np.array([1.0, 1.0])) == 2.0

    def test_value_with_linear_term(self):
        spec = make_spec(np.eye(2), [2.0, 0.0])
        assert cost_value(spec, np.array([1.0, 0.0])) == -1.0

    def test_gradient_identity(self):
        spec = make_spec(np.eye(2), [0.0, 0.0])
        assert np.array_equal(cost_gradient(spec, np.array([1.0, 2.0])), [2.0, 4.0])

    def test_gradient_at_origin_is_minus_q(self):
        spec = make_spec([[2.0, 0.3], [0.3, 1.0]], [0.7, -0.2])
        assert np.array_equal(cost_gradient(spec, np.zeros(2)), [-0.7, 0.2])

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(100):
            spec = random_spec(rng)
            x = rng.uniform(-3, 3, size=2)
            grad = cost_gradient(spec, x)
            fd = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (cost_value(spec, x + e) - cost_value(spec, x - e)) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * (1 + np.linalg.norm(grad))

    def test_dimension_mismatch(self):
        spec = make_spec(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            cost_value(spec, np.zeros(3))
        with pytest.raises(ValueError):
            cost_gradient(spec, np.zeros(1))

    def test_callable_cost(self):
        cost = CallableCost(value_fn=lambda x: float(x @ x), gradient_fn=lambda x: 2 * x, p=2)
        spec = AgentSpec(cost=cost, A=np.eye(2), d=np.zeros(2))
        assert cost_value(spec, np.array([1.0, 2.0])) == 5.0
        assert np.array_equal(cost_gradient(spec, np.array([1.0, 2.0])), [2.0, 4.0])

    def test_asymmetric_p_rejected(self):
        with pytest.raises(InvalidInstanceError):
            QuadraticCost(P=np.array([[1.0, 0.5], [0.0, 1.0]]), Q=np.zeros(2))

    def test_indefinite_p_rejected(self):
        with pytest.raises(InvalidInstanceError):
            QuadraticCost(P=np.diag([1.0, -0.1]), Q=np.zeros(2))


class TestAgentSpec:
    def test_rank_deficient_coupling_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_spec(np.eye(2), np.zeros(2), A=np.array([[1.0, 1.0], [1.0, 1.0]]), d=np.zeros(2))

    def test_wide_coupling_allowed(self):
        spec = make_spec(np.eye(2), np.zeros(2), A=np.array([[1.0, 1.0]]), d=np.zeros(1))
        assert spec.m == 1 and spec.p == 2

    def test_tall_coupling_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_spec(np.eye(1), np.zeros(1), A=np.array([[1.0], [2.0]]), d=np.zeros(2))


class TestTopology:
    def test_path_weights(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        top = metropolis_weights(adj)
        assert top.W[0, 1] == pytest.approx(1 / 3)
        assert top.W[1, 2] == pytest.approx(1 / 3)
        assert np.allclose(np.diag(top.W), [2 / 3, 1 / 3, 2 / 3])

    def test_complete_graph(self):
        adj = ~np.eye(3, dtype=bool)
        top = metropolis_weights(adj)
        off = top.W[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1 / 3)
        assert np.allclose(top.W.sum(axis=0), 1.0)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        with pytest.raises(TopologyError):
            metropolis_weights(adj)

    def test_generated_topology_invariants(self):
        for seed in (1, 2, 3):
            top = generate_instance(seed, 14, 70.0, 5).topology
            ones = np.ones(top.n)
            assert np.max(np.abs(top.W @ ones - ones)) <= 1e-12
            assert np.max(np.abs(ones @ top.W - ones)) <= 1e-12
            assert np.array_equal(top.W, top.W.T)
            assert np.linalg.eigvalsh(top.L)[1] > 0

    def test_neighbors_sorted(self):
        top = generate_instance(3, 8, 10.0, 4).topology
        for i, nbrs in enumerate(top.neighbors):
            assert list(nbrs) == sorted(nbrs)
            for j in nbrs:
                assert top.W[i, j] > 0


class TestGenerateInstance:
    def test_benchmark_demands(self):
        inst = generate_instance(1, 14, 70.0, 5)
        assert np.allclose(inst.demand_total, [70.0, 1.0])
        for spec in inst.agents:
            assert np.allclose(spec.d, [5.0, 1.0 / 14.0])

    def test_two_agent_ring_is_single_edge(self):
        inst = generate_instance(1, 2, 2.0, 0)
        assert inst.topology.edges == ((0, 1),)
        assert np.allclose(inst.topology.W, [[0.5, 0.5], [0.5, 0.5]])

    def test_deterministic(self):
        a = generate_instance(9, 6, 12.0, 3)
        b = generate_instance(9, 6, 12.0, 3)
        assert np.array_equal(a.topology.W, b.topology.W)
        for sa, sb in zip(a.agents, b.agents):
            assert np.array_equal(sa.cost.P, sb.cost.P)
            assert np.array_equal(sa.cost.Q, sb.cost.Q)
            assert np.array_equal(sa.A, sb.A)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInstanceError):
            generate_instance(1, 1, 70.0, 0)
        with pytest.raises(InvalidInstanceError):
            generate_instance(1, 14, 0.0, 0)
        with pytest.raises(InvalidInstanceError):
            generate_instance(1, 3, 5.0, 100)

    def test_ranges(self):
        inst = generate_instance(4, 10, 30.0, 2)
        for spec in inst.agents:
            assert 0.5 <= spec.C <= 2.0
            assert np.all(spec.cost.Q > 0) and np.all(spec.cost.Q <= 1)
            eigs = np.linalg.eigvalsh(spec.cost.P)
            assert eigs.min() >= 0.5 - 1e-12 and eigs.max() <= 2.0 + 1e-12
            assert np.linalg.svd(spec.A, compute_uv=False).min() > 0

    def test_projector_cache(self):
        inst = generate_instance(4, 6, 12.0, 2)
        for spec, proj in zip(inst.agents, inst.projector_stack):
            assert np.max(np.abs(spec.A @ proj - np.eye(inst.m))) <= 1e-10
        wide = np.array([[1.0, 2.0, 0.5]])
        proj = compute_projector(wide)
        assert np.max(np.abs(wide @ proj - np.eye(1))) <= 1e-10


class TestSpectralConstants:
    def test_identity_costs(self):
        agents = tuple(
            make_spec(np.eye(2), np.zeros(2), d=np.zeros(2)) for _ in range(3)
        )
        top = metropolis_weights(~np.eye(3, dtype=bool))
        from danyra import ProblemInstance

        inst = ProblemInstance(agents=agents, topology=top, p=2, m=2)
        sc = spectral_constants(inst)
        assert sc.ell == sc.mu == 2.0
        assert sc.sigma_A_max == sc.sigma_A_min == sc.kappa_A == 1.0

    def test_matches_dense_recomputation(self):
        inst = generate_instance(1, 14, 70.0, 5)
        sc = spectral_constants(inst)
        n, m, p = inst.n, inst.m, inst.p
        blk = np.zeros((n * m, n * p))
        for i, spec in enumerate(inst.agents):
            blk[i * m : (i + 1) * m, i * p : (i + 1) * p] = spec.A
        svals = np.linalg.svd(blk, compute_uv=False)
        nonzero = svals[svals > 1e-10]
        assert sc.sigma_A_max == pytest.approx(nonzero.max(), rel=1e-12)
        assert sc.sigma_A_min == pytest.approx(nonzero.min(), rel=1e-12)
        lams = np.concatenate([np.linalg.eigvalsh(s.cost.P) for s in inst.agents])
        assert sc.ell == pytest.approx(2 * lams.max(), rel=1e-12)
        assert sc.mu == pytest.approx(2 * lams.min(), rel=1e-12)
        # Kronecker expansion of the mixing matrix has the same extreme spectrum
        big = np.kron(inst.topology.L, np.eye(p))
        eig = np.linalg.eigvalsh(big)
        assert sc.sigma_L_max == pytest.approx(eig[-1], rel=1e-10)
        assert sc.sigma_L_min == pytest.approx(eig[eig > 1e-8].min(), rel=1e-8)

    def test_ordering_invariants(self):
        for seed in range(5):
            sc = spectral_constants(generate_instance(seed + 1, 6, 9.0, 2))
            assert sc.mu <= sc.ell
            assert sc.sigma_A_min <= sc.sigma_A_max
            assert sc.kappa_A >= 1.0

    def test_generic_costs_need_constants(self):
        cost = CallableCost(value_fn=lambda x: float(x @ x), gradient_fn=lambda x: 2 * x, p=2)
        agents = (
            AgentSpec(cost=cost, A=np.eye(2), d=np.zeros(2)),
            AgentSpec(cost=cost, A=np.eye(2), d=np.zeros(2)),
        )
        adj = np.array([[0, 1], [1, 0]], dtype=bool)
        from danyra import ProblemInstance

        inst = ProblemInstance(agents=agents, topology=metropolis_weights(adj), p=2, m=2)
        with pytest.raises(InvalidInstanceError):
            spectral_constants(inst)
        sc = spectral_constants(inst, ell=2.0, mu=2.0)
        assert sc.ell == 2.0


class TestValidateHyperparams:
    def make_sc(self, ell=2.0, mu=2.0, sA=1.0, sa=1.0, sL=2.0, sl=0.5):
        from danyra import SpectralConstants

        return SpectralConstants(
            ell=ell, mu=mu, sigma_A_max=sA, sigma_A_min=sa, sigma_L_max=sL, sigma_L_min=sl
        )

    def test_eta_and_gamma_bounds_for_unit_conditioning(self, base_hp):
        sc = self.make_sc()
        report = validate_hyperparams(base_hp(gamma=0.2), sc)
        eta = report.check("eta_curvature")
        assert eta.bound == pytest.approx(1.0) and eta.passed
        glow = report.check("gamma_lower")
        assert glow.bound == pytest.approx(0.5) and not glow.passed
        assert validate_hyperparams(base_hp(gamma=0.6), sc).check("gamma_lower").passed

    def test_benchmark_parameters_fail_gamma_but_report(self, base_hp, benchmark_constants):
        report = validate_hyperparams(base_hp(), benchmark_constants)
        assert not report.check("gamma_lower").passed
        assert not report.all_passed
        assert len(report.checks) == 12  # report still fully produced

    def test_beta_above_one_third_fails(self, base_hp):
        report = validate_hyperparams(base_hp(beta=0.4), self.make_sc())
        assert not report.check("beta_third").passed

    def test_equality_mode_adds_rate_bound_and_theta(self):
        sc = self.make_sc()
        hp = HyperParams(alpha=0.01, beta=0.05, eta=0.2, gamma=0.8)
        report = validate_hyperparams(hp, sc, EQUALITY)
        assert report.check("alpha_linear_rate") is not None
        assert report.all_passed
        assert report.theta_prime is not None and 0 < report.theta_prime < 1

    def test_theta_prime_absent_on_failure(self):
        sc = self.make_sc()
        hp = HyperParams(alpha=0.01, beta=0.05, eta=0.2, gamma=0.2)  # gamma too small
        report = validate_hyperparams(hp, sc, EQUALITY)
        assert not report.all_passed and report.theta_prime is None

    def test_own_parameter_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sc = self.make_sc(
                ell=rng.uniform(1, 5),
                mu=rng.uniform(0.2, 1.0),
                sA=rng.uniform(1.0, 2.0),
                sa=rng.uniform(0.3, 1.0),
                sL=rng.uniform(1.0, 2.0),
                sl=rng.uniform(0.05, 0.9),
            )
            hp = HyperParams(
                alpha=rng.uniform(1e-4, 0.3),
                beta=rng.uniform(1e-3, 0.5),
                eta=rng.uniform(1e-3, 0.5),
                gamma=rng.uniform(0.05, 0.95),
            )
            report = validate_hyperparams(hp, sc)
            shrunk = HyperParams(
                alpha=hp.alpha / 2, beta=hp.beta / 2, eta=hp.eta / 2, gamma=hp.gamma
            )
            # each parameter's own checks compare it to bounds free of that parameter
            for name in ("alpha_decision_coupling", "alpha_network_coupling", "alpha_queue_coupling"):
                if report.check(name).passed:
                    half = validate_hyperparams(
                        HyperParams(alpha=hp.alpha / 2, beta=hp.beta, eta=hp.eta, gamma=hp.gamma),
                        sc,
                    )
                    assert half.check(name).passed
            if report.check("beta_third").passed:
                assert validate_hyperparams(
                    HyperParams(alpha=hp.alpha, beta=hp.beta / 2, eta=hp.eta, gamma=hp.gamma), sc
                ).check("beta_third").passed
            if report.check("eta_curvature").passed:
                assert validate_hyperparams(
                    HyperParams(alpha=hp.alpha, beta=hp.beta, eta=hp.eta / 2, gamma=hp.gamma), sc
                ).check("eta_curvature").passed
            assert shrunk.alpha < hp.alpha  # sanity


class TestBufferSchedule:
    def test_constant(self):
        sched = BufferSchedule.constant(0.3)
        assert sched.value(0) == sched.value(1000) == 0.3
        assert sched.limit == 0.3

    def test_decaying_family(self):
        sched = BufferSchedule.decaying(5.0)
        assert sched.value(0) == 5.0
        assert sched.value(499) == pytest.approx(0.01)  # floor in force at iterate 500
        assert sched.limit == 0.0

    def test_decaying_square_summable(self):
        sched = BufferSchedule.decaying(5.0)
        ks = np.arange(1_000_000)
        partial = np.sum((sched.coefficient / (ks + 1)) ** 2)
        assert partial < 25 * np.pi**2 / 6

    def test_sequence_holds_last_value(self):
        sched = BufferSchedule.sequence([1.0, 0.5, 0.25])
        assert sched.value(2) == 0.25 and sched.value(10) == 0.25

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            BufferSchedule.constant(-0.1)
        with pytest.raises(InvalidInstanceError):
            BufferSchedule.sequence([0.1, -0.2])
        with pytest.raises(InvalidInstanceError):
            BufferSchedule.sequence([0.1, 1.0, 5.0])
        with pytest.raises(InvalidInstanceError):
            BufferSchedule(kind="mystery")

    def test_hyperparams_validation(self):
        with pytest.raises(InvalidInstanceError):
            HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=1.0)
        with pytest.raises(InvalidInstanceError):
            HyperParams(alpha=-0.01, beta=0.02, eta=0.1, gamma=0.2)


class TestSerialization:
    def test_round_trip_exact(self):
        inst = generate_instance(11, 5, 9.0, 2)
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert back.n == inst.n and back.p == inst.p and back.m == inst.m
        assert np.array_equal(back.topology.W, inst.topology.W)
        assert back.topology.edges == inst.topology.edges
        for sa, sb in zip(inst.agents, back.agents):
            assert np.array_equal(sa.cost.P, sb.cost.P)
            assert np.array_equal(sa.cost.Q, sb.cost.Q)
            assert np.array_equal(sa.A, sb.A)
            assert np.array_equal(sa.d, sb.d)

    def test_schema_fields(self):
        doc = json.loads(instance_to_json(generate_instance(11, 4, 9.0, 1)))
        assert set(doc) == {"n", "p", "m", "agents", "topology"}
        assert set(doc["agents"][0]) == {"P", "Q", "A", "d"}
        assert set(doc["topology"]) == {"edges", "weights"}

    def test_missing_key_rejected(self):
        doc = json.loads(instance_to_json(generate_instance(11, 4, 9.0, 1)))
        del doc["agents"]
        with pytest.raises(InvalidInstanceError):
            instance_from_json(json.dumps(doc))
