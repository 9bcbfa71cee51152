import numpy as np
import pytest

from danyra import (
    BufferSchedule,
    HyperParams,
    SwarmState,
    Topology,
    generate_instance,
    solve_active_set,
    spectral_constants,
)
from danyra.cli import BENCHMARK_SEED


@pytest.fixture(scope="session")
def benchmark_instance():
    return generate_instance(BENCHMARK_SEED, 14, 70.0, 16)


@pytest.fixture(scope="session")
def benchmark_oracle(benchmark_instance):
    return solve_active_set(benchmark_instance)


@pytest.fixture(scope="session")
def benchmark_constants(benchmark_instance):
    return spectral_constants(benchmark_instance)


@pytest.fixture
def base_hp():
    def make(omega=0.0, **kw):
        params = dict(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2)
        params.update(kw)
        return HyperParams(**params, buffer=BufferSchedule.constant(omega))

    return make


def count_mix(monkeypatch) -> list:
    """Patch ``Topology.mix`` through ``monkeypatch``; the returned list gets each later call's argument shape."""
    calls = []
    mix = Topology.mix

    def counted(self, v):
        calls.append(v.shape)
        return mix(self, v)

    monkeypatch.setattr(Topology, "mix", counted)
    return calls


@pytest.fixture
def counted_mix(monkeypatch):
    """The list of ``Topology.mix`` calls made from here on."""
    return count_mix(monkeypatch)


@pytest.fixture
def small_instance():
    return generate_instance(77, 5, 10.0, 2)


def rebuild(instance, state, **changes):
    """``state`` with some iterates replaced; states are read-only, so this builds a new one."""
    fields = {name: getattr(state, name) for name in ("k", "x", "x_prime", "y", "lam", "delta")}
    return SwarmState.build(instance, **{**fields, **changes})


def state_at(instance, x, delta=None):
    """A state whose decisions are ``x`` (with queue ``delta`` in inequality mode), for the metrics."""
    zeros = np.zeros((instance.n, instance.m))
    return SwarmState.build(instance, k=0, x=x, x_prime=x, y=zeros, lam=zeros, delta=delta)


def randomize_state(instance, state, seed=0, delta_low=0.1):
    """Push a state away from its init deterministically (for exercise tests)."""
    rng = np.random.default_rng(seed)
    changes = {
        "x": state.x + rng.normal(size=state.x.shape),
        "x_prime": state.x_prime + rng.normal(size=state.x_prime.shape),
        "y": state.y + rng.normal(size=state.y.shape),
        "lam": state.lam + rng.normal(size=state.lam.shape),
    }
    if state.delta is not None:
        changes["delta"] = state.delta + rng.uniform(delta_low, 1.0, size=state.delta.shape)
    return rebuild(instance, state, **changes)
