"""Per-agent composition of one iteration: the reference ``iterate`` is diffed against.

Each function is one agent's local update, written from the paper's update
rules with that agent's own vectors and matrices (``AgentData``, one row of the
instance's stacks); ``exchange_primary`` is the paper's first two
communication sub-rounds (mix lambda and y, then z) over the whole swarm.  ``danyra.iterate``
computes the same step batched over all agents, and the tests require the two
to agree to rounding; ``state_difference`` measures how far apart two states
are.

``reference_iterate`` is the batched two-exchange step without the carried
coupling products ``A x`` and ``A x'``: it reads the mixed auxiliaries
``y_bar = L y`` from the state, mixes ``z + lam`` as one message and the new
``y`` as the other, and returns a plain ``ReferenceState`` (with the new
``y_bar``).  What sets it apart from ``danyra.iterate`` is that it
recomputes both products from ``x`` and ``x'`` each iteration instead of
reading them from the state.  ``reference_violation_l1``,
``reference_slack_sum`` and ``reference_disturb`` are the metric formulas
and the in-place disturbance of the same version.  The tests require
``danyra.iterate``, the carried products and the recorded metrics to
reproduce them bit for bit.

``reference_iterate_four_exchanges`` is the step before ``y_bar`` was
carried: it mixes ``lam``, ``y``, ``z`` and the new ``y``, so it rounds
differently, and the tests require the two forms to agree within the
artifact check's tolerances over long runs.  ``exchange_primary`` and the
per-agent updates keep the paper's separate ``lambda_bar`` and ``z_bar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from danyra import (
    INEQUALITY,
    ConfigError,
    DivergenceError,
    HyperParams,
    ProblemInstance,
    SwarmState,
    compute_projector,
)


@dataclass
class AgentData:
    """One agent's private data: quadratic cost ``x'Px - Q'x``, coupling ``A`` and demand ``d``."""

    A: np.ndarray
    d: np.ndarray
    P: np.ndarray
    Q: np.ndarray

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.P @ x) - self.Q


def agent_data(instance: ProblemInstance, i: int) -> AgentData:
    """Agent ``i``'s rows of a quadratic instance's stacks."""
    return AgentData(A=instance.A[i], d=instance.d[i], P=instance.P[i], Q=instance.Q[i])


@dataclass
class AgentState:
    """Per-agent view of the swarm state (delta is None in equality mode)."""

    x: np.ndarray
    x_prime: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    delta: np.ndarray | None
    projector: np.ndarray


@dataclass
class AgentMessages:
    """Per-agent slice of one round's exchanged quantities."""

    lambda_bar: np.ndarray
    y_bar: np.ndarray
    z: np.ndarray
    z_bar: np.ndarray
    y_bar_next: np.ndarray | None = None


@dataclass
class RoundMessages:
    """Neighbor-mixed quantities of one iteration, for all agents (rows)."""

    lambda_bar: np.ndarray
    y_bar: np.ndarray
    z: np.ndarray
    z_bar: np.ndarray
    y_bar_next: np.ndarray | None = None

    def agent(self, i: int) -> AgentMessages:
        return AgentMessages(
            lambda_bar=self.lambda_bar[i],
            y_bar=self.y_bar[i],
            z=self.z[i],
            z_bar=self.z_bar[i],
            y_bar_next=None if self.y_bar_next is None else self.y_bar_next[i],
        )


def agent_state(state: SwarmState, instance: ProblemInstance, i: int) -> AgentState:
    """Agent ``i``'s row of the swarm state, with its cached projector."""
    return AgentState(
        x=state.x[i],
        x_prime=state.x_prime[i],
        y=state.y[i],
        lam=state.lam[i],
        delta=None if state.delta is None else state.delta[i],
        projector=instance.projector_stack[i],
    )


def exchange_primary(state: SwarmState, instance: ProblemInstance) -> RoundMessages:
    """First two communication sub-rounds: mix {lambda, y}, form z, mix z.

    All reads are from the iteration-k snapshot; row sums of the mixed
    quantities vanish because the Laplacian columns sum to zero.
    """
    L = instance.topology.L
    lambda_bar = L @ state.lam
    y_bar = L @ state.y
    z = np.einsum("nmp,np->nm", instance.A, state.x_prime) + y_bar
    if state.delta is not None:
        z = z + state.delta
    z_bar = L @ z
    return RoundMessages(lambda_bar=lambda_bar, y_bar=y_bar, z=z, z_bar=z_bar)


def step_virtual_decision(
    spec: AgentData, agent: AgentState, msgs: AgentMessages, hp: HyperParams
) -> np.ndarray:
    """``x' <- x' - alpha * (grad f(x') + A'(z - d + lambda))``."""
    out = agent.x_prime - hp.alpha * (
        spec.gradient(agent.x_prime) + spec.A.T @ (msgs.z - spec.d + agent.lam)
    )
    if not np.all(np.isfinite(out)):
        raise DivergenceError("virtual decision update produced non-finite values")
    return out


def step_auxiliary(agent: AgentState, msgs: AgentMessages, hp: HyperParams) -> np.ndarray:
    """``y <- y - alpha * (z_bar + lambda_bar)``; the swarm-wide sum of y is conserved."""
    out = agent.y - hp.alpha * (msgs.z_bar + msgs.lambda_bar)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("auxiliary update produced non-finite values")
    return out


def step_virtual_queue(
    spec: AgentData,
    agent: AgentState,
    msgs: AgentMessages,
    hp: HyperParams,
    omega_k: float,
) -> np.ndarray:
    """``delta <- max(delta - alpha * (z - d + lambda), omega_k)`` elementwise."""
    if agent.delta is None:
        raise ConfigError("virtual queue update is undefined in equality mode")
    return np.maximum(agent.delta - hp.alpha * (msgs.z - spec.d + agent.lam), omega_k)


def step_dual(
    spec: AgentData,
    agent: AgentState,
    z_next: np.ndarray,
    hp: HyperParams,
    grad_at_old_xprime: np.ndarray,
) -> np.ndarray:
    """``lambda <- lambda + beta * (z_next - d - eta * A (A'lambda + grad_old))``.

    ``z_next`` must already contain the third sub-round's mixed y, and the
    gradient is the one evaluated at the pre-update virtual decision.
    """
    out = agent.lam + hp.beta * (
        z_next - spec.d - hp.eta * (spec.A @ (spec.A.T @ agent.lam + grad_at_old_xprime))
    )
    if not np.all(np.isfinite(out)):
        raise DivergenceError("dual update produced non-finite values")
    return out


def project_affine(
    x_prime: np.ndarray, A: np.ndarray, b: np.ndarray, projector: np.ndarray | None = None
) -> np.ndarray:
    """Euclidean projection of ``x_prime`` onto ``{x : Ax = b}`` in closed form."""
    if projector is None:
        projector = compute_projector(A)
    return x_prime + projector @ (b - A @ x_prime)


def projection_target(
    spec: AgentData,
    agent: AgentState,
    y_bar_next: np.ndarray,
    hp: HyperParams,
    delta_old: np.ndarray | None,
    delta_new: np.ndarray | None,
    mode: str,
) -> np.ndarray:
    """Right-hand side ``b`` of the decision update's affine constraint."""
    Ax = spec.A @ agent.x
    if mode == INEQUALITY:
        return (
            Ax
            - hp.gamma * (Ax + y_bar_next + delta_new - spec.d)
            + (1.0 - hp.gamma) * (delta_old - delta_new)
        )
    return Ax - hp.gamma * (Ax + y_bar_next - spec.d)


def project_decision(
    spec: AgentData,
    agent: AgentState,
    msgs_next: AgentMessages,
    hp: HyperParams,
    delta_old: np.ndarray | None,
    delta_new: np.ndarray | None,
    x_prime_next: np.ndarray,
    mode: str = INEQUALITY,
) -> np.ndarray:
    """Project the new virtual decision onto the compensated affine target set."""
    b = projection_target(spec, agent, msgs_next.y_bar_next, hp, delta_old, delta_new, mode)
    return project_affine(x_prime_next, spec.A, b, agent.projector)


def state_difference(a: SwarmState, b: SwarmState) -> float:
    """Max-norm distance between two states over every algorithm field."""
    parts = [a.x - b.x, a.x_prime - b.x_prime, a.y - b.y, a.lam - b.lam]
    if a.delta is not None and b.delta is not None:
        parts.append(a.delta - b.delta)
    return max(float(np.max(np.abs(p), initial=0.0)) for p in parts)


@dataclass
class ReferenceState:
    """The iterates the reference steps read and return, with ``y_bar = L y`` but no coupling products."""

    k: int
    x: np.ndarray
    x_prime: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    delta: np.ndarray | None
    y_bar: np.ndarray


def reference_copy(state: SwarmState) -> ReferenceState:
    """A ``ReferenceState`` with writable copies of a state's iterates and ``y_bar``."""
    return ReferenceState(
        k=state.k,
        **{
            name: None if getattr(state, name) is None else np.array(getattr(state, name))
            for name in ("x", "x_prime", "y", "lam", "delta", "y_bar")
        },
    )


def reference_iterate(state, instance: ProblemInstance, hp: HyperParams) -> ReferenceState:
    """The batched two-exchange step, recomputing the coupling products.

    It reads ``y_bar`` from the state and mixes ``z + lam`` as one message.
    """
    return _reference_step(state, instance, hp, four_exchanges=False)


def reference_iterate_four_exchanges(state, instance: ProblemInstance, hp: HyperParams) -> ReferenceState:
    """The batched step before ``y_bar`` was carried: it mixes ``lam``, ``y``, ``z`` and the new ``y``.

    It ignores the state's ``y_bar`` and returns the mix of the new ``y`` as one.
    """
    return _reference_step(state, instance, hp, four_exchanges=True)


def _reference_step(
    state, instance: ProblemInstance, hp: HyperParams, *, four_exchanges: bool
) -> ReferenceState:
    """One step before the products were carried.

    Verbatim apart from the exchanges, the return type and the quadratic
    gradient, which is written out as ``ProblemInstance.gradient`` computed
    it then.
    """
    A, d, mix = instance.A, instance.d, instance.topology.mix
    alpha, beta, eta, gamma = hp.alpha, hp.beta, hp.eta, hp.gamma
    inequality = state.delta is not None
    x, x_prime, y, lam, delta = state.x, state.x_prime, state.y, state.lam, state.delta

    # sub-round 1: mix duals and auxiliaries from the k-snapshot (four
    # exchanges), or read the carried y_bar (two), then form z
    if four_exchanges:
        lambda_bar = mix(lam)
        y_bar = mix(y)
    else:
        y_bar = state.y_bar
    z = np.einsum("nmp,np->nm", A, x_prime) + y_bar
    if inequality:
        z = z + delta
    if instance.quadratic:  # ProblemInstance.gradient's formula of that version
        grad = 2.0 * np.einsum("nij,nj->ni", instance.P, x_prime) - instance.Q
    else:
        grad = instance.gradient(x_prime)

    # sub-round 2: mix z and add lambda_bar (four exchanges), or mix z + lam
    # (two); primal, auxiliary and queue updates
    v = z - d + lam
    x_prime_next = x_prime - alpha * (grad + np.einsum("nmp,nm->np", A, v))
    if four_exchanges:
        y_next = y - alpha * (mix(z) + lambda_bar)
    else:
        y_next = y - alpha * mix(z + lam)
    delta_next = np.maximum(delta - alpha * v, hp.buffer.value(state.k)) if inequality else None

    # sub-round 3: mix the new auxiliaries; dual update and projection
    y_bar_next = mix(y_next)
    Ax_prime_next = np.einsum("nmp,np->nm", A, x_prime_next)
    z_next = Ax_prime_next + y_bar_next
    if inequality:
        z_next = z_next + delta_next
    At_lam = np.einsum("nmp,nm->np", A, lam)
    lam_next = lam + beta * (z_next - d - eta * np.einsum("nmp,np->nm", A, At_lam + grad))
    Ax = np.einsum("nmp,np->nm", A, x)
    if inequality:
        b = (
            Ax
            - gamma * (Ax + y_bar_next + delta_next - d)
            + (1.0 - gamma) * (delta - delta_next)
        )
    else:
        b = Ax - gamma * (Ax + y_bar_next - d)
    x_next = x_prime_next + np.einsum("npm,nm->np", instance.projector_stack, b - Ax_prime_next)

    fields = {"x": x_next, "x_prime": x_prime_next, "y": y_next, "lambda": lam_next}
    if inequality:
        fields["delta"] = delta_next
    # a non-finite entry makes the sum non-finite; only then are the fields
    # searched (a finite sum can also overflow, and then nothing is found)
    if not math.isfinite(sum(float(arr.sum()) for arr in fields.values())):
        for name, arr in fields.items():
            rows = np.nonzero(~np.isfinite(arr))[0]
            if rows.size:
                bad = sorted(set(rows.tolist()))
                raise DivergenceError(
                    f"non-finite {name} at iteration {state.k} (agents {bad})",
                    k=state.k,
                    agents=bad,
                )

    return ReferenceState(
        k=state.k + 1,
        x=x_next,
        x_prime=x_prime_next,
        y=y_next,
        lam=lam_next,
        delta=delta_next,
        y_bar=y_bar_next,
    )


def reference_violation_l1(instance: ProblemInstance, x: np.ndarray) -> float:
    """1-norm of the positive part of ``sum_i (A_i x_i - d_i)``, recomputing ``A_i x_i``."""
    x = np.asarray(x, dtype=float).reshape(instance.n, instance.p)
    total = np.ascontiguousarray(np.einsum("nmp,np->nm", instance.A, x)).sum(axis=0) - instance.demand_total
    return float(np.sum(np.maximum(total, 0.0)))


def reference_slack_sum(instance: ProblemInstance, x: np.ndarray, delta: np.ndarray | None) -> np.ndarray:
    """``sum_i (A_i x_i + delta_i - d_i)``, recomputing ``A_i x_i``."""
    x = np.asarray(x, dtype=float).reshape(instance.n, instance.p)
    total = np.ascontiguousarray(np.einsum("nmp,np->nm", instance.A, x)).sum(axis=0) - instance.demand_total
    if delta is not None:
        total = total + np.ascontiguousarray(delta, dtype=float).reshape(instance.n, instance.m).sum(axis=0)
    return total


def reference_disturb(state: ReferenceState, event) -> ReferenceState:
    """Shift every agent's decision and virtual decision of a ``ReferenceState`` in place, one agent at a time."""
    for i in range(len(state.x)):
        state.x[i] += event.additive
        state.x_prime[i] += event.additive
    return state
