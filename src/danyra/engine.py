"""One synchronous iteration of the anytime-feasible allocation algorithm.

Each iteration runs three neighbor-exchange sub-rounds and five local updates,
in this order: mix {lambda, y}; form z and mix it; update the virtual decision
x', the auxiliary y, and (inequality mode) the queue delta; mix the new y;
update the dual lambda; project x' onto the per-agent affine target set.
The projection is closed-form (``x = x' + A'(AA')^{-1}(b - Ax')``), never an
iterative QP solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInstanceError, ModeError
from .problem import EQUALITY, INEQUALITY, HyperParams, ProblemInstance


@dataclass
class SwarmState:
    """All agents' iterates at step ``k`` (stacked row-wise)."""

    k: int
    mode: str
    x: np.ndarray        # (n, p)
    x_prime: np.ndarray  # (n, p)
    y: np.ndarray        # (n, m)
    lam: np.ndarray      # (n, m)
    delta: np.ndarray | None  # (n, m) in inequality mode

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "mode": self.mode,
            "x": self.x.tolist(),
            "x_prime": self.x_prime.tolist(),
            "y": self.y.tolist(),
            "lam": self.lam.tolist(),
            "delta": None if self.delta is None else self.delta.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SwarmState":
        """Rebuild a state; the mode must be known and carry a queue exactly in inequality mode."""
        mode, delta = data["mode"], data.get("delta")
        if mode not in (INEQUALITY, EQUALITY):
            raise ModeError(f"unknown mode {mode!r}")
        if mode == INEQUALITY and delta is None:
            raise ModeError("inequality mode needs a queue delta")
        if mode == EQUALITY and delta is not None:
            raise ModeError("equality mode has no queue delta")
        return cls(
            k=int(data["k"]),
            mode=mode,
            x=np.array(data["x"], dtype=float),
            x_prime=np.array(data["x_prime"], dtype=float),
            y=np.array(data["y"], dtype=float),
            lam=np.array(data["lam"], dtype=float),
            delta=None if delta is None else np.array(delta, dtype=float),
        )


def init_state(
    instance: ProblemInstance,
    hp: HyperParams,
    init_mode: str = "at_demand",
    *,
    mode: str = INEQUALITY,
    x0: np.ndarray | None = None,
    x0_offset: np.ndarray | None = None,
) -> SwarmState:
    """Build the iteration-0 state.

    ``y = 0`` and ``lam = 0``; ``delta = max(0, omega_0) * 1`` in inequality
    mode so the queue floor holds from the start.  ``at_demand`` places each
    decision at its demand vector when p == m and at the least-norm preimage
    ``projector @ d`` otherwise; ``zero`` starts at the origin; ``custom``
    takes ``x0`` with shape (n, p).
    """
    if mode not in (INEQUALITY, EQUALITY):
        raise InvalidInstanceError(f"unknown mode {mode!r}")
    n, p, m = instance.n, instance.p, instance.m

    if init_mode == "at_demand":
        if p == m:
            x = instance.d.copy()
        else:
            x = np.einsum("npm,nm->np", instance.projector_stack, instance.d)
    elif init_mode == "zero":
        x = np.zeros((n, p))
    elif init_mode == "custom":
        if x0 is None:
            raise ValueError("custom init requires x0")
        x = np.array(x0, dtype=float)
        if x.shape != (n, p):
            raise ValueError(f"x0 must have shape ({n}, {p}), got {x.shape}")
    else:
        raise ValueError(f"unknown init_mode {init_mode!r}")

    if x0_offset is not None:
        offset = np.asarray(x0_offset, dtype=float)
        if offset.shape != (p,):
            raise ValueError(f"x0_offset must have shape ({p},), got {offset.shape}")
        x = x + offset

    delta = None
    if mode == INEQUALITY:
        delta = np.full((n, m), max(0.0, hp.buffer.value(0)))

    return SwarmState(
        k=0,
        mode=mode,
        x=x,
        x_prime=x.copy(),
        y=np.zeros((n, m)),
        lam=np.zeros((n, m)),
        delta=delta,
    )


def iterate(state: SwarmState, instance: ProblemInstance, hp: HyperParams) -> SwarmState:
    """Advance the swarm by one full synchronous iteration.

    Neighbor reductions are computed centrally from sub-round snapshots (the
    simulated network) by ``Topology.mix``, which is ``L @ v``: the dense
    product for small swarms, and above ``DENSE_MIX_MAX_N`` agents a sum over
    the edges at each agent only, O(|E|) per sub-round.  Each local update is
    one array operation over all agents' rows, and row ``i`` reads only agent
    ``i``'s iterates and mixed messages, as in the distributed algorithm.
    """
    A, d, mix = instance.A, instance.d, instance.topology.mix
    alpha, beta, eta, gamma = hp.alpha, hp.beta, hp.eta, hp.gamma
    inequality = state.mode == INEQUALITY
    x, x_prime, y, lam, delta = state.x, state.x_prime, state.y, state.lam, state.delta

    # sub-round 1: mix duals and auxiliaries from the k-snapshot, then form z
    lambda_bar = mix(lam)
    y_bar = mix(y)
    z = np.einsum("nmp,np->nm", A, x_prime) + y_bar
    if inequality:
        z = z + delta
    grad = instance.gradient(x_prime)

    # sub-round 2: mix z; primal, auxiliary and queue updates
    z_bar = mix(z)
    v = z - d + lam
    x_prime_next = x_prime - alpha * (grad + np.einsum("nmp,nm->np", A, v))
    y_next = y - alpha * (z_bar + lambda_bar)
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
    for name, arr in fields.items():
        if not np.all(np.isfinite(arr)):
            bad = sorted(set(np.nonzero(~np.isfinite(arr))[0].tolist()))
            raise DivergenceError(
                f"non-finite {name} at iteration {state.k} (agents {bad})",
                k=state.k,
                agents=bad,
            )

    return SwarmState(
        k=state.k + 1,
        mode=state.mode,
        x=x_next,
        x_prime=x_prime_next,
        y=y_next,
        lam=lam_next,
        delta=delta_next,
    )

