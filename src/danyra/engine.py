"""One synchronous iteration of the anytime-feasible allocation algorithm.

Each iteration runs three neighbor-exchange sub-rounds and five local updates,
in this order: mix {lambda, y}; form z and mix it; update the virtual decision
x', the auxiliary y, and (inequality mode) the queue delta; mix the new y;
update the dual lambda; project x' onto the per-agent affine target set.
The projection is closed-form (``x = x' + A'(AA')^{-1}(b - Ax')``), never an
iterative QP solve.

A state carries the coupling products ``A_i x_i`` and ``A_i x'_i`` next to the
decisions, so each product is computed once: ``iterate`` computes both for the
state it returns and reads them from the state it is given, and the recorded
violation and slack read ``Ax``.  A state's arrays are read-only and its
fields cannot be reassigned, so a product cannot go stale; a state with other
values is built with :meth:`SwarmState.build`, which recomputes them (a state
made by the constructor or ``dataclasses.replace`` has no products at all).

Every array of a state is stored agents innermost (Fortran order), like the
instance stacks, so each batched product runs along the agents: ``build``
copies the iterates so, and ``iterate``'s operations keep their operands'
layout.  Sums over agents (``problem.agent_sum``) keep the row-major order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, DivergenceError, ModeError
from .problem import EQUALITY, INEQUALITY, HyperParams, ProblemInstance


@dataclasses.dataclass(frozen=True)
class SwarmState:
    """All agents' iterates at step ``k`` (a row per agent), with their coupling products.

    ``Ax[i] = A_i x_i`` and ``Ax_prime[i] = A_i x'_i``, all stored agents
    innermost.  The constructor does not take the products: only
    :meth:`build` (used by ``init_state``, ``from_dict`` and
    ``apply_disturbance``), which computes them from copies of the iterates,
    and ``iterate``, which has just computed them, set them, and both make
    every array read-only.  So an in-place ``state.x += ...`` raises, and a
    state made by the constructor or ``dataclasses.replace`` has no products:
    reading ``Ax`` raises ``AttributeError`` instead of returning products of
    other decisions.
    """

    k: int
    mode: str
    x: np.ndarray        # (n, p)
    x_prime: np.ndarray  # (n, p)
    y: np.ndarray        # (n, m)
    lam: np.ndarray      # (n, m)
    delta: np.ndarray | None  # (n, m) in inequality mode
    Ax: np.ndarray = dataclasses.field(init=False, repr=False)       # (n, m)
    Ax_prime: np.ndarray = dataclasses.field(init=False, repr=False)  # (n, m)

    @classmethod
    def _with_products(cls, k, mode, x, x_prime, y, lam, delta, Ax, Ax_prime) -> "SwarmState":
        # the arrays must be owned by the new state: they are made read-only here
        state = cls(k=k, mode=mode, x=x, x_prime=x_prime, y=y, lam=lam, delta=delta)
        object.__setattr__(state, "Ax", Ax)
        object.__setattr__(state, "Ax_prime", Ax_prime)
        for arr in (x, x_prime, y, lam, delta, Ax, Ax_prime):
            if arr is not None:
                arr.setflags(write=False)
        return state

    def __reduce__(self):
        # copies and pickles are rebuilt through _with_products, so their arrays are read-only too
        return self._with_products, tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def build(
        cls,
        instance: ProblemInstance,
        *,
        k: int,
        mode: str,
        x,
        x_prime,
        y,
        lam,
        delta,
    ) -> "SwarmState":
        """A state from Fortran-ordered copies of the given iterates, with ``Ax`` and ``Ax_prime`` from them.

        The mode must be known and carry a queue exactly in inequality mode,
        and every array must have its (n, p) or (n, m) shape.
        """
        if mode not in (INEQUALITY, EQUALITY):
            raise ModeError(f"unknown mode {mode!r}")
        if mode == INEQUALITY and delta is None:
            raise ModeError("inequality mode needs a queue delta")
        if mode == EQUALITY and delta is not None:
            raise ModeError("equality mode has no queue delta")
        n, m, p = instance.A.shape
        arrays = {}
        for name, value, shape in (
            ("x", x, (n, p)),
            ("x_prime", x_prime, (n, p)),
            ("y", y, (n, m)),
            ("lam", lam, (n, m)),
            ("delta", delta, (n, m)),
        ):
            arr = arrays[name] = None if value is None else np.array(value, dtype=float, order="F")
            if arr is not None and arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        return cls._with_products(
            k=int(k),
            mode=mode,
            **arrays,
            Ax=np.einsum("nmp,np->nm", instance.A, arrays["x"]),
            Ax_prime=np.einsum("nmp,np->nm", instance.A, arrays["x_prime"]),
        )

    def to_dict(self) -> dict:
        """The iterates as JSON-ready lists; the products are not stored (``from_dict`` recomputes them)."""
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
    def from_dict(cls, data: dict, instance: ProblemInstance) -> "SwarmState":
        """Rebuild a state of ``instance`` through :meth:`build`."""
        return cls.build(
            instance,
            k=data["k"],
            mode=data["mode"],
            x=data["x"],
            x_prime=data["x_prime"],
            y=data["y"],
            lam=data["lam"],
            delta=data.get("delta"),
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
    """Build the iteration-0 state; the one place the start inputs are checked.

    ``y = 0`` and ``lam = 0``; ``delta = max(0, omega_0) * 1`` in inequality
    mode so the queue floor holds from the start.  ``at_demand`` places each
    decision at its demand vector when p == m and at the least-norm preimage
    ``projector @ d`` otherwise; ``zero`` starts at the origin; ``custom``
    takes ``x0`` with shape (n, p); ``x0_offset`` (shape (p,)) is added to
    every start.  A bad start input is a ``ConfigError``: an unknown init
    mode, ``custom`` without ``x0`` or ``x0`` with another init mode, or an
    ``x0``/``x0_offset`` that is not finite or not of its shape.  An unknown
    ``mode`` is a ``ModeError`` (from :meth:`SwarmState.build`).
    """
    if init_mode not in ("at_demand", "zero", "custom"):
        raise ConfigError(f"unknown init mode {init_mode!r}")
    if init_mode == "custom" and x0 is None:
        raise ConfigError("init mode 'custom' needs x0")
    if init_mode != "custom" and x0 is not None:
        raise ConfigError(f"x0 is only read by init mode 'custom', not {init_mode!r}")
    n, p, m = instance.n, instance.p, instance.m
    for name, value, shape in (("x0", x0, (n, p)), ("x0_offset", x0_offset, (p,))):
        try:
            fits = value is None or (np.shape(value) == shape and bool(np.all(np.isfinite(value))))
        except (TypeError, ValueError):  # a ragged list, or not numbers
            fits = False
        if not fits:
            raise ConfigError(f"{name} must be finite with shape {shape}")

    if init_mode == "custom":
        x = np.array(x0, dtype=float)
    elif init_mode == "zero":
        x = np.zeros((n, p))
    elif p == m:
        x = instance.d
    else:
        x = np.einsum("npm,nm->np", instance.projector_stack, instance.d)
    if x0_offset is not None:
        x = x + np.asarray(x0_offset, dtype=float)

    delta = None
    if mode == INEQUALITY:
        delta = np.full((n, m), max(0.0, hp.buffer.value(0)))

    return SwarmState.build(
        instance, k=0, mode=mode, x=x, x_prime=x, y=np.zeros((n, m)), lam=np.zeros((n, m)), delta=delta
    )


def iterate(state: SwarmState, instance: ProblemInstance, hp: HyperParams) -> SwarmState:
    """Advance the swarm by one full synchronous iteration.

    Neighbor reductions are computed centrally from sub-round snapshots (the
    simulated network) by ``Topology.mix``, which is ``L @ v``: the dense
    product for small swarms, and above ``DENSE_MIX_MAX_N`` agents a sum over
    the edges at each agent only, O(|E|) per sub-round.  Each local update is
    one array operation over all agents' rows, and row ``i`` reads only agent
    ``i``'s iterates and mixed messages, as in the distributed algorithm.

    ``A_i x_i`` and ``A_i x'_i`` are read from the state, and the returned
    state carries the new ones, so each product is computed once per
    iteration.  The updates run in place on arrays allocated here: each step
    is one operation of the expression in the comment above it, on the same
    operands (IEEE sums and products are commutative), so every rounding is
    that of the expression.
    """
    A, d, mix = instance.A, instance.d, instance.topology.mix
    alpha, beta, eta, gamma = hp.alpha, hp.beta, hp.eta, hp.gamma
    inequality = state.mode == INEQUALITY
    x_prime, y, lam, delta = state.x_prime, state.y, state.lam, state.delta
    Ax, Ax_prime = state.Ax, state.Ax_prime

    # sub-round 1: mix duals and auxiliaries from the k-snapshot, then form
    # z = A x' + y_bar (+ delta) and the gradient 2 P x' - Q
    lambda_bar = mix(lam)
    y_bar = mix(y)
    z = Ax_prime + y_bar
    if inequality:
        z += delta
    grad = instance.gradient(x_prime)

    # sub-round 2: mix z; primal, auxiliary and queue updates
    #   x'_next = x' - alpha (grad + A'v) with v = z - d + lam
    #   y_next = y - alpha (z_bar + lambda_bar)
    #   delta_next = max(delta - alpha v, omega_k)
    z_bar = mix(z)
    v = z - d
    v += lam
    primal_step = np.einsum("nmp,nm->np", A, v)
    primal_step += grad
    primal_step *= alpha
    x_prime_next = x_prime - primal_step
    z_bar += lambda_bar
    z_bar *= alpha
    y_next = y - z_bar
    delta_next = None
    if inequality:
        v *= alpha
        delta_next = delta - v
        np.maximum(delta_next, hp.buffer.value(state.k), out=delta_next)

    # sub-round 3: mix the new auxiliaries; dual update and projection
    #   lam_next = lam + beta (z_next - d - eta A (A'lam + grad))
    #   with z_next = A x'_next + y_bar_next (+ delta_next)
    y_bar_next = mix(y_next)
    Ax_prime_next = np.einsum("nmp,np->nm", A, x_prime_next)
    lam_next = Ax_prime_next + y_bar_next
    if inequality:
        lam_next += delta_next
    At_lam = np.einsum("nmp,nm->np", A, lam)
    At_lam += grad
    damping = np.einsum("nmp,np->nm", A, At_lam)
    damping *= eta
    lam_next -= d
    lam_next -= damping
    lam_next *= beta
    lam_next += lam

    #   b = Ax - gamma (Ax + y_bar_next (+ delta_next) - d) (+ (1 - gamma)(delta - delta_next))
    #   x_next = x'_next + A'(AA')^{-1} (b - A x'_next)
    pull = Ax + y_bar_next
    if inequality:
        pull += delta_next
    pull -= d
    pull *= gamma
    b = Ax - pull
    if inequality:
        queue_release = delta - delta_next
        queue_release *= 1.0 - gamma
        b += queue_release
    b -= Ax_prime_next
    x_next = np.einsum("npm,nm->np", instance.projector_stack, b)
    x_next += x_prime_next
    Ax_next = np.einsum("nmp,np->nm", A, x_next)

    # a non-finite entry of any returned field at agent i reaches x_next[i] or
    # lam_next[i]: x'_next directly, y_next through mix's l_ii y_i (l_ii > 0
    # for n >= 2; 0 * inf is NaN at n = 1), delta_next through pull and b.
    # Only if a sum is not finite are the fields searched (a finite sum can
    # also overflow, and then nothing is found)
    if not math.isfinite(float(x_next.sum()) + float(lam_next.sum())):
        fields = {"x": x_next, "x_prime": x_prime_next, "y": y_next, "lambda": lam_next}
        if inequality:
            fields["delta"] = delta_next
        for name, arr in fields.items():
            rows = np.nonzero(~np.isfinite(arr))[0]
            if rows.size:
                bad = sorted(set(rows.tolist()))
                raise DivergenceError(
                    f"non-finite {name} at iteration {state.k} (agents {bad})",
                    k=state.k,
                    agents=bad,
                )

    return SwarmState._with_products(
        k=state.k + 1,
        mode=state.mode,
        x=x_next,
        x_prime=x_prime_next,
        y=y_next,
        lam=lam_next,
        delta=delta_next,
        Ax=Ax_next,
        Ax_prime=Ax_prime_next,
    )
