"""One synchronous iteration of the anytime-feasible allocation algorithm.

Each iteration runs two neighbor exchanges and five local updates, in this
order: form z from the mixed auxiliaries y_bar = L y and mix z + lambda (one
message: L z + L lambda = L (z + lambda)); update the virtual decision x', the
auxiliary y, and (inequality mode) the queue delta; mix the new y; update the
dual lambda; project x' onto the per-agent affine target set.  The
projection is closed-form (``x = x' + A'(AA')^{-1}(b - Ax')``), never an
iterative QP solve.

A state carries the coupling products ``A_i x_i`` and ``A_i x'_i`` and the
mixed auxiliaries ``y_bar`` next to the iterates, so each is computed once:
``iterate`` computes them for the state it returns and reads them from the
state it is given (the new y's mix is the next iteration's y_bar), and the
recorded violation and slack read ``Ax``.  A state's arrays are read-only
and its fields cannot be reassigned, so a product cannot go stale; a state
with other values is built with :meth:`SwarmState.build`, which recomputes
them (a state made by the constructor or ``dataclasses.replace`` has no
products at all).

A state is in inequality mode exactly when it carries the virtual queue
``delta``: ``init_state`` is the one place where a mode name becomes a queue
or none, and ``iterate`` branches on ``delta is not None``.  The queue's
floor at step k is ``hp.buffer.value(k)``.

Every array of a state is stored agents innermost (Fortran order), like the
instance stacks, so each batched product runs along the agents: ``build``
copies the iterates so, and ``iterate``'s operations keep their operands'
layout.  Sums over agents (``problem.agent_sum``) keep the row-major order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, DivergenceError
from .problem import EQUALITY, INEQUALITY, HyperParams, ProblemInstance


@dataclasses.dataclass(frozen=True)
class SwarmState:
    """All agents' iterates at step ``k`` (a row per agent), with their coupling products and mixed ``y``.

    ``Ax[i] = A_i x_i``, ``Ax_prime[i] = A_i x'_i`` and ``y_bar = L y``
    (``Topology.mix(y)``), all stored agents innermost.  The constructor
    does not take these products: only :meth:`build` (used by
    ``init_state``, ``from_dict`` and ``apply_disturbance``), which computes
    them from copies of the iterates, and ``iterate``, which has just
    computed them, set them, and both make every array read-only.  So an
    in-place ``state.x += ...`` raises, and a state made by the constructor
    or ``dataclasses.replace`` has no products: reading ``Ax`` raises
    ``AttributeError`` instead of returning products of other decisions.
    """

    k: int
    x: np.ndarray        # (n, p)
    x_prime: np.ndarray  # (n, p)
    y: np.ndarray        # (n, m)
    lam: np.ndarray      # (n, m)
    delta: np.ndarray | None  # (n, m) in inequality mode, None in equality mode
    Ax: np.ndarray = dataclasses.field(init=False, repr=False)       # (n, m)
    Ax_prime: np.ndarray = dataclasses.field(init=False, repr=False)  # (n, m)
    y_bar: np.ndarray = dataclasses.field(init=False, repr=False)     # (n, m)

    @classmethod
    def _with_products(cls, k, x, x_prime, y, lam, delta, Ax, Ax_prime, y_bar) -> "SwarmState":
        # the arrays must be owned by the new state: they are made read-only here
        state = cls(k=k, x=x, x_prime=x_prime, y=y, lam=lam, delta=delta)
        object.__setattr__(state, "Ax", Ax)
        object.__setattr__(state, "Ax_prime", Ax_prime)
        object.__setattr__(state, "y_bar", y_bar)
        for arr in (x, x_prime, y, lam, delta, Ax, Ax_prime, y_bar):
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
        x,
        x_prime,
        y,
        lam,
        delta,
    ) -> "SwarmState":
        """A state from Fortran-ordered copies of the given iterates, with ``Ax``, ``Ax_prime``, ``y_bar`` of them.

        ``delta=None`` builds an equality-mode state, and every array must
        have its (n, p) or (n, m) shape.
        """
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
            **arrays,
            Ax=np.einsum("nmp,np->nm", instance.A, arrays["x"]),
            Ax_prime=np.einsum("nmp,np->nm", instance.A, arrays["x_prime"]),
            y_bar=instance.topology.mix(arrays["y"]),
        )

    def to_dict(self) -> dict:
        """The iterates as JSON-ready lists; the products are not stored (``from_dict`` recomputes them)."""
        return {
            "k": self.k,
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

    ``y = 0`` and ``lam = 0``.  ``mode`` decides the queue: inequality mode
    starts it at ``delta = omega_0 * 1``, so its floor holds from the start,
    and equality mode has none.  ``at_demand`` places each
    decision at its demand vector when p == m and at the least-norm preimage
    ``projector @ d`` otherwise; ``zero`` starts at the origin; ``custom``
    takes ``x0`` with shape (n, p); ``x0_offset`` (shape (p,)) is added to
    every start.  A bad start input is a ``ConfigError``: an unknown mode or
    init mode, ``custom`` without ``x0`` or ``x0`` with another init mode, or
    an ``x0``/``x0_offset`` that is not finite or not of its shape.
    """
    if mode not in (INEQUALITY, EQUALITY):
        raise ConfigError(f"unknown mode {mode!r}")
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

    delta = np.full((n, m), hp.buffer.value(0)) if mode == INEQUALITY else None

    return SwarmState.build(
        instance, k=0, x=x, x_prime=x, y=np.zeros((n, m)), lam=np.zeros((n, m)), delta=delta
    )


def iterate(state: SwarmState, instance: ProblemInstance, hp: HyperParams) -> SwarmState:
    """Advance the swarm by one full synchronous iteration.

    Neighbor reductions are computed centrally from sub-round snapshots (the
    simulated network) by ``Topology.mix``, which is ``L @ v``: the dense
    product for small swarms, and above ``DENSE_MIX_MAX_N`` agents a sum over
    the edges at each agent only, O(|E|) per exchange.  There are two
    exchanges per iteration: ``z + lam`` and the new ``y``.  Each local update
    is one array operation over all agents' rows, and row ``i`` reads only
    agent ``i``'s iterates and mixed messages, as in the distributed
    algorithm.

    ``A_i x_i``, ``A_i x'_i`` and ``y_bar = L y`` are read from the state, and
    the returned state carries the new ones, so each is computed once per
    iteration.  The updates run in place on arrays allocated here: each step
    is one operation of the expression in the comment above it, on the same
    operands (IEEE sums and products are commutative), so every rounding is
    that of the expression.
    """
    A, d, mix = instance.A, instance.d, instance.topology.mix
    alpha, beta, eta, gamma = hp.alpha, hp.beta, hp.eta, hp.gamma
    inequality = state.delta is not None
    x_prime, y, lam, delta = state.x_prime, state.y, state.lam, state.delta
    Ax, Ax_prime, y_bar = state.Ax, state.Ax_prime, state.y_bar

    # sub-round 1: from the k-snapshot form z = A x' + y_bar (+ delta), with
    # y_bar = L y carried from the last iteration's second exchange, and the
    # gradient 2 P x' - Q
    z = Ax_prime + y_bar
    if inequality:
        z += delta
    grad = instance.gradient(x_prime)

    # sub-round 2: mix z + lam as one message; primal, auxiliary and queue updates
    #   x'_next = x' - alpha (grad + A'v) with v = z - d + lam
    #   y_next = y - alpha L (z + lam)
    #   delta_next = max(delta - alpha v, omega_k)
    v = z - d
    v += lam
    z += lam
    mixed = mix(z)
    primal_step = np.einsum("nmp,nm->np", A, v)
    primal_step += grad
    primal_step *= alpha
    x_prime_next = x_prime - primal_step
    mixed *= alpha
    y_next = y - mixed
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
    # lam_next[i]: x'_next directly, y_bar_next and delta_next through pull
    # and b, y_next through y_bar_next's l_ii y_i (l_ii > 0 for n >= 2;
    # 0 * inf is NaN at n = 1).
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
        x=x_next,
        x_prime=x_prime_next,
        y=y_next,
        lam=lam_next,
        delta=delta_next,
        Ax=Ax_next,
        Ax_prime=Ax_prime_next,
        y_bar=y_bar_next,
    )
