"""One synchronous iteration of the anytime-feasible allocation algorithm.

Each computed iteration (not a reused fixed point, below) runs two neighbor
exchanges and five local updates, in this order: mix v = z - d + lambda (each
agent sends v_i = z_i - d_i + lambda_i); update the virtual decision x', the
auxiliary y, and (inequality mode) the queue delta; mix the new y; update the
dual lambda with the new z; project x' onto the per-agent affine target set.
The projection is closed-form (``x = x' + A'(AA')^{-1}(b - Ax')``), never an
iterative QP solve.  The equations are written only in ``_step``, over plain
arrays: ``iterate`` wraps one call of it in checks, reuse and the state, and
``tests/test_exact_step.py`` runs it over ``Fraction``s.

A state carries the coupling product ``A_i x_i`` and the message
``z_i = A_i x'_i + sum_j l_ij y_j (+ delta_i)`` next to the iterates, so each
is computed once: ``iterate`` forms them for the state it returns (the z its
dual update reads is the next step's z) and reads them from the state it is
given, and the recorded violation and slack share one sum of ``Ax`` over the
agents (``SwarmState.Ax_sum``, computed on first use).  A state's arrays are
read-only and its fields cannot be reassigned, so a product cannot go stale:
states come only from :meth:`SwarmState.build` (which ``init_state``,
``from_dict`` and ``apply_disturbance`` call), which computes them, and from
``iterate`` (calling the class or ``dataclasses.replace`` raises).

A state is in inequality mode exactly when it carries the virtual queue
``delta``: ``init_state`` is the one place where a mode name becomes a queue
or none, and ``_step`` branches on ``delta is not None``.  The queue's
floor at step k is ``hp.buffer.value(k)``.

Fixed points: a computed step whose output has its input's bits in the six
arrays a step reads (``x'``, ``y``, ``lam``, ``delta``, ``Ax``, ``z``;
compared only when the ``lam`` sums are equal) marks the returned
state fixed under ``(instance, hp, floor)``, for ``iterate`` to reuse.  Only
``iterate`` marks: a state from ``build``, ``from_dict``,
``apply_disturbance``, a copy or a pickle is always stepped in full.

Every array of a state is stored agents innermost (Fortran order), like the
instance stacks, so each batched product runs along the agents: ``build``
copies the iterates so, and ``iterate``'s operations keep their operands'
layout.  Sums over agents (``problem.agent_sum``) keep the row-major order.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import ConfigError, DivergenceError, InvalidInstanceError
from .problem import (
    EQUALITY, INEQUALITY, HyperParams, ProblemInstance, _checked, _Object, _real_shaped, _whole_number, agent_sum
)

# A state document, ``SwarmState.to_dict``'s: its six keys, each value left to ``SwarmState.build``.
_STATE_KEYS = ("k", "x", "x_prime", "y", "lam", "delta")
_STATE_DOCUMENT = _Object(dict.fromkeys(_STATE_KEYS, object), _STATE_KEYS)


@dataclasses.dataclass(frozen=True, init=False, eq=False)
class SwarmState:
    """All agents' iterates at step ``k`` (a row per agent), with two products of them, ``Ax`` and ``z``.

    ``Ax[i] = A_i x_i`` and ``z[i] = A_i x'_i + (L y)_i (+ delta_i in
    inequality mode)``, with ``L y = Topology.mix(y)``, both stored agents
    innermost.  Only :meth:`build`, which computes the products from copies
    of the iterates, and ``iterate``, which has just computed them, make a
    state, and both make every array read-only (``state.x += 1`` raises);
    calling the class or ``dataclasses.replace`` raises ``InvalidInstanceError``.
    """

    k: int
    x: np.ndarray        # (n, p)
    x_prime: np.ndarray  # (n, p)
    y: np.ndarray        # (n, m)
    lam: np.ndarray      # (n, m)
    delta: np.ndarray | None  # (n, m) in inequality mode, None in equality mode
    Ax: np.ndarray = dataclasses.field(repr=False)  # (n, m)
    z: np.ndarray = dataclasses.field(repr=False)   # (n, m)

    def __init__(self, *args, **kwargs):
        raise InvalidInstanceError("a SwarmState is made by SwarmState.build, init_state or iterate")

    @classmethod
    def _make(cls, shared=(), **fields) -> "SwarmState":
        state = object.__new__(cls)  # the one place a state is created: shared's attributes (a state's), then fields
        vars(state).update(shared, **fields)
        return state

    @classmethod
    def _with_products(cls, k, x, x_prime, y, lam, delta, Ax, z) -> "SwarmState":
        # the arrays must be owned by the new state: they are made read-only here
        for arr in (x, x_prime, y, lam, delta, Ax, z):
            if arr is not None:
                arr.setflags(write=False)
        return cls._make(k=k, x=x, x_prime=x_prime, y=y, lam=lam, delta=delta, Ax=Ax, z=z)

    def _check_sizes(self, instance: ProblemInstance) -> None:
        sizes = (*self.z.shape, self.x.shape[1])
        if sizes != instance.A.shape:  # rows of another instance: a typed error, not a broadcast or a wrong sum
            raise InvalidInstanceError(f"a state of (n, m, p) = {sizes} used with an instance of {instance.A.shape}")

    def __reduce__(self):
        # copies and pickles are rebuilt through _with_products: their arrays are read-only, and unmarked
        return self._with_products, tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @functools.cached_property
    def Ax_sum(self) -> np.ndarray:
        """``sum_i A_i x_i`` (``problem.agent_sum(Ax)``), read-only; computed on first use, so a recorded
        row's violation and slack share one sum over the agents."""
        total = agent_sum(self.Ax)
        total.setflags(write=False)
        return total

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
        """A state from Fortran-ordered copies of the given iterates, with ``Ax`` and ``z`` of them.

        ``delta=None`` builds an equality-mode state.  A ``k`` not a whole number >= 0, or an iterate with an entry
        that is not a number or not of its (n, p) or (n, m) shape, is an ``InvalidInstanceError``; non-finite values
        are kept for ``iterate`` to report.
        """
        k = _whole_number(k, "k", InvalidInstanceError)
        if k < 0:
            raise InvalidInstanceError(f"k must be >= 0, got {k}")
        n, m, p = instance.A.shape
        arrays = {"delta": None}
        for name, value in {"x": x, "x_prime": x_prime, "y": y, "lam": lam, "delta": delta}.items():
            if value is not None or name != "delta":  # a null delta: an equality-mode state
                arrays[name] = _real_shaped(value, name, (n, p) if name in ("x", "x_prime") else (n, m))
        z = np.einsum("nmp,np->nm", instance.A, arrays["x_prime"]) + instance.topology.mix(arrays["y"])
        if delta is not None:
            z = z + arrays["delta"]
        return cls._with_products(k=k, **arrays, Ax=np.einsum("nmp,np->nm", instance.A, arrays["x"]), z=z)

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
        """Rebuild a state of ``instance`` from ``to_dict``'s document through :meth:`build`.

        A document that is not an object with exactly ``to_dict``'s six keys (the message names the key), anything
        :meth:`build` rejects, and a non-finite iterate raise ``InvalidInstanceError``; ``delta`` may be null.
        """
        state = cls.build(instance, **_checked(data, _STATE_DOCUMENT, InvalidInstanceError, "state document"))
        for name in _STATE_KEYS[1:]:
            if getattr(state, name) is not None and not np.isfinite(getattr(state, name)).all():
                raise InvalidInstanceError(f"{name} must be finite")
        return state


def init_state(
    instance: ProblemInstance,
    hp: HyperParams,
    init_mode: str = "at_demand",
    *,
    mode: str = INEQUALITY,
) -> SwarmState:
    """Build the iteration-0 state; the one place the start inputs are checked.

    ``y = 0`` and ``lam = 0``.  ``mode`` decides the queue: inequality mode
    starts it at ``delta = omega_0 * 1``, so its floor holds from the start,
    and equality mode has none.  ``at_demand`` places each
    decision at its demand vector when p == m and at the least-norm preimage
    ``projector @ d`` otherwise; ``zero`` starts at the origin (a shifted
    start is a ``netsim.DisturbanceEvent`` at iteration 0).  An unknown mode or
    init mode is a ``ConfigError``, and an ``hp`` that is not a ``HyperParams``
    an ``InvalidInstanceError``.
    """
    if not isinstance(hp, HyperParams):
        raise InvalidInstanceError(f"hp must be a HyperParams, got {hp!r}")
    if mode not in (INEQUALITY, EQUALITY):
        raise ConfigError(f"unknown mode {mode!r}")
    if init_mode not in ("at_demand", "zero"):
        raise ConfigError(f"unknown init mode {init_mode!r}")
    n, p, m = instance.n, instance.p, instance.m

    if init_mode == "zero":
        x = np.zeros((n, p))
    elif p == m:
        x = instance.d
    else:
        x = np.einsum("npm,nm->np", instance.projector_stack, instance.d)

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
    exchanges per iteration: each agent sends ``v_i = z_i - d_i + lam_i``,
    then its new ``y_i``.  Each local update is one array expression over all
    agents' rows, and row ``i`` reads only agent ``i``'s iterates and mixed
    messages, as in the distributed algorithm.

    ``A_i x_i`` and ``z`` are read from the state, and the returned state
    carries the new ones, so each is computed once per iteration.  A state
    not of ``instance``'s sizes raises ``InvalidInstanceError``.

    A state marked fixed (see the module docstring) is returned at ``k + 1``
    with its arrays shared, without arithmetic or exchanges, when ``instance``
    and ``hp`` are the objects it was marked under and the floor is equal; so
    the two exchanges per iteration hold only for steps that are computed.
    """
    if not (isinstance(state, SwarmState) and isinstance(hp, HyperParams)):
        raise InvalidInstanceError(f"need a SwarmState and a HyperParams, got {type(state).__name__}, {type(hp).__name__}")
    floor = None if state.delta is None else hp.buffer.value(state.k)
    mark = state.__dict__.get("_fixed_under")
    if mark is not None and mark[0] is instance and mark[1] is hp and mark[2] == floor:
        return SwarmState._make(state.__dict__, k=state.k + 1)  # shares the arrays, the cached Ax_sum and the mark
    state._check_sizes(instance)
    x_next, x_prime_next, y_next, lam_next, delta_next, Ax_next, z_next = _step(
        state.x_prime, state.y, state.lam, state.delta, state.Ax, state.z, instance.A, instance.d,
        instance.projector_stack, instance._gradient(state.x_prime), instance.topology.mix,
        hp.alpha, hp.beta, hp.eta, hp.gamma, floor,
    )  # the gradient is of the state's own x': only a generic cost's result needs a check

    # a non-finite entry of any returned field at agent i reaches x_next[i] or
    # lam_next[i] (x'_next and z_next directly, y_bar_next and delta_next through
    # pull and b, y_next through y_bar_next's l_ii y_i: l_ii > 0 for n >= 2, and
    # 0 * inf is NaN at n = 1), so only those two are searched, and only if a sum
    # is not finite (a finite sum can also overflow, and then nothing is found)
    lam_sum = float(lam_next.sum())
    if not math.isfinite(float(x_next.sum()) + lam_sum):
        for name, arr in (("x", x_next), ("lambda", lam_next)):
            rows = np.nonzero(~np.isfinite(arr))[0]
            if rows.size:
                bad = sorted(set(rows.tolist()))
                raise DivergenceError(
                    f"non-finite {name} at iteration {state.k} (agents {bad})",
                    k=state.k,
                    agents=bad,
                )

    out = SwarmState._with_products(state.k + 1, x_next, x_prime_next, y_next, lam_next, delta_next, Ax_next, z_next)
    # equal sums of lam, then equal bits in the six arrays a step reads (x enters only through Ax)
    object.__setattr__(out, "_lam_sum", lam_sum)
    if lam_sum == state.__dict__.get("_lam_sum") and all(
        getattr(state, f) is None or getattr(state, f).tobytes() == getattr(out, f).tobytes()
        for f in ("x_prime", "y", "lam", "delta", "Ax", "z")
    ):
        object.__setattr__(out, "_fixed_under", (instance, hp, floor))
    return out


def _step(x_prime, y, lam, delta, Ax, z, A, d, projector_stack, grad, mix, alpha, beta, eta, gamma, floor):
    """The update equations, written only here: one computed step's next ``(x, x', y, lam, delta, Ax, z)``.  Nothing
    is checked and no dtype or memory order is fixed, so ``Fraction`` arrays stay exact; ``delta=None``: equality mode.
    """
    # sub-round 1: z is the k-snapshot's, carried from the last iteration's
    # second exchange; sub-round 2: mix v = z - d + lam; primal, auxiliary
    # and queue updates
    v = z - d + lam
    x_prime_next = x_prime - alpha * (np.einsum("nmp,nm->np", A, v) + grad)
    y_next = y - alpha * mix(v)
    delta_next = None if delta is None else np.maximum(delta - alpha * v, floor)

    # sub-round 3: mix the new auxiliaries; dual update and projection
    y_bar_next = mix(y_next)
    Ax_prime_next = np.einsum("nmp,np->nm", A, x_prime_next)
    z_next = Ax_prime_next + y_bar_next
    pull = Ax + y_bar_next
    if delta is not None:
        z_next = z_next + delta_next
        pull = pull + delta_next
    lam_next = lam + beta * (z_next - d - eta * np.einsum("nmp,np->nm", A, np.einsum("nmp,nm->np", A, lam) + grad))
    b = Ax - gamma * (pull - d)
    if delta is not None:
        b = b + (1 - gamma) * (delta - delta_next)
    x_next = np.einsum("npm,nm->np", projector_stack, b - Ax_prime_next) + x_prime_next
    return x_next, x_prime_next, y_next, lam_next, delta_next, np.einsum("nmp,np->nm", A, x_next), z_next
