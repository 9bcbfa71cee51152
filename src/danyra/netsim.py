"""Synchronous experiment driver: runs iterations, injects disturbances, records traces."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engine import SwarmState, _real_vector, init_state, iterate
from .errors import ConfigError
from .metrics import optimality_gap, slack_sum, violation_l1
from .oracle import OracleSolution
from .problem import INEQUALITY, HyperParams, ProblemInstance, _whole_number


@dataclass(frozen=True)
class DisturbanceEvent:
    """Additive interference on every agent's decisions at one iteration.

    ``additive`` (shape (p,)) is added to each agent's decision ``x_i`` and
    virtual decision ``x'_i``, so the interference genuinely stresses
    recovery instead of being pulled back by the still-clean projection
    target.  Queues and duals are never touched.
    """

    at_iteration: int
    additive: np.ndarray

    def __post_init__(self):
        additive = _real_vector(self.additive, "disturbance vector")
        at_iteration = _whole_number(self.at_iteration, "at_iteration", ConfigError)
        if at_iteration < 1:
            raise ConfigError(f"at_iteration must be >= 1, got {at_iteration}")
        additive.setflags(write=False)
        object.__setattr__(self, "at_iteration", at_iteration)
        object.__setattr__(self, "additive", additive)


def _check_fits(event: DisturbanceEvent, p: int) -> None:
    if event.additive.shape != (p,):
        raise ConfigError(f"disturbance at iteration {event.at_iteration}: additive must have shape ({p},)")


def apply_disturbance(state: SwarmState, instance: ProblemInstance, event: DisturbanceEvent) -> SwarmState:
    """The state with ``event.additive`` added to every agent's ``x`` and ``x'``, and its products recomputed."""
    _check_fits(event, instance.p)
    x, x_prime = state.x + event.additive, state.x_prime + event.additive
    return SwarmState.build(instance, k=state.k, x=x, x_prime=x_prime, y=state.y, lam=state.lam, delta=state.delta)


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed for one deterministic run, checked against the instance before it starts.

    ``start`` is the iteration-0 state that ``init_state`` builds from the start
    inputs when the plan is constructed, so a bad one rejects the plan; it is
    derived (not a constructor parameter) and read-only.
    """

    instance: ProblemInstance
    hp: HyperParams
    iters: int
    mode: str = INEQUALITY
    disturbances: tuple[DisturbanceEvent, ...] = ()
    record_every: int = 1
    init_mode: str = "at_demand"
    x0_offset: np.ndarray | None = None
    start: SwarmState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("iters", "record_every"):
            value = _whole_number(getattr(self, name), name, ConfigError)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        events = tuple(self.disturbances) if np.iterable(self.disturbances) else None
        if events is None or not all(isinstance(ev, DisturbanceEvent) for ev in events):
            raise ConfigError(f"disturbances must be a sequence of DisturbanceEvent, got {self.disturbances!r}")
        object.__setattr__(self, "disturbances", events)
        start = init_state(self.instance, self.hp, self.init_mode, mode=self.mode, x0_offset=self.x0_offset)
        object.__setattr__(self, "start", start)
        for ev in events:
            if ev.at_iteration >= self.iters:
                raise ConfigError(
                    f"disturbance at iteration {ev.at_iteration} never fires in a "
                    f"{self.iters}-iteration run"
                )
            _check_fits(ev, self.instance.p)


# Rows of trace.csv formatted and written at once: large enough that the
# per-block overhead vanishes, small enough that the block's strings stay near
# 100 kB.
CSV_BLOCK_ROWS = 1000


@dataclass
class Trace:
    """Recorded per-iteration metrics, plus the run's timing and last state.

    Rows are strictly increasing in k.  ``run_experiment`` fills the columns
    in place, so a recorded row keeps 8 * (m + 3) bytes (8 * (m + 2) without
    the gap column) and nothing else.  ``wallclock_per_iteration`` is the
    loop's mean: its wall-clock time over the iteration count, in seconds,
    cheap steps that reuse a fixed state (``danyra.engine``) included; it is
    informational and never written to the CSV.
    """

    ks: np.ndarray
    violation_l1: np.ndarray
    slack: np.ndarray  # (rows, m)
    gap: np.ndarray | None
    wallclock_per_iteration: float = 0.0
    final_state: SwarmState | None = None

    @property
    def final_gap(self) -> float | None:
        return None if self.gap is None else float(self.gap[-1])

    @property
    def final_violation(self) -> float:
        return float(self.violation_l1[-1])

    def csv_text(self, start: int = 0, stop: int | None = None) -> str:
        """Rows ``start:stop`` (as in a slice) as CSV, after the header line when ``start`` is 0.

        With no arguments this is the whole file.  Floats are written in
        ``.17g`` (round-trip exact), each column formatted from Python floats
        (``tolist``) a block of ``CSV_BLOCK_ROWS`` rows at a time, so the
        formatted strings of only one block are alive at once.
        """
        ks, slack = np.asarray(self.ks), np.asarray(self.slack)
        first, last, _ = slice(start, stop).indices(len(ks))
        floats = [] if self.gap is None else [np.asarray(self.gap)]
        floats += [np.asarray(self.violation_l1), *slack.T]
        parts = []
        if start == 0:
            header = ["k"] + (["gap"] if self.gap is not None else [])
            header += ["violation_l1"] + [f"slack_{j}" for j in range(slack.shape[1])]
            parts.append(",".join(header) + "\n")
        for lo in range(first, last, CSV_BLOCK_ROWS):
            rows = slice(lo, min(lo + CSV_BLOCK_ROWS, last))
            columns = [[str(int(k)) for k in ks[rows].tolist()]]
            columns += [[f"{v:.17g}" for v in col[rows].tolist()] for col in floats]
            parts.append("".join(",".join(row) + "\n" for row in zip(*columns)))
        return "".join(parts)

    def to_csv(self, path) -> None:
        """Write ``csv_text()`` to ``path`` one ``CSV_BLOCK_ROWS``-row block at a time (the header with the first)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for start in range(0, max(len(self.ks), 1), CSV_BLOCK_ROWS):
                fh.write(self.csv_text(start, start + CSV_BLOCK_ROWS))


def run_experiment(plan: ExperimentPlan, oracle_solution: OracleSolution | None = None) -> Trace:
    """Run the plan from ``plan.start`` and record metrics after each full iteration (post-projection).

    Disturbances scheduled at iteration k are applied right before the
    iteration consuming the k-state, matching an interference that lands after
    the k-state was produced.  Rows are recorded at every ``record_every``-th
    iteration and always at the final one; the gap column is present only when
    an oracle solution is supplied.  The recorded ks are known before the run,
    so each row is written into columns allocated up front: 8 * (m + 3) bytes
    per row, with no per-row Python objects kept.
    """
    instance, hp, state = plan.instance, plan.hp, plan.start
    events: dict[int, list[DisturbanceEvent]] = {}
    for ev in plan.disturbances:
        events.setdefault(ev.at_iteration, []).append(ev)

    iters, record_every = plan.iters, plan.record_every
    ks = np.arange(record_every, iters + 1, record_every, dtype=np.int64)
    if iters % record_every:
        ks = np.append(ks, np.int64(iters))
    rows = len(ks)
    viols = np.empty(rows)
    slacks = np.empty((rows, instance.m))
    gaps = None if oracle_solution is None else np.empty(rows)

    row, next_k = 0, int(ks[0])
    start = time.perf_counter()
    for _ in range(iters):
        for ev in events.get(state.k, ()):
            state = apply_disturbance(state, instance, ev)
        state = iterate(state, instance, hp)
        if state.k == next_k:
            viols[row] = violation_l1(instance, state)
            slacks[row] = slack_sum(instance, state)
            if gaps is not None:
                gaps[row] = optimality_gap(state.x, oracle_solution)
            row += 1
            next_k = int(ks[row]) if row < rows else None
    elapsed = time.perf_counter() - start

    return Trace(
        ks=ks,
        violation_l1=viols,
        slack=slacks,
        gap=gaps,
        wallclock_per_iteration=elapsed / plan.iters,
        final_state=state,
    )
