"""Synchronous experiment driver: runs iterations, injects disturbances, records traces."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engine import SwarmState, init_state, iterate
from .errors import ConfigError, DivergenceError, InvalidInstanceError
from .metrics import optimality_gap, slack_sum, violation_l1
from .oracle import OracleSolution
from .problem import EQUALITY, INEQUALITY, HyperParams, ProblemInstance, _real_array, _whole_number


@dataclass(frozen=True, eq=False)
class DisturbanceEvent:
    """Additive interference on every agent's decisions at one iteration.

    ``additive`` (shape (p,)) is added to each agent's decision ``x_i`` and
    virtual decision ``x'_i``, so the interference genuinely stresses
    recovery instead of being pulled back by the still-clean projection
    target.  Queues and duals are never touched.  An event at iteration 0
    shifts the start state, which the first step consumes.
    """

    at_iteration: int
    additive: np.ndarray

    def __post_init__(self):
        additive = _real_array(self.additive, "disturbance vector", ConfigError)
        if not np.isfinite(additive).all():
            raise ConfigError("disturbance vector must be finite")
        at_iteration = _whole_number(self.at_iteration, "at_iteration", ConfigError)
        if at_iteration < 0:
            raise ConfigError(f"at_iteration must be >= 0, got {at_iteration}")
        additive.setflags(write=False)
        vars(self).update(at_iteration=at_iteration, additive=additive)


def _check_fits(event: DisturbanceEvent, p: int) -> None:
    if event.additive.shape != (p,):
        raise ConfigError(f"disturbance at iteration {event.at_iteration}: additive must have shape ({p},)")


def apply_disturbance(state: SwarmState, instance: ProblemInstance, event: DisturbanceEvent) -> SwarmState:
    """The state with ``event.additive`` added to every agent's ``x`` and ``x'``, and its products recomputed."""
    _check_fits(event, instance.p)
    x, x_prime = state.x + event.additive, state.x_prime + event.additive
    return SwarmState.build(instance, k=state.k, x=x, x_prime=x_prime, y=state.y, lam=state.lam, delta=state.delta)


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Everything needed for one deterministic run, checked against the instance before it starts.

    ``start``, the state the first step consumes, is ``init_state``'s with the disturbances at
    iteration 0 applied in order; built with the plan (a bad start input rejects it), it is derived
    and read-only.  Equality mode has no queue, so its ``hp.buffer`` must be zero
    (``hp.buffer.value(0) == 0``); any other floor is a ``ConfigError``.
    """

    instance: ProblemInstance
    hp: HyperParams
    iters: int
    mode: str = INEQUALITY
    disturbances: tuple[DisturbanceEvent, ...] = ()
    record_every: int = 1
    init_mode: str = "at_demand"
    start: SwarmState = field(init=False, repr=False)

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
        start = init_state(self.instance, self.hp, self.init_mode, mode=self.mode)
        if self.mode == EQUALITY and self.hp.buffer.value(0) > 0:  # a schedule's first floor is its largest
            raise ConfigError(f"hp.buffer must be zero in equality mode, which has no queue, got {self.hp.buffer}")
        for ev in events:
            if ev.at_iteration >= self.iters:
                raise ConfigError(
                    f"disturbance at iteration {ev.at_iteration} never fires in a "
                    f"{self.iters}-iteration run"
                )
            _check_fits(ev, self.instance.p)
            if ev.at_iteration == 0:
                start = apply_disturbance(start, self.instance, ev)
        object.__setattr__(self, "start", start)


# Rows of trace.csv formatted and written at once: large enough that the
# per-block overhead vanishes, small enough that the block's strings stay near
# 100 kB.
CSV_BLOCK_ROWS = 1000


@dataclass(eq=False)
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
        """Rows ``start:stop`` (whole numbers, as in a slice) as CSV, after the header line when ``start`` is 0.

        With no arguments this is the whole file.  Floats are written in
        ``.17g`` (round-trip exact), each column formatted from Python floats
        (``tolist``); ``to_csv`` asks for one ``CSV_BLOCK_ROWS``-row block at a
        time, so the formatted strings of only one block are alive at once.
        """
        start = _whole_number(start, "start", InvalidInstanceError)
        stop = None if stop is None else _whole_number(stop, "stop", InvalidInstanceError)
        ks, slack = np.asarray(self.ks), np.asarray(self.slack)
        rows = slice(start, stop)
        floats = [] if self.gap is None else [np.asarray(self.gap)]
        floats += [np.asarray(self.violation_l1), *slack.T]
        header = ""
        if start == 0:
            names = ["k"] + (["gap"] if self.gap is not None else [])
            names += ["violation_l1"] + [f"slack_{j}" for j in range(slack.shape[1])]
            header = ",".join(names) + "\n"
        columns = [[str(int(k)) for k in ks[rows].tolist()]]
        columns += [[f"{v:.17g}" for v in col[rows].tolist()] for col in floats]
        return header + "".join(",".join(row) + "\n" for row in zip(*columns))

    def to_csv(self, path) -> None:
        """Write ``csv_text()`` to ``path`` one ``CSV_BLOCK_ROWS``-row block at a time (the header with the first)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for start in range(0, max(len(self.ks), 1), CSV_BLOCK_ROWS):
                fh.write(self.csv_text(start, start + CSV_BLOCK_ROWS))


def _check_recorded(ks, viols, slacks, gaps, start: int, stop: int) -> None:
    """Raise ``DivergenceError`` at the first of the recorded rows ``start:stop`` with a non-finite value."""
    rows = slice(start, stop)
    finite = np.isfinite(viols[rows]) & np.isfinite(slacks[rows]).all(axis=1)
    finite &= np.isfinite((viols if gaps is None else gaps)[rows])
    if not finite.all():
        row = start + int(np.argmin(finite))
        columns = {"gap": gaps, "violation_l1": viols, "slack": slacks}
        name = next(name for name, col in columns.items() if col is not None and not np.isfinite(col[row]).all())
        raise DivergenceError(f"non-finite {name} recorded at k = {ks[row]}", k=int(ks[row]))


def run_experiment(plan: ExperimentPlan, oracle_solution: OracleSolution | None = None) -> Trace:
    """Run the plan from ``plan.start`` and record metrics after each full iteration (post-projection).

    A disturbance at iteration k >= 1 is applied once, right after the k-state
    is produced and recorded; those at iteration 0 are in ``plan.start``.  Rows
    are recorded at every ``record_every``-th iteration and always at the final
    one; the gap column is present only when an oracle solution is supplied.
    The recorded ks are known before the run, so each row is written into
    columns allocated up front: 8 * (m + 3) bytes per row, with no per-row
    Python objects kept.  A non-finite recorded value (which can overflow on
    finite iterates) is a ``DivergenceError``, as a non-finite iterate is,
    raised within ``CSV_BLOCK_ROWS`` rows of it and with no ``RuntimeWarning``.
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as the divergence it is
        for _ in range(iters):
            state = iterate(state, instance, hp)
            if state.k == next_k:
                viols[row] = violation_l1(instance, state)
                slacks[row] = slack_sum(instance, state)
                if gaps is not None:
                    gaps[row] = optimality_gap(state.x, oracle_solution)
                row += 1
                next_k = int(ks[row]) if row < rows else None
                if row % CSV_BLOCK_ROWS == 0:
                    _check_recorded(ks, viols, slacks, gaps, row - CSV_BLOCK_ROWS, row)
            for ev in events.get(state.k, ()):
                state = apply_disturbance(state, instance, ev)
    elapsed = time.perf_counter() - start
    _check_recorded(ks, viols, slacks, gaps, row - row % CSV_BLOCK_ROWS, row)

    return Trace(
        ks=ks,
        violation_l1=viols,
        slack=slacks,
        gap=gaps,
        wallclock_per_iteration=elapsed / plan.iters,
        final_state=state,
    )
