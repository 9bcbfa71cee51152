"""Synchronous experiment driver: runs iterations, injects disturbances, records traces."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engine import SwarmState, init_state, iterate
from .errors import ConfigError
from .metrics import optimality_gap, slack_sum, violation_l1
from .oracle import OracleSolution
from .problem import INEQUALITY, HyperParams, ProblemInstance, _real, _whole_number


@dataclass(frozen=True)
class DisturbanceEvent:
    """Additive interference applied to agents' decisions at one iteration.

    By default both the decision and the virtual decision are shifted, so the
    interference genuinely stresses recovery instead of being pulled back by
    the still-clean projection target; set ``perturb_x_prime=False`` to hit
    the decision only.  Queues and duals are never touched, and each agent
    id may be listed once.
    """

    at_iteration: int
    additive: np.ndarray
    agent_ids: tuple[int, ...] | None = None
    perturb_x_prime: bool = True

    def __post_init__(self):
        for value in np.asarray(self.additive, dtype=object).flat:
            _real(value, "disturbance vector must be numbers", ConfigError)
        if not isinstance(self.perturb_x_prime, (bool, np.bool_)):
            raise ConfigError(f"perturb_x_prime must be a boolean, got {self.perturb_x_prime!r}")
        additive = np.array(self.additive, dtype=float)
        if not np.all(np.isfinite(additive)):
            raise ConfigError("disturbance vector must be finite")
        at_iteration = _whole_number(self.at_iteration, "at_iteration", ConfigError)
        if at_iteration < 1:
            raise ConfigError(f"at_iteration must be >= 1, got {at_iteration}")
        additive.setflags(write=False)
        object.__setattr__(self, "at_iteration", at_iteration)
        object.__setattr__(self, "additive", additive)
        object.__setattr__(self, "perturb_x_prime", bool(self.perturb_x_prime))
        if self.agent_ids is not None:
            if not np.iterable(self.agent_ids):
                raise ConfigError(f"agent_ids must be a list of agent ids, got {self.agent_ids!r}")
            agent_ids = tuple(_whole_number(i, "agent id", ConfigError) for i in self.agent_ids)
            ids, counts = np.unique(agent_ids, return_counts=True)
            if np.any(counts > 1):
                raise ConfigError(f"agent id {ids[counts > 1][0]} is listed more than once")
            object.__setattr__(self, "agent_ids", agent_ids)


def apply_disturbance(state: SwarmState, instance: ProblemInstance, event: DisturbanceEvent) -> SwarmState:
    """The state with the targeted agents' decisions shifted and its products recomputed; all other fields kept."""
    ids = range(state.n) if event.agent_ids is None else event.agent_ids
    x, x_prime = state.x.copy(), state.x_prime.copy()
    for i in ids:
        if not 0 <= i < state.n:
            raise ConfigError(f"unknown agent id {i}")
        x[i] += event.additive
        if event.perturb_x_prime:
            x_prime[i] += event.additive
    return SwarmState.build(
        instance, k=state.k, x=x, x_prime=x_prime, y=state.y, lam=state.lam, delta=state.delta
    )


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
    x0: np.ndarray | None = None
    x0_offset: np.ndarray | None = None
    start: SwarmState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("iters", "record_every"):
            value = _whole_number(getattr(self, name), name, ConfigError)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        start = init_state(
            self.instance, self.hp, self.init_mode, mode=self.mode, x0=self.x0, x0_offset=self.x0_offset
        )
        object.__setattr__(self, "start", start)
        n, p = self.instance.n, self.instance.p
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        for ev in self.disturbances:
            if ev.at_iteration >= self.iters:
                raise ConfigError(
                    f"disturbance at iteration {ev.at_iteration} never fires in a "
                    f"{self.iters}-iteration run"
                )
            if ev.additive.shape != (p,):
                raise ConfigError(f"disturbance at iteration {ev.at_iteration}: additive must have shape ({p},)")
            if ev.agent_ids is not None and not all(0 <= i < n for i in ev.agent_ids):
                raise ConfigError(f"disturbance at iteration {ev.at_iteration}: agent ids outside 0..{n - 1}")


# Rows of ``Trace.csv_text`` formatted at once: large enough that the per-block
# overhead vanishes, small enough that the block's strings stay near 100 kB.
CSV_BLOCK_ROWS = 1000


@dataclass
class Trace:
    """Recorded per-iteration metrics, plus the run's timing and last state.

    Rows are strictly increasing in k.  ``wallclock_per_iteration`` is the
    loop's wall-clock time over the iteration count, in seconds; it is
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

    def csv_text(self) -> str:
        """The trace as CSV: one line per recorded row, floats in ``.17g`` (round-trip exact).

        Each column is formatted from Python floats (``tolist``), a block of
        ``CSV_BLOCK_ROWS`` rows at a time so the formatted strings of only one
        block are alive at once.
        """
        m = self.slack.shape[1]
        header = ["k"] + (["gap"] if self.gap is not None else [])
        header += ["violation_l1"] + [f"slack_{j}" for j in range(m)]
        ks = np.asarray(self.ks)
        floats = [] if self.gap is None else [np.asarray(self.gap)]
        floats += [np.asarray(self.violation_l1), *np.asarray(self.slack).T]
        blocks = [",".join(header) + "\n"]
        for start in range(0, len(ks), CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            columns = [[str(int(k)) for k in ks[rows].tolist()]]
            columns += [[f"{v:.17g}" for v in col[rows].tolist()] for col in floats]
            blocks.append("".join(",".join(row) + "\n" for row in zip(*columns)))
        return "".join(blocks)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.csv_text())


def run_experiment(plan: ExperimentPlan, oracle_solution: OracleSolution | None = None) -> Trace:
    """Run the plan from ``plan.start`` and record metrics after each full iteration (post-projection).

    Disturbances scheduled at iteration k are applied right before the
    iteration consuming the k-state, matching an interference that lands after
    the k-state was produced.  Rows are recorded at every ``record_every``-th
    iteration and always at the final one; the gap column is present only when
    an oracle solution is supplied.
    """
    instance, hp, state = plan.instance, plan.hp, plan.start
    events: dict[int, list[DisturbanceEvent]] = {}
    for ev in plan.disturbances:
        events.setdefault(ev.at_iteration, []).append(ev)

    ks: list[int] = []
    viols: list[float] = []
    slacks: list[np.ndarray] = []
    gaps: list[float] | None = [] if oracle_solution is not None else None

    start = time.perf_counter()
    iters, record_every = plan.iters, plan.record_every
    for _ in range(iters):
        for ev in events.get(state.k, ()):
            state = apply_disturbance(state, instance, ev)
        state = iterate(state, instance, hp)
        if state.k % record_every == 0 or state.k == iters:
            ks.append(state.k)
            viols.append(violation_l1(instance, state))
            slacks.append(slack_sum(instance, state))
            if gaps is not None:
                gaps.append(optimality_gap(state.x, oracle_solution))
    elapsed = time.perf_counter() - start

    return Trace(
        ks=np.array(ks, dtype=int),
        violation_l1=np.array(viols),
        slack=np.stack(slacks),
        gap=None if gaps is None else np.array(gaps),
        wallclock_per_iteration=elapsed / plan.iters,
        final_state=state,
    )
