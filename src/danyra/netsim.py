"""Synchronous experiment driver: runs iterations, injects disturbances, records traces."""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .engine import SwarmState, init_state, iterate
from .errors import ConfigError
from .metrics import optimality_gap, slack_sum, violation_l1
from .oracle import OracleSolution
from .problem import INEQUALITY, HyperParams, ProblemInstance


@dataclass(frozen=True)
class DisturbanceEvent:
    """Additive interference applied to agents' decisions at one iteration.

    By default both the decision and the virtual decision are shifted, so the
    interference genuinely stresses recovery instead of being pulled back by
    the still-clean projection target; set ``perturb_x_prime=False`` to hit
    the decision only.  Queues and duals are never touched.
    """

    at_iteration: int
    additive: np.ndarray
    agent_ids: tuple[int, ...] | None = None
    perturb_x_prime: bool = True

    def __post_init__(self):
        additive = np.array(self.additive, dtype=float)
        if not np.all(np.isfinite(additive)):
            raise ConfigError("disturbance vector must be finite")
        if self.at_iteration < 1:
            raise ConfigError(f"at_iteration must be >= 1, got {self.at_iteration}")
        additive.setflags(write=False)
        object.__setattr__(self, "additive", additive)
        if self.agent_ids is not None:
            object.__setattr__(self, "agent_ids", tuple(int(i) for i in self.agent_ids))


def apply_disturbance(state: SwarmState, event: DisturbanceEvent) -> SwarmState:
    """Shift targeted agents' decisions in place; all other fields untouched."""
    ids = range(state.n) if event.agent_ids is None else event.agent_ids
    for i in ids:
        if not 0 <= i < state.n:
            raise ConfigError(f"unknown agent id {i}")
        state.x[i] += event.additive
        if event.perturb_x_prime:
            state.x_prime[i] += event.additive
    return state


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed for one deterministic run, checked against the instance before it starts."""

    instance: ProblemInstance
    hp: HyperParams
    iters: int
    mode: str = INEQUALITY
    disturbances: tuple[DisturbanceEvent, ...] = ()
    record_every: int = 1
    init_mode: str = "at_demand"
    x0: np.ndarray | None = None
    x0_offset: np.ndarray | None = None

    def __post_init__(self):
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        n, p = self.instance.n, self.instance.p
        if self.init_mode == "custom" and self.x0 is None:
            raise ConfigError("init mode 'custom' needs x0")
        if self.init_mode != "custom" and self.x0 is not None:
            raise ConfigError(f"x0 is only read by init mode 'custom', not {self.init_mode!r}")
        for name, value, shape in (("x0", self.x0, (n, p)), ("x0_offset", self.x0_offset, (p,))):
            if value is not None and (np.shape(value) != shape or not np.all(np.isfinite(value))):
                raise ConfigError(f"{name} must be finite with shape {shape}, got shape {np.shape(value)}")
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
        m = self.slack.shape[1]
        buf = io.StringIO()
        cols = ["k"] + (["gap"] if self.gap is not None else [])
        cols += ["violation_l1"] + [f"slack_{j}" for j in range(m)]
        buf.write(",".join(cols) + "\n")
        for idx, k in enumerate(self.ks):
            row = [str(int(k))]
            if self.gap is not None:
                row.append(f"{self.gap[idx]:.17g}")
            row.append(f"{self.violation_l1[idx]:.17g}")
            row.extend(f"{v:.17g}" for v in self.slack[idx])
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.csv_text())


def run_experiment(plan: ExperimentPlan, oracle_solution: OracleSolution | None = None) -> Trace:
    """Run the plan and record metrics after each full iteration (post-projection).

    Disturbances scheduled at iteration k are applied right before the
    iteration consuming the k-state, matching an interference that lands after
    the k-state was produced.  Rows are recorded at every ``record_every``-th
    iteration and always at the final one; the gap column is present only when
    an oracle solution is supplied.
    """
    instance, hp = plan.instance, plan.hp
    state = init_state(
        instance,
        hp,
        plan.init_mode,
        mode=plan.mode,
        x0=plan.x0,
        x0_offset=plan.x0_offset,
    )
    events: dict[int, list[DisturbanceEvent]] = {}
    for ev in plan.disturbances:
        events.setdefault(ev.at_iteration, []).append(ev)

    ks: list[int] = []
    viols: list[float] = []
    slacks: list[np.ndarray] = []
    gaps: list[float] | None = [] if oracle_solution is not None else None

    start = time.perf_counter()
    for _ in range(plan.iters):
        for ev in events.get(state.k, ()):
            apply_disturbance(state, ev)
        state = iterate(state, instance, hp)
        if state.k % plan.record_every == 0 or state.k == plan.iters:
            ks.append(state.k)
            viols.append(violation_l1(instance, state.x))
            slacks.append(slack_sum(instance, state.x, state.delta))
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
