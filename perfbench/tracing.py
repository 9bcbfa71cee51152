"""In-memory spans around calls into danyra's layers, and the per-layer summary.

Spans are recorded from outside the package: ``Recorder.patch`` replaces a
module-level name (or class attribute) that danyra looks up at call time with
a wrapper that records ``[name, start, end, parent]``.  Calls are synchronous
and single-threaded, so a span's children never overlap and its self time is
its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

# (module, attribute, span name).  Each attribute is the name the caller looks
# up, so ``danyra.netsim.iterate`` times the loop's calls and leaves direct
# library calls alone.
TRACED_CALLS = (
    ("danyra.cli", "generate_instance", "problem.generate_instance"),
    ("danyra.cli", "spectral_constants", "problem.spectral_constants"),
    ("danyra.cli", "solve_active_set", "oracle.solve"),
    ("danyra.cli", "solve_equality", "oracle.solve"),
    ("danyra.cli", "run_experiment", "netsim.run_experiment"),
    ("danyra.cli", "recovery_iteration", "metrics.recovery_iteration"),
    ("danyra.problem", "metropolis_weights", "problem.metropolis_weights"),
    ("danyra.netsim", "iterate", "engine.iterate"),
    ("danyra.netsim", "violation_l1", "metrics.violation_l1"),
    ("danyra.netsim", "slack_sum", "metrics.slack_sum"),
    ("danyra.netsim", "optimality_gap", "metrics.optimality_gap"),
)
# The untraced run keeps only the boundary that splits set-up from the loop.
BOUNDARY_CALLS = (("danyra.cli", "run_experiment", "netsim.run_experiment"),)


class Recorder:
    """Collects spans and byte counters in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str, size=None):
        """Return ``fn`` wrapped in a span; ``size(result)`` adds to ``<name>_bytes``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                self.counters[name + "_bytes"] = self.counters.get(name + "_bytes", 0) + size(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, size))

    def patch_cached_property(self, cls, attr: str, name: str) -> None:
        """Time the first access of a ``functools.cached_property``."""
        prop = functools.cached_property(self.wrap(cls.__dict__[attr].func, name))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)


def install(recorder: Recorder, traced: bool) -> None:
    """Patch danyra's module-level names; ``traced=False`` keeps only the loop boundary."""
    for module, attr, name in TRACED_CALLS if traced else BOUNDARY_CALLS:
        recorder.patch(importlib.import_module(module), attr, name)
    if traced:
        from danyra import netsim, problem

        recorder.patch(netsim.Trace, "csv_text", "netsim.csv_text", size=len)
        recorder.patch_cached_property(problem.ProblemInstance, "projector_stack", "problem.projector_stack")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarize(spans: list, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced ``danyra run`` (see perfbench/README.md)."""
    durations = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[idx]

    def total(name: str) -> float:
        return sum(d for (n, *_), d in zip(spans, durations) if n == name)

    def self_time(name: str) -> float:
        return sum(d - c for (n, *_), d, c in zip(spans, durations, child_time) if n == name)

    loops = {idx for idx, span in enumerate(spans) if span[0] == "netsim.run_experiment"}
    iterate_us = sorted(d * 1e6 for (n, *_), d in zip(spans, durations) if n == "engine.iterate")
    return {
        "problem.generate_instance_s": total("problem.generate_instance"),
        "problem.metropolis_weights_s": total("problem.metropolis_weights"),
        "problem.spectral_constants_s": total("problem.spectral_constants"),
        "problem.projector_stack_s": total("problem.projector_stack"),
        "oracle.solve_s": total("oracle.solve"),
        "engine.iterate_calls": len(iterate_us),
        "engine.iterate_busy_s": total("engine.iterate"),
        "engine.iterate_us_p50": statistics.median(iterate_us) if iterate_us else 0.0,
        "engine.iterate_us_p99": _percentile(iterate_us, 99) if iterate_us else 0.0,
        "metrics.record_calls": sum(
            1 for name, _, _, parent in spans if name == "metrics.violation_l1" and parent in loops
        ),
        "metrics.violation_l1_busy_s": total("metrics.violation_l1"),
        "metrics.slack_sum_busy_s": total("metrics.slack_sum"),
        "metrics.optimality_gap_busy_s": total("metrics.optimality_gap"),
        "metrics.recovery_iteration_s": total("metrics.recovery_iteration"),
        "netsim.run_experiment_s": total("netsim.run_experiment"),
        "netsim.run_experiment_self_s": self_time("netsim.run_experiment"),
        "netsim.csv_text_s": total("netsim.csv_text"),
        "netsim.csv_bytes": counters.get("netsim.csv_text_bytes", 0),
        "cli.run_self_s": self_time("cli.main"),
    }
