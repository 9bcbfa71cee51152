"""One measured process: a single ``danyra run``, or the n-scaling sweep.

    python3 perfbench/child.py run <result.json> <trace 0|1> <danyra run argv...>
    python3 perfbench/child.py sweep <result.json> <seed>

``run`` imports danyra, patches the names listed in ``tracing.py`` (only the
set-up/loop boundary when ``trace`` is 0), calls ``danyra.cli.main`` and
writes its timings to ``result.json``.  Interpreter start and imports happen
before the clock starts.  ``sweep`` calls the instance-building functions and
``iterate`` directly at each n of ``SWEEP_N``.  ``run.py`` starts this script
with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, install, summarize  # noqa: E402

SWEEP_N = (14, 200, 2000)
SWEEP_METRICS = (
    "generate_instance_s",
    "metropolis_weights_s",
    "spectral_constants_s",
    "projector_stack_s",
    "iterate_us",
)
# Calls of ``iterate`` timed per n; about 0.2 s at n=2000.
SWEEP_ITERATE_CALLS = {14: 400, 200: 200, 2000: 20}


def sweep_metric_names() -> list[str]:
    return [f"scale.n{n}.{metric}" for n in SWEEP_N for metric in SWEEP_METRICS]


def _import_danyra():
    import danyra

    source = Path(danyra.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"danyra imported from {source}, not from {ROOT / 'src'}")


def measure_run(argv: list[str], traced: bool) -> dict:
    import danyra.cli

    recorder = Recorder()
    install(recorder, traced)
    main = recorder.wrap(danyra.cli.main, "cli.main")
    rc = main(argv)
    if rc != 0:
        return {"rc": rc}
    spans = recorder.spans
    main_span = spans[0]
    loop = next(span for span in spans if span[0] == "netsim.run_experiment")
    return {
        "rc": rc,
        "wall_s": main_span[2] - main_span[1],
        "setup_s": loop[1] - main_span[1],
        "loop_s": loop[2] - loop[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": summarize(spans, recorder.counters) if traced else None,
    }


def _timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def measure_sweep(seed: int) -> dict:
    import numpy as np

    from danyra import (
        BufferSchedule,
        HyperParams,
        generate_instance,
        init_state,
        iterate,
        metropolis_weights,
        spectral_constants,
    )

    hp = HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2, buffer=BufferSchedule.constant(0.1))
    out = {}
    for n in SWEEP_N:
        instance, out[f"scale.n{n}.generate_instance_s"] = _timed(
            generate_instance, seed, n, 70.0, 2 * n
        )
        adjacency = np.zeros((n, n), dtype=bool)
        for i, j in instance.topology.edges:
            adjacency[i, j] = adjacency[j, i] = True
        _, out[f"scale.n{n}.metropolis_weights_s"] = _timed(metropolis_weights, adjacency)
        _, out[f"scale.n{n}.spectral_constants_s"] = _timed(spectral_constants, instance)
        _, out[f"scale.n{n}.projector_stack_s"] = _timed(lambda: instance.projector_stack)
        state = iterate(init_state(instance, hp, "at_demand"), instance, hp)  # fills the caches
        calls = []
        for _ in range(SWEEP_ITERATE_CALLS[n]):
            state, elapsed = _timed(iterate, state, instance, hp)
            calls.append(elapsed)
        out[f"scale.n{n}.iterate_us"] = statistics.median(calls) * 1e6
        del instance, adjacency, state
    return out


def main(argv: list[str]) -> int:
    command, result_path = argv[0], Path(argv[1])
    _import_danyra()
    if command == "run":
        result = measure_run(argv[3:], traced=argv[2] == "1")
    elif command == "sweep":
        result = measure_sweep(int(argv[2]))
    else:
        raise SystemExit(f"unknown command {command!r}")
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
