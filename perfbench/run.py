"""danyra's benchmark: each workload through ``danyra run``, one fresh process per run.

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` repeats untraced runs for
about ``--seconds`` and reports the end-to-end metrics as medians over them;
``--trace 1`` runs the n-scaling sweep, then alternates untraced and traced
runs, and reports the per-layer metrics.  Every run's artifacts are checked
against the stored reference.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_run  # noqa: E402
from workloads import WORKLOADS, load_reference, reference_path  # noqa: E402

# Every run, builds excluded, must end within 180 s; children are killed past this.
HARD_LIMIT_S = 170.0
RUNS_DIR = ROOT / ".perfbench_runs"
# The sweep's next size, reported from array sizes and not attempted: dense W
# and L need 6.4 GB and the ring's chord candidates number about 2e8 tuples.
NOT_RUNNABLE_N = 20000

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_us") or "_us_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@contextlib.contextmanager
def run_directory():
    RUNS_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=RUNS_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()


def run_child(args: list[str], run_dir: Path, timeout: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its result file."""
    env = {k: v for k, v in os.environ.items() if k != "DANYRA_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result_path = run_dir / "result.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), args[0], str(result_path), *args[1:]],
            cwd=run_dir,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(workload, instance_seed: int, run_dir: Path, traced: bool, timeout: float):
    out_dir = run_dir / "out"
    config = workload.write_config(run_dir / "config.json")
    argv = workload.danyra_argv(instance_seed, out_dir, config)
    return run_child(["run", "1" if traced else "0", *argv], run_dir, timeout), out_dir


def sample(workload, instance_seed: int, ref: dict, traced: bool, timeout: float):
    """One checked ``danyra run``; returns (result, problems)."""
    with run_directory() as run_dir:
        result, out_dir = run_workload(workload, instance_seed, run_dir, traced, timeout)
        if result.get("rc") != 0:
            return result, [f"run failed: {result.get('error') or result.get('rc')}"]
        problems = check_run(out_dir, workload, ref)
    layers = result.get("layers")
    if traced and layers["engine.iterate_calls"] != workload.iters:
        problems.append(f"engine.iterate_calls {layers['engine.iterate_calls']} != {workload.iters}")
    if traced and layers["metrics.record_calls"] != workload.rows:
        problems.append(f"metrics.record_calls {layers['metrics.record_calls']} != {workload.rows}")
    return result, problems


def _blas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _medians(samples: list[dict]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="selects the workload's instance seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    start = perf_counter()
    if not (ROOT / "src" / "danyra" / "cli.py").is_file():
        print(f"no danyra source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    instance_seed = workload.instance_seed(args.seed)
    if not reference_path(workload.name, instance_seed).is_file():
        print(f"no reference for {workload.name} seed {instance_seed}", file=sys.stderr)
        return 2
    ref = load_reference(workload.name, instance_seed)
    print(json.dumps({"env": environment(), "workload": workload.name, "instance_seed": instance_seed}))

    def remaining() -> float:
        return HARD_LIMIT_S - (perf_counter() - start)

    attempted = failed = 0
    untraced: list[dict] = []
    traced: list[dict] = []
    sweep = None
    if args.trace:
        with run_directory() as run_dir:
            sweep = run_child(["sweep", str(instance_seed)], run_dir, remaining())
        attempted += 1
        if "error" in sweep:
            failed += 1
            print(f"sweep failed: {sweep}", file=sys.stderr)
            sweep = None
    kinds = (False, True) if args.trace else (False,)
    round_times: list[float] = []
    while True:
        round_start = perf_counter()
        for kind in kinds:
            result, problems = sample(workload, instance_seed, ref, kind, remaining())
            attempted += 1
            if problems:
                failed += 1
                print(f"run {attempted} failed: {'; '.join(problems[:5])}", file=sys.stderr)
            else:
                (traced if kind else untraced).append(result)
                print(
                    f"run {attempted} {'traced' if kind else 'untraced'}: wall_s {result['wall_s']:.4f}"
                    f" setup_s {result['setup_s']:.4f} loop_s {result['loop_s']:.4f}"
                )
        round_times.append(perf_counter() - round_start)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(round_times) > args.seconds or elapsed + max(round_times) > HARD_LIMIT_S:
            break

    metrics: dict[str, float] = {}
    if untraced and not args.trace:
        medians = _medians(
            [
                {
                    "wall_s": r["wall_s"],
                    "setup_s": r["setup_s"],
                    "iters_per_s": workload.iters / r["loop_s"],
                    "peak_rss_mb": r["peak_rss_mb"],
                }
                for r in untraced
            ]
        )
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    elif untraced and traced and sweep is not None:
        layers = _medians([r["layers"] for r in traced])
        layers["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
            r["wall_s"] for r in untraced
        )
        layers.update(sweep)
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}

    if args.trace:
        n = NOT_RUNNABLE_N
        not_runnable = {"dense_W_plus_L_bytes": 2 * 8 * n * n, "chord_candidates": n * (n - 1) // 2 - n}
        print(json.dumps({f"scale.n{n}": {"runnable": False, **not_runnable}}))
    samples = len(traced) if args.trace else len(untraced)
    for name, metric in metrics.items():
        print(f"{name:38s} {metric['value']:>14.6g} {metric['unit']:6s} median of {samples}")
    print(f"{'runs_failed':38s} {failed / attempted:>14.6g} fraction ({failed} of {attempted})")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
