"""The benchmark's workloads: what each one runs through ``danyra run`` (README.md says why).

Each workload is one ``danyra run`` invocation.  The benchmark's ``--seed``
picks the instance seed from the workload's reference seeds, so every run is
checked against a stored reference (``reference/<workload>-<seed>.json``).
The first seed of each workload is its default; the second is kept for
rechecking a claim on a seed that was not used while the claim was written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# fig2's step sizes with a positive buffer floor.  With omega = 0.1 the
# infeasible at-demand start (sum_i C_i / n is about 1.25 > 1) is absorbed in
# one step and the run stays feasible, so the artifact check has a recovery to
# check; with omega = 0 the violation stalls near 4e-12 and never recovers.
LARGE_N_CONFIG = {
    "instance": {"generate": {"seed": 1534, "n": 2000, "r_max": 70.0, "extra_edges": 4000}},
    "hp": {
        "alpha": 0.01,
        "beta": 0.02,
        "eta": 0.1,
        "gamma": 0.2,
        "buffer": {"kind": "constant", "omega": 0.1},
    },
    "mode": "inequality",
    "iters": 400,
    "record_every": 1,
    "disturbances": [],
    "init": {"mode": "at_demand"},
    "out": "runs/large-n",
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None  # a danyra preset, or None for ``config``
    config: dict | None
    seeds: tuple[int, ...]
    iters: int
    rows: int  # recorded trace rows
    disturbance_ks: tuple[int, ...] = ()

    def instance_seed(self, bench_seed: int) -> int:
        """The instance seed the benchmark's ``--seed`` selects."""
        return self.seeds[bench_seed % len(self.seeds)]

    def danyra_argv(self, instance_seed: int, out_dir: Path, config_path: Path | None) -> list[str]:
        argv = ["run", "--seed", str(instance_seed), "--out", str(out_dir)]
        if self.preset is not None:
            return argv + ["--preset", self.preset]
        return argv + ["--config", str(config_path)]

    def write_config(self, path: Path) -> Path | None:
        """Write the workload's config file, if it has one, and return its path."""
        if self.config is None:
            return None
        path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        return path


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig2",
            preset="fig2",
            config=None,
            seeds=(1534, 52),
            iters=20000,
            rows=20000,
            disturbance_ks=(500,),
        ),
        Workload(
            name="equality",
            preset="equality",
            config=None,
            seeds=(101, 7),
            iters=50000,
            rows=10000,
        ),
        Workload(
            name="large-n",
            preset=None,
            config=LARGE_N_CONFIG,
            seeds=(1534, 7),
            iters=400,
            rows=400,
        ),
    )
}


def reference_path(workload: str, instance_seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{instance_seed}.json"


def load_reference(workload: str, instance_seed: int) -> dict:
    return json.loads(reference_path(workload, instance_seed).read_text(encoding="utf-8"))
