"""Artifact check: one ``danyra run`` output directory against its stored reference.

Values are compared with tolerances, not a byte digest, so a change that only
reorders floating-point sums (about 1e-12 relative, as sparse mixing would)
passes, while a wrong iteration, a shifted or dropped row, or a different
recovery iteration does not.

    python3 perfbench/check.py --write-reference <workload> <instance seed>

runs the workload once and stores its reference; do that only when the
program's results are meant to change.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

from workloads import WORKLOADS, Workload, reference_path

RTOL = 1e-7
# Absolute slack per column, as a share of the column's largest magnitude.
ATOL_SHARE = 1e-10
# Absolute tolerance on the distance to the optimum, sqrt(gap), in decision units.
DISTANCE_ATOL = 1e-9
# Rows stored after each disturbance, where recovery happens.
RECOVERY_WINDOW = 200


def read_trace(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def expected_ks(iters: int, record_every: int) -> list[int]:
    return [k for k in range(1, iters + 1) if k % record_every == 0 or k == iters]


def sample_indices(ks: list[int], disturbance_ks) -> list[int]:
    """Rows kept in a reference: the first ten, about a hundred spread evenly,
    every other row in each recovery window, and the last."""
    rows = len(ks)
    keep = set(range(min(10, rows))) | set(range(0, rows, max(1, rows // 100))) | {rows - 1}
    for at in disturbance_ks:
        keep |= {i for i, k in enumerate(ks) if at - 2 <= k <= at + RECOVERY_WINDOW and k % 2 == 0}
    return sorted(keep)


def _close(value: float, ref: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref) + atol


def _close_gap(value: float, ref: float) -> bool:
    """Gaps are squared distances; compare the distances so that a converged
    gap near rounding level is not held to a relative tolerance."""
    return value >= 0 and _close(math.sqrt(value), math.sqrt(ref), DISTANCE_ATOL)


def _close_column(column: str, value: float, ref: float, scale: float) -> bool:
    if column == "gap":
        return _close_gap(value, ref)
    return _close(value, ref, ATOL_SHARE * max(1.0, scale))


def block_sums(header: list[str], rows: list[list[float]]) -> dict[str, list[list[float]]]:
    """Per column, ``[sum, sum of magnitudes]`` over each of about a hundred
    consecutive blocks of rows, so that rows between the samples are checked
    too.  Gaps enter as distances, sqrt(gap)."""
    size = max(1, len(rows) // 100)
    out = {}
    for j, column in enumerate(header[1:], start=1):
        values = [math.sqrt(max(row[j], 0.0)) if column == "gap" else row[j] for row in rows]
        blocks = [values[i : i + size] for i in range(0, len(values), size)]
        out[column] = [[math.fsum(b), math.fsum(abs(v) for v in b)] for b in blocks]
    return out


def _blocks_close(column: str, got: list[float], ref: list[float], scale: float, size: int) -> bool:
    atol = DISTANCE_ATOL if column == "gap" else ATOL_SHARE * max(1.0, scale)
    return abs(got[0] - ref[0]) <= RTOL * ref[1] + atol * size


def check_run(out_dir: Path, workload: Workload, ref: dict) -> list[str]:
    """Return the problems found in ``out_dir``; an empty list means it passed."""
    problems: list[str] = []
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        json.loads((out_dir / "bounds.json").read_text(encoding="utf-8"))
        header, rows = read_trace(out_dir / "trace.csv")
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable artifacts: {exc}"]

    if report.get("iters") != workload.iters:
        problems.append(f"report iters {report.get('iters')} != {workload.iters}")
    if report.get("recovery_iteration") != ref["recovery_iteration"]:
        problems.append(
            f"recovery_iteration {report.get('recovery_iteration')} != {ref['recovery_iteration']}"
        )
    final_gap = report.get("final_gap")
    if not isinstance(final_gap, (int, float)) or not _close_gap(final_gap, ref["final_gap"]):
        problems.append(f"final_gap {final_gap!r} != {ref['final_gap']!r}")
    final_violation = report.get("final_violation")
    scale = ref["scales"]["violation_l1"]
    if not isinstance(final_violation, (int, float)) or not _close_column(
        "violation_l1", final_violation, ref["final_violation"], scale
    ):
        problems.append(f"final_violation {final_violation!r} != {ref['final_violation']!r}")

    if header != ref["columns"]:
        return problems + [f"trace.csv header {header} != {ref['columns']}"]
    ks = [row[0] for row in rows]
    if ks != expected_ks(workload.iters, ref["record_every"]):
        return problems + ["trace.csv k column is not the recorded iterations"]
    violation = header.index("violation_l1")
    for row in rows:
        if not all(math.isfinite(v) for v in row) or row[violation] < 0:
            return problems + [f"trace.csv row k={int(row[0])} is non-finite or has negative violation"]
    by_k = {int(row[0]): row for row in rows}
    for k, ref_row in ref["samples"].items():
        row = by_k[int(k)]
        for column, value, expected in zip(header[1:], row[1:], ref_row[1:]):
            if not _close_column(column, value, expected, ref["scales"][column]):
                problems.append(f"trace.csv k={k} {column} {value!r} != {expected!r}")
                break
    size = max(1, len(rows) // 100)
    for column, blocks in block_sums(header, rows).items():
        for b, (got, expected) in enumerate(zip(blocks, ref["block_sums"][column])):
            if not _blocks_close(column, got, expected, ref["scales"][column], size):
                problems.append(f"trace.csv rows {b * size + 1}-{(b + 1) * size} {column} sum {got[0]!r} != {expected[0]!r}")
                break
    return problems


def make_reference(out_dir: Path, workload: Workload, instance_seed: int) -> dict:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    header, rows = read_trace(out_dir / "trace.csv")
    ks = [int(row[0]) for row in rows]
    return {
        "workload": workload.name,
        "instance_seed": instance_seed,
        "final_gap": report["final_gap"],
        "final_violation": report["final_violation"],
        "recovery_iteration": report["recovery_iteration"],
        "columns": header,
        "record_every": ks[0],  # the first recorded iteration
        "scales": {c: max(abs(row[j]) for row in rows) for j, c in enumerate(header) if j > 0},
        "samples": {str(ks[i]): rows[i] for i in sample_indices(ks, workload.disturbance_ks)},
        "block_sums": block_sums(header, rows),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write-reference", nargs=2, metavar=("WORKLOAD", "SEED"), required=True)
    args = parser.parse_args()
    import run

    workload = WORKLOADS[args.write_reference[0]]
    instance_seed = int(args.write_reference[1])
    with run.run_directory() as run_dir:
        result, out_dir = run.run_workload(workload, instance_seed, run_dir, traced=False, timeout=170.0)
        if result.get("rc") != 0:
            raise SystemExit(f"run failed: {result}")
        ref = make_reference(out_dir, workload, instance_seed)
    reference_path(workload.name, instance_seed).write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
