"""Tests of the benchmark itself: span accounting, the artifact check, metric names.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import json
import re
import shutil
import types

import pytest

import child
import run
from check import check_run, make_reference
from tracing import Recorder, summarize
from workloads import WORKLOADS, Workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# fig2 cut to 800 iterations: the k=500 disturbance and its recovery (k=654) still happen.
SHORT_FIG2 = Workload(
    name="fig2-short",
    preset="fig2",
    config=None,
    seeds=(1534,),
    iters=800,
    rows=800,
    disturbance_ks=(500,),
)


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _danyra_run(out_dir):
    from danyra.cli import main

    assert main(["run", "--preset", "fig2", "--iters", str(SHORT_FIG2.iters), "--out", str(out_dir)]) == 0
    return out_dir


@pytest.fixture(scope="module")
def short_fig2(tmp_path_factory):
    out_dir = _danyra_run(tmp_path_factory.mktemp("fig2") / "out")
    return out_dir, make_reference(out_dir, SHORT_FIG2, 1534)


def _copy(out_dir, tmp_path):
    return shutil.copytree(out_dir, tmp_path / "copy")


# --- span accounting -------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["netsim.run_experiment", 1.0, 9.0, 0],
        ["engine.iterate", 1.0, 4.0, 1],
        ["metrics.violation_l1", 4.0, 5.0, 1],
        ["engine.iterate", 5.0, 8.0, 1],
        ["metrics.violation_l1", 8.0, 8.5, 1],
        ["metrics.recovery_iteration", 9.0, 9.5, 0],
    ]
    layers = summarize(spans, {})
    assert layers["engine.iterate_calls"] == 2
    assert layers["engine.iterate_busy_s"] == 6.0
    assert layers["metrics.record_calls"] == 2
    assert layers["netsim.run_experiment_self_s"] == pytest.approx(8.0 - 6.0 - 1.5)
    assert layers["cli.run_self_s"] == pytest.approx(10.0 - 8.0 - 0.5)


def test_recorder_nests_spans_and_counts_bytes():
    recorder = Recorder()
    inner = recorder.wrap(lambda: "abc", "inner", size=len)
    outer = recorder.wrap(lambda: inner() + inner(), "outer")
    assert outer() == "abcabc"
    assert [(s[0], s[3]) for s in recorder.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert recorder.counters == {"inner_bytes": 6}


@pytest.mark.parametrize(
    "argv, iters, rows",
    [
        (["--preset", "equality", "--iters", "100"], 100, 20),
        (["--preset", "fig2", "--iters", "600"], 600, 600),
    ],
)
def test_traced_span_counts_equal_the_work(tmp_path, argv, iters, rows):
    result = run.run_child(
        ["run", "1", "run", *argv, "--out", str(tmp_path / "out")], tmp_path, timeout=120.0
    )
    layers = result["layers"]
    assert layers["engine.iterate_calls"] == iters
    assert layers["metrics.record_calls"] == rows
    assert layers["netsim.csv_bytes"] == len((tmp_path / "out" / "trace.csv").read_bytes())
    assert 0.0 < layers["netsim.run_experiment_self_s"] < layers["netsim.run_experiment_s"]
    assert 0.0 < layers["cli.run_self_s"] < result["wall_s"]


# --- artifact check --------------------------------------------------------


def test_check_accepts_the_run_it_was_made_from(short_fig2):
    out_dir, ref = short_fig2
    assert ref["recovery_iteration"] == 654
    assert check_run(out_dir, SHORT_FIG2, ref) == []


def _corrupt_value(path, k, column, factor):
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[k].split(",")
    assert int(cells[0]) == k
    cells[col] = repr(float(cells[col]) * factor)
    lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "k, column",
    [(502, "violation_l1"), (17, "gap"), (503, "slack_1"), (250, "gap"), (3, "slack_1")],
)
def test_check_rejects_a_corrupted_value(short_fig2, tmp_path, k, column):
    """Sampled rows (502, 17) are compared one by one, the others through block sums."""
    out_dir, ref = short_fig2
    copy = _copy(out_dir, tmp_path)
    _corrupt_value(copy / "trace.csv", k, column, 1.0 + 1e-4)
    assert check_run(copy, SHORT_FIG2, ref)


def test_check_rejects_a_dropped_row(short_fig2, tmp_path):
    out_dir, ref = short_fig2
    copy = _copy(out_dir, tmp_path)
    lines = (copy / "trace.csv").read_text(encoding="utf-8").splitlines()
    (copy / "trace.csv").write_text("\n".join(lines[:300] + lines[301:]) + "\n", encoding="utf-8")
    assert check_run(copy, SHORT_FIG2, ref)


def test_check_rejects_a_wrong_recovery_iteration(short_fig2, tmp_path):
    out_dir, ref = short_fig2
    copy = _copy(out_dir, tmp_path)
    report = json.loads((copy / "report.json").read_text(encoding="utf-8"))
    report["recovery_iteration"] += 1
    (copy / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert check_run(copy, SHORT_FIG2, ref)


def test_check_rejects_missing_artifacts(short_fig2, tmp_path):
    out_dir, ref = short_fig2
    copy = _copy(out_dir, tmp_path)
    (copy / "bounds.json").unlink()
    assert check_run(copy, SHORT_FIG2, ref)


def test_check_rejects_a_wrong_iteration(short_fig2, tmp_path, monkeypatch):
    """A step with gamma off by 1e-4 relative changes the trace beyond tolerance."""
    import danyra.netsim

    out_dir, ref = short_fig2
    iterate = danyra.netsim.iterate

    def wrong(state, instance, hp, **kwargs):
        return iterate(state, instance, dataclasses.replace(hp, gamma=hp.gamma * (1 + 1e-4)), **kwargs)

    monkeypatch.setattr(danyra.netsim, "iterate", wrong)
    assert check_run(_danyra_run(tmp_path / "out"), SHORT_FIG2, ref)


def test_check_accepts_sparse_mixing(short_fig2, tmp_path, monkeypatch):
    """Mixing with a CSR Laplacian reorders the sums (ROADMAP item 3) and must pass."""
    sparse = pytest.importorskip("scipy.sparse")
    import danyra.netsim

    out_dir, ref = short_fig2
    iterate = danyra.netsim.iterate

    class SparseMixing:
        def __init__(self, instance):
            self._instance = instance
            self.topology = types.SimpleNamespace(L=sparse.csr_array(instance.topology.L))

        def __getattr__(self, name):
            return getattr(self._instance, name)

    wrapped = {}

    def sparse_iterate(state, instance, hp, **kwargs):
        proxy = wrapped.setdefault(id(instance), SparseMixing(instance))
        return iterate(state, proxy, hp, **kwargs)

    monkeypatch.setattr(danyra.netsim, "iterate", sparse_iterate)
    sparse_out = _danyra_run(tmp_path / "out")
    assert (sparse_out / "trace.csv").read_bytes() != (out_dir / "trace.csv").read_bytes()
    assert check_run(sparse_out, SHORT_FIG2, ref) == []


# --- names and the reference files ----------------------------------------


def test_metric_names_and_units_are_valid():
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


def test_benchmark_json_lists_what_the_benchmark_reports():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    reported = set(summarize([], {})) | {"trace.overhead_ratio"} | set(child.sweep_metric_names())
    assert {m["name"] for m in bench["per_layer"]} == reported
    for metric in bench["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_every_workload_seed_has_a_reference():
    for workload in WORKLOADS.values():
        for seed in workload.seeds:
            ref = json.loads(
                (run.HERE / "reference" / f"{workload.name}-{seed}.json").read_text(encoding="utf-8")
            )
            assert ref["workload"] == workload.name and ref["instance_seed"] == seed
            assert ref["record_every"] * (workload.rows - 1) < workload.iters
