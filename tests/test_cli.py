import copy
import json
import os
import re

import numpy as np
import pytest

import danyra.cli
import danyra.netsim
import danyra.oracle
from danyra import BufferSchedule, ConfigError, generate_instance, instance_to_json
from danyra.cli import PRESETS, main, parse_config, run
from danyra.netsim import Trace
from danyra.theory import largest_violation

FIG2_EXPANDED = {
    "preset": "fig2",
    "instance": {"generate": {"seed": 1534, "n": 14, "r_max": 70.0, "extra_edges": 16}},
    "hp": {
        "alpha": 0.01,
        "beta": 0.02,
        "eta": 0.1,
        "gamma": 0.2,
        "buffer": {"kind": "constant", "omega": 0.0},
    },
    "sweep": None,
    "mode": "inequality",
    "iters": 20000,
    "record_every": 1,
    "disturbances": [{"at_iteration": 500, "additive": [50.0, 50.0]}],
    "init": {"mode": "at_demand"},
    "out": "runs/fig2",
}

BUFFER_SWEEP_EXPANDED = {
    "preset": "buffer-sweep",
    "instance": {"generate": {"seed": 1534, "n": 14, "r_max": 70.0, "extra_edges": 16}},
    "hp": {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2},  # a sweep never reads hp.buffer
    "sweep": [
        {"kind": "constant", "omega": 0.01},
        {"kind": "constant", "omega": 0.1},
        {"kind": "constant", "omega": 1.0},
        {"kind": "decaying", "coefficient": 5.0},
    ],
    "mode": "inequality",
    "iters": 20000,
    "record_every": 1,
    "disturbances": [{"at_iteration": 0, "additive": [50.0, 50.0]}],  # every member starts 50 above its demand
    "init": {"mode": "at_demand"},
    "out": "runs/buffer-sweep",
}

EQUALITY_EXPANDED = {
    "preset": "equality",
    "instance": {"generate": {"seed": 101, "n": 10, "r_max": 20.0, "extra_edges": 6}},
    "hp": {
        "alpha": 0.02974,
        "beta": 0.27,
        "eta": 0.07,
        "gamma": 0.8922,
        "buffer": {"kind": "constant", "omega": 0.0},
    },
    "sweep": None,
    "mode": "equality",
    "iters": 50000,
    "record_every": 5,
    "disturbances": [],
    "init": {"mode": "zero"},
    "out": "runs/equality",
}


HP = {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2}
DIST = {"at_iteration": 10, "additive": [5.0, 5.0]}


class TestPresets:
    def test_fig2_expansion_frozen(self):
        assert parse_config(preset="fig2") == FIG2_EXPANDED

    def test_buffer_sweep_expansion_frozen(self):
        assert parse_config(preset="buffer-sweep") == BUFFER_SWEEP_EXPANDED

    def test_equality_expansion_frozen(self):
        assert parse_config(preset="equality") == EQUALITY_EXPANDED

    def test_parsed_config_does_not_alias_presets(self, monkeypatch):
        monkeypatch.setattr(danyra.cli, "PRESETS", copy.deepcopy(PRESETS))  # a failure leaks into no other test
        fig2 = parse_config(preset="fig2")
        fig2["hp"]["alpha"] = 0.5
        fig2["hp"]["buffer"]["omega"] = 3.0
        fig2["instance"]["generate"]["seed"] = 7
        fig2["disturbances"][0]["additive"][0] = 0.0
        fig2["init"]["mode"] = "zero"
        sweep = parse_config(preset="buffer-sweep")
        sweep["sweep"][0]["omega"] = 9.0
        sweep["disturbances"][0]["additive"].append(1.0)
        assert parse_config(preset="fig2") == FIG2_EXPANDED
        assert parse_config(preset="buffer-sweep") == BUFFER_SWEEP_EXPANDED

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_config(preset="fig99")


class TestParseConfig:
    def minimal(self):
        return {
            "instance": {"generate": {"seed": 3, "n": 4, "r_max": 8.0, "extra_edges": 1}},
            "hp": {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2},
            "mode": "inequality",
            "iters": 10,
            "out": "runs/tmp",
        }

    def write(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_minimal_file(self, tmp_path):
        config = parse_config(self.write(tmp_path, self.minimal()))
        assert config["iters"] == 10
        assert config["hp"]["buffer"] == {"kind": "constant", "omega": 0.0}
        config = parse_config(self.write(tmp_path, {**self.minimal(), "iters": 30.0}))  # a whole float is an integer
        assert config["iters"] == 30 and type(config["iters"]) is int

    def test_missing_mode_named(self, tmp_path):
        cfg = self.minimal()
        del cfg["mode"]
        with pytest.raises(ConfigError, match="mode"):
            parse_config(self.write(tmp_path, cfg))

    def test_unknown_top_level_key_named(self, tmp_path):
        cfg = self.minimal()
        cfg["itres"] = 5
        with pytest.raises(ConfigError, match="itres"):
            parse_config(self.write(tmp_path, cfg))

    def test_unknown_nested_key_named(self, tmp_path):
        cfg = self.minimal()
        cfg["hp"]["alhpa"] = 0.1
        with pytest.raises(ConfigError, match="alhpa"):
            parse_config(self.write(tmp_path, cfg))

    def test_flags_override_file(self, tmp_path):
        path = self.write(tmp_path, self.minimal())
        config = parse_config(path, overrides={"seed": 99, "iters": 7, "out": "o2"})
        assert config["instance"]["generate"]["seed"] == 99
        assert config["iters"] == 7
        assert config["out"] == "o2"
        with pytest.raises(ConfigError, match="unknown override 'x'"):
            parse_config(path, overrides={"x": 1})

    def test_file_overrides_preset(self, tmp_path):
        cfg = {"preset": "fig2", "iters": 777}
        config = parse_config(self.write(tmp_path, cfg))
        assert config["iters"] == 777
        assert config["instance"] == FIG2_EXPANDED["instance"]

    def test_bad_instance_source(self, tmp_path):
        cfg = self.minimal()
        cfg["instance"] = {"generate": {"seed": 1, "n": 4, "r_max": 8.0}, "file": "x.json"}
        with pytest.raises(ConfigError):
            parse_config(self.write(tmp_path, cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(str(path))


class TestRun:
    def small_cfg(self, tmp_path, **kw):
        cfg = {
            "instance": {"generate": {"seed": 3, "n": 4, "r_max": 8.0, "extra_edges": 1}},
            "hp": {
                "alpha": 0.01,
                "beta": 0.02,
                "eta": 0.1,
                "gamma": 0.2,
                "buffer": {"kind": "constant", "omega": 0.05},
            },
            "mode": "inequality",
            "iters": 30,
            "out": str(tmp_path / "out"),
        }
        cfg.update(kw)
        return cfg

    def test_writes_artifacts(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "bounds.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert {"final_gap", "final_violation", "recovery_iteration", "conditions"} <= set(report)
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "k,gap,violation_l1,slack_0,slack_1"

    def test_instance_file_source(self, tmp_path):
        inst = generate_instance(5, 4, 8.0, 1)
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(instance_to_json(inst), encoding="utf-8")
        cfg = self.small_cfg(tmp_path, instance={"file": str(inst_path)})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0

    def test_equality_mode_run(self, tmp_path):
        cfg = self.small_cfg(
            tmp_path,
            mode="equality",
            hp={"alpha": 0.02, "beta": 0.2, "eta": 0.1, "gamma": 0.8},
            init={"mode": "zero"},
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0

    def test_deterministic_csv(self, tmp_path):
        cfg = self.small_cfg(tmp_path, out=str(tmp_path / "a"))
        patha = tmp_path / "a.json"
        patha.write_text(json.dumps(cfg), encoding="utf-8")
        main(["run", "--config", str(patha)])
        cfg["out"] = str(tmp_path / "b")
        pathb = tmp_path / "b.json"
        pathb.write_text(json.dumps(cfg), encoding="utf-8")
        main(["run", "--config", str(pathb)])
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_bounds_at_the_largest_violation(self, tmp_path):
        dist = {"at_iteration": 10, "additive": [5.0, 5.0]}
        cfg = self.small_cfg(tmp_path, disturbances=[dist])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        header, *rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        column = header.split(",").index("violation_l1")
        ks = [int(row.split(",")[0]) for row in rows]
        violations = [float(row.split(",")[column]) for row in rows]
        peak = max(range(len(rows)), key=violations.__getitem__)
        bounds = json.loads((tmp_path / "out" / "bounds.json").read_text())
        assert bounds["C_vio"] > 0
        assert bounds["C_vio"] == violations[peak]
        assert bounds["C_vio_k"] == ks[peak] == 11

    @pytest.mark.parametrize(
        "initial, violations, expected",
        [
            (0.0, [0.0, 5e-15, 3.0, 1.0], (3.0, 3)),
            (3.0, [0.0, 5e-15, 3.0, 1.0], (3.0, 0)),
            (0.0, [0.0, 7e-15, 0.0, 0.0], (0.0, 0)),
        ],
    )
    def test_largest_violation(self, initial, violations, expected):
        rows = len(violations)
        trace = Trace(
            ks=np.arange(1, rows + 1), violation_l1=np.array(violations), slack=np.zeros((rows, 1)), gap=None
        )
        assert largest_violation(initial, trace) == expected

    def test_bounds_json_is_strict(self, tmp_path):
        # without a buffer floor a violation takes forever to clear: recovery_bound_t is infinite
        dist = {"at_iteration": 10, "additive": [5.0, 5.0]}
        hp = {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2, "buffer": {"kind": "constant", "omega": 0.0}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.small_cfg(tmp_path, hp=hp, disturbances=[dist])), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        docs = {
            name: json.loads((tmp_path / "out" / name).read_text(), parse_constant=reject)
            for name in ("bounds.json", "report.json")
        }
        assert docs["bounds.json"]["recovery_bound_t"] == "inf"
        assert docs["bounds.json"]["C_vio"] > 0

    ONE_BY_ONE_AGENT = {"P": [[1.0]], "Q": [0.0], "A": [[1.0]], "d": [0.0]}

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            pytest.param(None, 2, "cannot read instance file", id="missing-file"),
            pytest.param(lambda doc: "{not json", 1, "not valid JSON", id="invalid-json"),
            pytest.param(lambda doc: [1, 2], 1, "malformed", id="not-an-object"),
            pytest.param(lambda doc: {**doc, "agents": "x"}, 1, "malformed", id="agents-not-a-list"),
            pytest.param(
                lambda doc: {**doc, "agents": doc["agents"][:-1] + [TestRun.ONE_BY_ONE_AGENT]},
                1,
                "A must be numbers, got list entries",
                id="ragged-agents",
            ),
            pytest.param(lambda doc: {**doc, "topology": None}, 1, "malformed", id="topology-null"),
            pytest.param(lambda doc: {**doc, "n": None}, 1, "malformed", id="n-null"),
            pytest.param(lambda doc: {**doc, "n": "4"}, 1, "n must be a whole number", id="n-text"),
            pytest.param(lambda doc: {**doc, "n": 4.9}, 1, "n must be a whole number", id="n-fraction"),
            pytest.param(
                lambda doc: {**doc, "agents": [{**agent, "d": [str(v) for v in agent["d"]]} for agent in doc["agents"]]},
                1,
                "d must be numbers, got str entries",
                id="d-text",
            ),
            pytest.param(
                lambda doc: {**doc, "topology": {**doc["topology"], "weights": ["0.25"] * len(doc["topology"]["weights"])}},
                1,
                "weights must be numbers, got str entries",
                id="weights-text",
            ),
            # numpy would read a boolean among numbers as 1 or 0
            pytest.param(
                lambda doc: {**doc, "agents": [{**doc["agents"][0], "Q": [True, 0.5]}] + doc["agents"][1:]},
                1,
                "Q must be numbers, got bool entries",
                id="Q-boolean",
            ),
            pytest.param(
                lambda doc: {
                    **doc, "topology": {**doc["topology"], "edges": [[0, True], *doc["topology"]["edges"][1:]]}
                },
                1,
                "edges must be integers, got bool entries",
                id="edge-boolean",
            ),
            pytest.param(lambda doc: {**doc, "p": 3}, 1, r"\(n, p, m\) = \(4, 3, 2\)", id="wrong-p"),
            pytest.param(lambda doc: {**doc, "m": 1}, 1, r"\(n, p, m\) = \(4, 2, 1\)", id="wrong-m"),
            pytest.param(
                lambda doc: {**doc, "topology": {**doc["topology"], "weights": np.eye(4).tolist()}},
                1,
                r"need one weight per edge, got shape \(4, 4\)",
                id="dense-weight-matrix",
            ),
        ],
    )
    def test_instance_file_errors(self, tmp_path, capsys, edit, code, message):
        inst_path = tmp_path / "instance.json"
        if edit is not None:
            doc = edit(json.loads(instance_to_json(generate_instance(5, 4, 8.0, 1))))
            inst_path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.small_cfg(tmp_path, instance={"file": str(inst_path)})), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == code
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_one_agent_instance_file_is_an_error(self, tmp_path, capsys):
        # a valid one-node instance: its Laplacian has no nonzero eigenvalue for the step-size checks
        doc = {"n": 1, "p": 2, "m": 2, "topology": {"edges": [], "weights": []}}
        doc["agents"] = [{"P": np.eye(2).tolist(), "Q": [0.5, 0.5], "A": np.eye(2).tolist(), "d": [1.0, 1.0]}]
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(doc), encoding="utf-8")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.small_cfg(tmp_path, instance={"file": str(inst_path)})), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: one agent: a single node's Laplacian has no nonzero eigenvalue")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            # 'custom' is an unknown init mode, and x0 and perturb_x_prime are unknown keys
            pytest.param({"init": {"mode": "custom"}}, id="custom-without-x0"),
            pytest.param({"init": {"mode": "custom", "x0": [[0.0, 0.0]] * 3}}, id="x0-shape"),
            pytest.param({"init": {"mode": "custom", "x0": [[0.0, 0.0], [1.0]] * 2}}, id="x0-ragged"),
            # a start shift is a disturbance at iteration 0, checked as any other
            pytest.param({"disturbances": [{"at_iteration": 0, "additive": [1.0, 2.0, 3.0]}]}, id="offset-length"),
            pytest.param({"disturbances": [{"at_iteration": 0, "additive": [float("nan"), 0.0]}]}, id="offset-nan"),
            pytest.param({"disturbances": [{"at_iteration": 20, "additive": [5.0]}]}, id="additive-length"),
            pytest.param({"disturbances": [{"at_iteration": 20, "additive": [1.0, "x"]}]}, id="additive-text"),
            pytest.param({"iters": "ten"}, id="iters-text"),
            pytest.param({"iters": None}, id="iters-null"),
            pytest.param({"record_every": "every"}, id="record-every-text"),
            pytest.param({"hp": {"alpha": "fast", "beta": 0.02, "eta": 0.1, "gamma": 0.2}}, id="hp-text"),
            pytest.param(
                {"hp": {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2, "buffer": {"kind": "constant"}}},
                id="buffer-without-omega",
            ),
            pytest.param({"instance": {"generate": {"seed": 3, "n": "four", "r_max": 8.0}}}, id="generate-text"),
            pytest.param({"init": {"mode": "at_demand", "x0": [[1e3, 1e3]] * 4}}, id="x0-without-custom"),
            pytest.param({"iters": 30.7}, id="iters-fraction"),
            pytest.param({"record_every": 1.5}, id="record-every-fraction"),
            pytest.param({"instance": {"generate": {"seed": 3.5, "n": 4, "r_max": 8.0}}}, id="seed-fraction"),
            pytest.param({"instance": {"generate": {"seed": 3, "n": 4.9, "r_max": 8.0}}}, id="n-fraction"),
            pytest.param(
                {"instance": {"generate": {"seed": 3, "n": 4, "r_max": 8.0, "extra_edges": 1.2}}},
                id="extra-edges-fraction",
            ),
            pytest.param({"disturbances": [{"at_iteration": 10.5, "additive": [5.0, 5.0]}]}, id="at-iteration-fraction"),
            pytest.param({"init": {"mode": "warm"}}, id="init-mode-unknown"),
            pytest.param({"init": None}, id="init-null"),
            pytest.param({"hp": 5}, id="hp-number"),
            pytest.param({"disturbances": [5]}, id="disturbance-number"),
            pytest.param({"disturbances": {}}, id="disturbances-object"),
            pytest.param({"hp": {**HP, "buffer": None}}, id="buffer-null"),
            pytest.param({"hp": {**HP, "buffer": {"kind": 5, "omega": 0.1}}}, id="buffer-kind-number"),
            pytest.param({"hp": {**HP, "buffer": {"kind": "linear"}}}, id="buffer-kind-unknown"),
            pytest.param({"instance": {"file": 5}}, id="instance-file-number"),
            pytest.param({"disturbances": [{**DIST, "perturb_x_prime": "false"}]}, id="perturb-x-prime-text"),
            pytest.param({"disturbances": [{**DIST, "perturb_x_prime": 0}]}, id="perturb-x-prime-zero"),
            pytest.param({"out": 7}, id="out-number"),
            pytest.param({"sweep": []}, id="sweep-empty"),
            pytest.param({"mode": "eq"}, id="mode-unknown"),
        ],
    )
    def test_config_shape_errors(self, tmp_path, capsys, edit):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.small_cfg(tmp_path, **edit)), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({"hp": {**HP, "buffer": {"kind": 5}}}, "hp.buffer.kind must be a string, got 5", id="kind"),
            pytest.param(
                {"disturbances": [{**DIST, "additive": [1.0, "x"]}]},
                r"disturbances\[0\].additive\[1\] must be a number, got 'x'",
                id="additive-item",
            ),
            pytest.param({"disturbances": {**DIST}}, "disturbances must be a list", id="disturbances"),
            pytest.param({"init": None}, "init must be an object, got None", id="init"),
            pytest.param({"iters": True}, "iters must be an integer, got True", id="iters-boolean"),
            pytest.param({"hp": {**HP, "gamma": False}}, "hp.gamma must be a number, got False", id="gamma-boolean"),
            # a disturbance shifts every agent's x and x', and a start has no x0: these keys are gone
            pytest.param(
                {"disturbances": [{**DIST, "agent_ids": None}]},
                r"unknown key\(s\) \['agent_ids'\] in disturbances\[0\]",
                id="agent-ids-key",
            ),
            pytest.param(
                {"disturbances": [{**DIST, "perturb_x_prime": True}]},
                r"unknown key\(s\) \['perturb_x_prime'\] in disturbances\[0\]",
                id="perturb-x-prime-key",
            ),
            pytest.param({"init": {"mode": "at_demand", "x0": None}}, r"unknown key\(s\) \['x0'\] in init", id="x0-key"),
            # a shifted start is a disturbance at iteration 0, and the init offset is gone
            pytest.param(
                {"init": {"mode": "at_demand", "offset": [50.0, 50.0]}},
                r"unknown key\(s\) \['offset'\] in init",
                id="init-offset-key",
            ),
            pytest.param(
                {"disturbances": [{**DIST, "at_iteration": -1}]},
                "at_iteration must be >= 0, got -1",
                id="at-iteration-negative",
            ),
            pytest.param({"init": {"mode": "custom"}}, "unknown init mode 'custom'", id="init-mode-custom"),
            pytest.param(
                {"hp": HP, "sweep": [{"kind": "constant", "omega": 0.1}, {"kind": "decaying"}]},
                r"missing required key 'coefficient' in sweep\[1\]",
                id="sweep-member-without-level",
            ),
        ],
    )
    def test_config_type_errors_name_the_path(self, tmp_path, capsys, edit, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.small_cfg(tmp_path, **edit)), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert re.match(f"config error: {message}", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_plans_fail_before_the_oracle_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(instance):
            raise AssertionError("the oracle was solved for a config that does not fit the instance")

        monkeypatch.setattr(danyra.cli, "solve_active_set", no_solve)
        dist = {"at_iteration": 10, "additive": [5.0, 5.0, 5.0]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.small_cfg(tmp_path, disturbances=[dist])), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "additive must have shape (2,)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "out, sweep, taken",  # ``taken`` is made a file, or a directory when it ends in "/"
        [
            ("taken", False, "taken"),
            ("taken/x", False, "taken"),
            ("taken", True, "taken"),
            ("R", True, "R/omega-0.1"),
            ("S", False, "S/trace.csv/"),
            ("T", True, "T/report.json/"),
        ],
        ids=[
            "out-is-a-file",
            "out-under-a-file",
            "sweep-root-is-a-file",
            "sweep-member-is-a-file",
            "trace-csv-is-a-directory",
            "sweep-report-is-a-directory",
        ],
    )
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, monkeypatch, out, sweep, taken):
        def no_solve(instance):
            raise AssertionError("the oracle was solved for an out that cannot be written")

        for name in ("solve_active_set", "solve_equality"):
            monkeypatch.setattr(danyra.cli, name, no_solve)
        is_dir = taken.endswith("/")
        taken = tmp_path / taken
        taken.parent.mkdir(parents=True, exist_ok=True)
        if is_dir:
            taken.mkdir()
        else:
            taken.write_text("a file", encoding="utf-8")
        cfg = {"preset": "buffer-sweep", "iters": 25} if sweep else self.small_cfg(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**cfg, "out": str(tmp_path / out)}), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and repr(str(tmp_path / out)) in err, err
        assert repr(str(taken)) in err, err
        assert sorted(tmp_path.rglob("*")) == before
        assert is_dir or taken.read_text(encoding="utf-8") == "a file"

    def test_one_start_state_per_member(self, tmp_path, monkeypatch):
        calls = []
        build = danyra.netsim.init_state

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        # the cli is patched too, so a start state it built of its own would be counted
        for module in (danyra.netsim, danyra.cli):
            monkeypatch.setattr(module, "init_state", counted, raising=False)
        argv = ["run", "--preset", "buffer-sweep", "--iters", "50", "--out", str(tmp_path / "sweep")]
        assert main(argv) == 0
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"iters": 7.9}, id="iters-fraction"),
            pytest.param({"iters": "12"}, id="iters-text"),
            pytest.param({"seed": 3.7}, id="seed-fraction"),
            pytest.param({"seed": "3"}, id="seed-text"),
        ],
    )
    def test_overrides_are_checked_like_file_keys(self, overrides):
        with pytest.raises(ConfigError, match="must be an integer|must be a number"):
            parse_config(preset="fig2", overrides=overrides)

    def test_threads_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.small_cfg(tmp_path, threads=2)), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown key(s) ['threads'] in config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_outputs(self, tmp_path):
        config = parse_config(
            preset="buffer-sweep",
            overrides={"iters": 25, "out": str(tmp_path / "sweep")},
        )
        assert run(config) == 0
        root = tmp_path / "sweep"
        for label in ("omega-0.01", "omega-0.1", "omega-1", "omega-5-over-k"):
            assert (root / label / "trace.csv").exists(), label
        summary = json.loads((root / "report.json").read_text())
        assert set(summary["members"]) == {
            "omega-0.01",
            "omega-0.1",
            "omega-1",
            "omega-5-over-k",
        }

    def _sweep_config(self, tmp_path, sweep, iters=25) -> str:
        path = tmp_path / "sweep.json"
        cfg = {"preset": "buffer-sweep", "sweep": sweep, "iters": iters, "out": str(tmp_path / "sweep")}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_sequence_members_labelled_by_their_values(self, tmp_path):
        sweep = [{"kind": "sequence", "values": [1.0, 0.5]}, {"kind": "sequence", "values": [0.2]}]
        assert main(["run", "--config", self._sweep_config(tmp_path, sweep)]) == 0
        root = tmp_path / "sweep"
        labels = {"omega-seq-1-0.5", "omega-seq-0.2"}
        assert {path.name for path in root.iterdir() if path.is_dir()} == labels
        assert set(json.loads((root / "report.json").read_text())["members"]) == labels

    @pytest.mark.parametrize(
        "omega, message",
        [
            pytest.param(1e308, r"omega-1e\+308: non-finite x at iteration 53 \(agents \[0, 1, ", id="x"),
            # the iterates stay finite, but the gap overflows from the first row on
            pytest.param(1e300, r"omega-1e\+300: non-finite gap recorded at k = 1$", id="gap"),
        ],
    )
    def test_diverging_sweep_member_is_named_and_nothing_is_written(self, tmp_path, capsys, omega, message):
        # the first member runs clean; every member runs before any file is written
        sweep = [{"kind": "constant", "omega": 0.01}, {"kind": "constant", "omega": omega}]
        assert main(["run", "--config", self._sweep_config(tmp_path, sweep, iters=200)]) == 3
        assert re.match("divergence: " + message, capsys.readouterr().err)
        assert not (tmp_path / "sweep").exists()

    def test_repeated_sweep_member_rejected(self, tmp_path, capsys):
        sweep = [{"kind": "constant", "omega": 0.1}, {"kind": "constant", "omega": 0.1}]
        assert main(["run", "--config", self._sweep_config(tmp_path, sweep)]) == 2
        assert "sweep members must have distinct labels" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_member_errors_come_before_the_instance_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(danyra.cli, "generate_instance", lambda **kw: pytest.fail("the instance was built"))
        sweep = [{"kind": "constant", "omega": 0.1}, {"kind": "constant", "omega": 0.1}]
        assert main(["run", "--config", self._sweep_config(tmp_path, sweep)]) == 2
        assert "sweep members must have distinct labels" in capsys.readouterr().err
        sweep = [{"kind": "constant", "omega": 0.1}, {"kind": "constant", "omega": -1.0}]
        assert main(["run", "--config", self._sweep_config(tmp_path, sweep)]) == 1
        assert "buffer levels must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["run", "--preset", "nope"]) == 2
        # disturbance scheduled past the horizon is a config error
        assert main(["run", "--preset", "fig2", "--iters", "60", "--out", str(tmp_path)]) == 2
        assert main(["run"]) == 2
        capsys.readouterr()
        path = tmp_path / "c.json"
        path.write_text(json.dumps([self.small_cfg(tmp_path)]), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config document must be a JSON object\n"
        path.write_text(json.dumps(self.small_cfg(tmp_path, instance={"file": "instance.json"})), encoding="utf-8")
        assert main(["run", "--config", str(path), "--seed", "3"]) == 2
        assert capsys.readouterr().err == "config error: --seed only applies to generated instances\n"
        # the mode is a config key only: --mode is not an option
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "fig2", "--mode", "eq"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode eq" in capsys.readouterr().err
        path.write_text(json.dumps({"preset": "fig2", "hp": {**HP, "alpha": 50.0}, "out": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "divergence: non-finite x at iteration 121 (agents [11])\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["inequality", "equality"])
    def test_singular_dual_system_is_an_oracle_failure(self, tmp_path, capsys, monkeypatch, mode):
        # both solvers raise OracleFailureError on a singular dual system, and it exits 4
        m = 2
        monkeypatch.setattr(danyra.oracle, "_dual", lambda instance: (None, np.zeros((m, m)), np.ones(m)))
        cfg = {
            "instance": {"generate": {"seed": 3, "n": 4, "r_max": 8.0, "extra_edges": 1}},
            "hp": HP if mode == "equality" else {**HP, "buffer": {"kind": "constant", "omega": 0.1}},
            "mode": mode,
            "iters": 30,
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 4
        assert capsys.readouterr().err.startswith("oracle failure: singular dual system on rows")
        assert not (tmp_path / "out").exists()


KINDS = {"constant": "omega", "decaying": "coefficient", "sequence": "values"}


class TestBufferConfig:
    """A buffer section is ``kind`` plus exactly that kind's level key, read only where a queue reads it."""

    def config(self, tmp_path, **kw):
        return {
            "instance": {"generate": {"seed": 3, "n": 4, "r_max": 8.0, "extra_edges": 1}},
            "hp": HP,
            "mode": "inequality",
            "iters": 30,
            "out": str(tmp_path / "out"),
            **kw,
        }

    def rejected(self, tmp_path, capsys, monkeypatch, cfg, message):
        """Run ``cfg`` and check it is a config error matching ``message``, raised before the oracle, with no output."""

        def no_solve(instance):
            raise AssertionError("the oracle was solved for a rejected config")

        for name in ("solve_active_set", "solve_equality"):
            monkeypatch.setattr(danyra.cli, name, no_solve)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.match(f"config error: {message}", err), err
        assert not (tmp_path / "out").exists()

    def test_unknown_kinds_rejected(self, tmp_path, capsys, monkeypatch):
        for kind, rule in ((["constant"], "a string"), (None, "a string"), (1, "a string"), ("linear", "one of")):
            buffer = {"kind": kind, "omega": 0.1}
            for cfg, path in (
                (self.config(tmp_path, hp={**HP, "buffer": buffer}), r"hp\.buffer"),
                (self.config(tmp_path, sweep=[{"kind": "constant", "omega": 0.5}, buffer]), r"sweep\[1\]"),
            ):
                self.rejected(tmp_path, capsys, monkeypatch, cfg, rf"{path}\.kind must be {rule}")

    def test_unknown_kind_lists_the_kinds(self, tmp_path, capsys, monkeypatch):
        cfg = self.config(tmp_path, hp={**HP, "buffer": {"kind": "mystery"}})
        message = r"hp\.buffer\.kind must be one of \['constant', 'decaying', 'sequence'\], got 'mystery'"
        self.rejected(tmp_path, capsys, monkeypatch, cfg, message)

    @pytest.mark.parametrize("buffer", [None, 0.1, [], {"omega": 0.1}], ids=["null", "number", "list", "no-kind"])
    def test_a_buffer_is_an_object_with_a_kind(self, tmp_path, capsys, monkeypatch, buffer):
        cfg = self.config(tmp_path, hp={**HP, "buffer": buffer})
        self.rejected(tmp_path, capsys, monkeypatch, cfg, r"hp\.buffer must be an object with a 'kind'")

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("bad", ["0.1", True, None], ids=["text", "boolean", "null"])
    def test_levels_must_be_real_numbers(self, tmp_path, capsys, monkeypatch, kind, bad):
        key = KINDS[kind]
        level, path = ([bad], rf"hp\.buffer\.{key}\[0\]") if kind == "sequence" else (bad, rf"hp\.buffer\.{key}")
        cfg = self.config(tmp_path, hp={**HP, "buffer": {"kind": kind, key: level}})
        self.rejected(tmp_path, capsys, monkeypatch, cfg, f"{path} must be a number, got {re.escape(repr(bad))}")

    @pytest.mark.parametrize("bad", [5, 0.1, None], ids=["integer", "number", "null"])
    def test_sequence_values_must_be_a_list(self, tmp_path, capsys, monkeypatch, bad):
        cfg = self.config(tmp_path, hp={**HP, "buffer": {"kind": "sequence", "values": bad}})
        self.rejected(tmp_path, capsys, monkeypatch, cfg, rf"hp\.buffer\.values must be a list, got {bad!r}")

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_a_kind_needs_its_level(self, tmp_path, capsys, monkeypatch, kind):
        cfg = self.config(tmp_path, hp={**HP, "buffer": {"kind": kind}})
        self.rejected(tmp_path, capsys, monkeypatch, cfg, rf"missing required key '{KINDS[kind]}' in hp\.buffer")

    @pytest.mark.parametrize("where", ["hp", "sweep"])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_stray_level_keys_rejected(self, tmp_path, capsys, monkeypatch, kind, where):
        levels = {"omega": 0.1, "coefficient": 5.0, "values": [0.1]}
        for stray in sorted(set(KINDS.values()) - {KINDS[kind]}):
            buffer = {"kind": kind, KINDS[kind]: levels[KINDS[kind]], stray: levels[stray]}
            if where == "hp":
                cfg, path = self.config(tmp_path, hp={**HP, "buffer": buffer}), r"hp\.buffer"
            else:
                cfg, path = self.config(tmp_path, sweep=[buffer]), r"sweep\[0\]"
            self.rejected(tmp_path, capsys, monkeypatch, cfg, rf"unknown key\(s\) \['{stray}'\] in {path}")

    def test_kinds_are_their_factories(self, tmp_path):
        path = tmp_path / "c.json"
        for doc, made in (
            ({"kind": "constant", "omega": 0.1}, BufferSchedule.constant(0.1)),
            ({"kind": "decaying", "coefficient": 5.0}, BufferSchedule.decaying(5.0)),
            ({"kind": "sequence", "values": [1.0, 0.5]}, BufferSchedule.sequence([1.0, 0.5])),
        ):
            path.write_text(json.dumps(self.config(tmp_path, hp={**HP, "buffer": doc})), encoding="utf-8")
            config = parse_config(str(path))
            assert danyra.cli._hyperparams(config["hp"], config["hp"]["buffer"]).buffer == made
            path.write_text(json.dumps(self.config(tmp_path, sweep=[doc])), encoding="utf-8")
            config = parse_config(str(path))
            assert danyra.cli._hyperparams(config["hp"], config["sweep"][0]).buffer == made

    def test_sweep_and_hp_buffer_are_exclusive(self, tmp_path, capsys, monkeypatch):
        sweep = [{"kind": "constant", "omega": 0.1}]
        cfg = self.config(tmp_path, hp={**HP, "buffer": {"kind": "constant", "omega": 0.1}}, sweep=sweep)
        self.rejected(tmp_path, capsys, monkeypatch, cfg, r"hp\.buffer and sweep are exclusive")
        # the buffer-sweep preset with a file's hp.buffer: the sweep would never read it
        cfg = {"preset": "buffer-sweep", "hp": {**HP, "buffer": {"kind": "constant", "omega": 123}}}
        self.rejected(tmp_path, capsys, monkeypatch, {**cfg, "out": str(tmp_path / "out")}, r"hp\.buffer and sweep")
        # a preset's hp.buffer with a file's sweep
        cfg = {"preset": "fig2", "sweep": sweep, "out": str(tmp_path / "out")}
        self.rejected(tmp_path, capsys, monkeypatch, cfg, r"hp\.buffer and sweep are exclusive")

    @pytest.mark.parametrize(
        "buffer",
        [
            {"kind": "constant", "omega": 0.5},
            {"kind": "decaying", "coefficient": 5.0},
            {"kind": "sequence", "values": [1.0, 0.0]},
        ],
        ids=list(KINDS),
    )
    def test_equality_mode_takes_only_a_zero_buffer(self, tmp_path, capsys, monkeypatch, buffer):
        cfg = self.config(tmp_path, mode="equality", hp={**HP, "buffer": buffer})
        self.rejected(tmp_path, capsys, monkeypatch, cfg, r"hp\.buffer must be zero in equality mode")
        # an inequality preset turned to equality mode by the file's key
        cfg = {"preset": "fig2", "mode": "equality", "hp": {**HP, "buffer": buffer}, "out": str(tmp_path / "out")}
        self.rejected(tmp_path, capsys, monkeypatch, cfg, r"hp\.buffer must be zero in equality mode")

    def test_equality_mode_takes_no_sweep(self, tmp_path, capsys, monkeypatch):
        sweep = [{"kind": "constant", "omega": 0.5}, {"kind": "constant", "omega": 2.0}]
        cfg = {"preset": "equality", "sweep": sweep, "out": str(tmp_path / "out")}
        self.rejected(tmp_path, capsys, monkeypatch, cfg, "sweep is not allowed in equality mode")
        cfg = {"preset": "buffer-sweep", "mode": "equality", "out": str(tmp_path / "out")}
        self.rejected(tmp_path, capsys, monkeypatch, cfg, "sweep is not allowed in equality mode")

    @pytest.mark.parametrize(
        "hp",
        [
            HP,
            {**HP, "buffer": {"kind": "constant", "omega": 0}},
            {**HP, "buffer": {"kind": "constant", "omega": -0.0}},
            {**HP, "buffer": {"kind": "sequence", "values": [0.0, 0]}},
        ],
        ids=["default", "constant", "negative-zero", "sequence"],
    )
    def test_equality_mode_accepts_the_zero_buffer(self, tmp_path, hp):
        cfg = self.config(tmp_path, mode="equality", hp=hp)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        config = parse_config(str(path))
        assert config["mode"] == "equality"
        hp = danyra.cli._hyperparams(config["hp"], config["hp"]["buffer"])
        danyra.cli._build_plan(config, generate_instance(3, 4, 8.0, 1), hp)  # the plan takes it
