"""``danyra run``: presets, configs, the files a run writes, and every input it rejects.

``REJECTED`` is the one table of rejected inputs.  A row is an edit of the config ``BASE`` or of an instance
document, with the exit code and the whole stderr line it must give.  ``check_rejected`` runs a row through
``main`` and also requires that neither oracle solver is called and that no ``out`` directory appears.  A row runs
under the test id in its first column, so each id of the per-topic tests the table replaced still names its check.
"""

import copy
import json
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import danyra.cli
import danyra.netsim
import danyra.oracle
from danyra import BufferSchedule, ConfigError, generate_instance, instance_to_json
from danyra.cli import _CONFIG, PRESETS, main, parse_config, run
from danyra.netsim import Trace
from danyra.theory import largest_violation

from test_readme import schema_keys

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
GENERATE = {"seed": 3, "n": 4, "r_max": 8.0, "extra_edges": 1}
# the config every test edits; each run's "out" is its own directory's "out"
BASE = {"instance": {"generate": GENERATE}, "hp": HP, "mode": "inequality", "iters": 30}
# the instance document every instance-file row edits: n = 4 agents, p = m = 2
INSTANCE_DOC = json.loads(instance_to_json(generate_instance(5, 4, 8.0, 1)))
KINDS = {"constant": "omega", "decaying": "coefficient", "sequence": "values"}
LEVELS = {"omega": 0.1, "coefficient": 5.0, "values": [0.1]}
C01 = {"kind": "constant", "omega": 0.1}
ZERO_FLOOR = "hp.buffer must be zero in equality mode, which has no queue, got BufferSchedule"
EXCLUSIVE = "hp.buffer and sweep are exclusive: a sweep runs each member's buffer, never hp.buffer"
NO_SWEEP = "sweep is not allowed in equality mode: with no queue, every member would run alike"


def write_config(tmp_path, **edit) -> str:
    """``BASE`` with ``edit``, writing to ``tmp_path / "out"``, as the config file ``tmp_path / "c.json"``."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**BASE, "out": str(tmp_path / "out"), **edit}), encoding="utf-8")
    return str(path)


class Rejected(NamedTuple):
    """A rejected input: the test id it runs under, its exit code and whole stderr line, and its edits.

    ``line`` is literal but for ``{tmp}``, the row's directory.  ``config`` is merged into ``BASE``, or is a function
    of ``BASE`` giving the document: a dict, any other JSON value, raw text, or None for no config file.
    ``instance``, when given, is a function of a copy of ``INSTANCE_DOC`` giving the instance file the config names
    (None: no file).
    """

    test: str
    code: int
    line: str
    config: dict | Callable = {}
    instance: Callable | None = None

    def document(self, base: dict):
        return self.config(base) if callable(self.config) else {**base, **self.config}


def _write(path, doc) -> None:
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")


def check_rejected(row: Rejected, tmp_path, monkeypatch, capsys) -> None:
    def no_solve(instance):
        raise AssertionError("the oracle was solved for a rejected input")

    for name in ("solve_active_set", "solve_equality"):
        monkeypatch.setattr(danyra.cli, name, no_solve)
    tmp_path.mkdir(exist_ok=True)
    base = {**BASE, "out": str(tmp_path / "out")}
    if row.instance is not None:
        base["instance"] = {"file": str(tmp_path / "instance.json")}
        _write(tmp_path / "instance.json", row.instance(copy.deepcopy(INSTANCE_DOC)))
    doc = row.document(base)
    _write(tmp_path / "c.json", {"out": base["out"], **doc} if isinstance(doc, dict) else doc)
    assert main(["run", "--config", str(tmp_path / "c.json")]) == row.code
    err = capsys.readouterr().err
    assert err == row.line.replace("{tmp}", str(tmp_path)) + "\n", err
    assert not (tmp_path / "out").exists()


def _shape(case: str, line: str, config) -> Rejected:
    return Rejected(f"TestRun::test_config_shape_errors[{case}]", 2, f"config error: {line}", config)


def _path(case: str, line: str, config) -> Rejected:
    return Rejected(f"TestRun::test_config_type_errors_name_the_path[{case}]", 2, f"config error: {line}", config)


def _buffer(test: str, line: str, config) -> Rejected:
    return Rejected(f"TestBufferConfig::{test}", 2, f"config error: {line}", config)


def _instance(case: str, code: int, line: str, edit: Callable) -> Rejected:
    return Rejected(f"TestRun::test_instance_file_errors[{case}]", code, line, {}, edit)


def _rejected(case: str, code: int, line: str, config) -> Rejected:
    return Rejected(f"TestRun::test_rejected[{case}]", code, line, config)


# edits of BASE, and of an instance document
def _hp(**steps) -> dict:
    return {"hp": {**HP, **steps}}


def _floor(buffer) -> dict:
    return _hp(buffer=buffer)


def _generate(**numbers) -> dict:
    return {"instance": {"generate": {**GENERATE, **numbers}}}


def _event(**keys) -> dict:
    return {"disturbances": [{**DIST, **keys}]}


def _at(k: int, additive: list) -> dict:
    return {"disturbances": [{"at_iteration": k, "additive": additive}]}


def _agent0(doc, **entries) -> dict:
    return {**doc, "agents": [{**doc["agents"][0], **entries}, *doc["agents"][1:]]}


def _topology(doc, **keys) -> dict:
    return {**doc, "topology": {**doc["topology"], **keys}}


def _one_agent(doc) -> dict:
    """A valid one-node instance: its Laplacian has no nonzero eigenvalue for the step-size checks."""
    agent = {"P": np.eye(2).tolist(), "Q": [0.5, 0.5], "A": np.eye(2).tolist(), "d": [1.0, 1.0]}
    return {"n": 1, "p": 2, "m": 2, "topology": {"edges": [], "weights": []}, "agents": [agent]}


NO_FILE = "[Errno 2] No such file or directory"
JSON_KEY = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
KINDS_ARE = "['constant', 'decaying', 'sequence']"
REJECTED = [
    # the config document and its file
    Rejected("TestParseConfig::test_missing_file", 2,
             f"config error: cannot read config file {{tmp}}/c.json: {NO_FILE}: '{{tmp}}/c.json'", lambda cfg: None),
    Rejected("TestParseConfig::test_invalid_json", 2,
             f"config error: config file {{tmp}}/c.json is not valid JSON: {JSON_KEY}", lambda cfg: "{not json"),
    _rejected("config-list", 2, "config error: config must be an object, got [1, 2]", lambda cfg: [1, 2]),
    Rejected("TestPresets::test_unknown_preset", 2,
             "config error: unknown preset 'fig99'; available: ['buffer-sweep', 'equality', 'fig2']",
             {"preset": "fig99"}),
    Rejected("TestParseConfig::test_missing_mode_named", 2, "config error: missing required key 'mode' in config",
             lambda cfg: {key: value for key, value in cfg.items() if key != "mode"}),
    Rejected("TestParseConfig::test_unknown_top_level_key_named", 2, "config error: unknown key(s) ['itres'] in config",
             {"itres": 5}),
    Rejected("TestRun::test_threads_key_rejected", 2, "config error: unknown key(s) ['threads'] in config",
             {"threads": 2}),
    Rejected("TestParseConfig::test_unknown_nested_key_named", 2, "config error: unknown key(s) ['alhpa'] in hp",
             _hp(alhpa=0.1)),
    Rejected("TestParseConfig::test_bad_instance_source", 2,
             "config error: instance must be exactly one of {'generate': {...}} or {'file': path}",
             {"instance": {"generate": GENERATE, "file": "x.json"}}),
    _shape("mode-unknown", "mode must be 'inequality' or 'equality', got 'eq'", {"mode": "eq"}),
    _shape("out-number", "out must be a string, got 7", {"out": 7}),
    _shape("iters-text", "iters must be a whole number, got 'ten'", {"iters": "ten"}),
    _shape("iters-null", "iters must be a whole number, got None", {"iters": None}),
    _shape("iters-fraction", "iters must be a whole number, got 30.7", {"iters": 30.7}),
    _path("iters-boolean", "iters must be a whole number, got True", {"iters": True}),
    _shape("record-every-text", "record_every must be a whole number, got 'every'", {"record_every": "every"}),
    _shape("record-every-fraction", "record_every must be a whole number, got 1.5", {"record_every": 1.5}),
    # the instance's source, and the generator's numbers: those it rejects make an invalid instance (exit 1)
    _shape("instance-file-number", "instance.file must be a string, got 5", {"instance": {"file": 5}}),
    _shape("generate-text", "instance.generate.n must be a whole number, got 'four'", _generate(n="four")),
    _shape("seed-fraction", "instance.generate.seed must be a whole number, got 3.5", _generate(seed=3.5)),
    _shape("n-fraction", "instance.generate.n must be a whole number, got 4.9", _generate(n=4.9)),
    _shape("extra-edges-fraction", "instance.generate.extra_edges must be a whole number, got 1.2",
           _generate(extra_edges=1.2)),
    _rejected("one-agent", 1, "error: need at least 2 agents, got 1", _generate(n=1)),
    _rejected("r-max-negative", 1, "error: r_max must be a finite positive number, got -1.0", _generate(r_max=-1.0)),
    # the step sizes
    _shape("hp-number", "hp must be an object, got 5", {"hp": 5}),
    _shape("hp-text", "hp.alpha must be a number, got 'fast'", _hp(alpha="fast")),
    _path("gamma-boolean", "hp.gamma must be a number, got False", _hp(gamma=False)),
    _rejected("alpha-negative", 2, "config error: alpha must be finite and strictly positive, got -0.01",
              _hp(alpha=-0.01)),
    _rejected("alpha-nan", 2, "config error: alpha must be finite and strictly positive, got nan", _hp(alpha=math.nan)),
    _rejected("beta-zero", 2, "config error: beta must be finite and strictly positive, got 0.0", _hp(beta=0)),
    _rejected("eta-infinite", 2, "config error: eta must be finite and strictly positive, got inf", _hp(eta=math.inf)),
    _rejected("gamma-one", 2, "config error: gamma must be < 1, got 1.0", _hp(gamma=1)),
    # the buffer floor: a section's shape, then its levels
    _shape("buffer-kind-number", "hp.buffer.kind must be a string, got 5", _floor({"kind": 5, "omega": 0.1})),
    _path("kind", "hp.buffer.kind must be a string, got 5", _floor({"kind": 5})),
    _shape("buffer-kind-unknown", f"hp.buffer.kind must be one of {KINDS_ARE}, got 'linear'",
           _floor({"kind": "linear"})),
    _buffer("test_unknown_kind_lists_the_kinds", f"hp.buffer.kind must be one of {KINDS_ARE}, got 'mystery'",
            _floor({"kind": "mystery"})),
    *(
        _buffer("test_unknown_kinds_rejected",
                f"{where}.kind must be {'one of ' + KINDS_ARE if kind == 'linear' else 'a string'}, got {kind!r}",
                _floor(buffer) if where == "hp.buffer" else {"sweep": [{"kind": "constant", "omega": 0.5}, buffer]})
        for kind in (["constant"], None, 1, "linear")
        for where in ("hp.buffer", "sweep[1]")
        for buffer in [{"kind": kind, "omega": 0.1}]
    ),
    *(
        _buffer(f"test_a_buffer_is_an_object_with_a_kind[{case}]",
                f"hp.buffer must be an object with a 'kind', got {buffer!r}", _floor(buffer))
        for case, buffer in (("null", None), ("number", 0.1), ("list", []), ("no-kind", {"omega": 0.1}))
    ),
    _shape("buffer-without-omega", "missing required key 'omega' in hp.buffer", _floor({"kind": "constant"})),
    *(
        _buffer(f"test_a_kind_needs_its_level[{kind}]", f"missing required key {key!r} in hp.buffer",
                _floor({"kind": kind}))
        for kind, key in KINDS.items()
    ),
    *(
        _buffer(f"test_levels_must_be_real_numbers[{case}-{kind}]",
                f"hp.buffer.{key}{'[0]' if kind == 'sequence' else ''} must be a number, got {bad!r}",
                _floor({"kind": kind, key: [bad] if kind == "sequence" else bad}))
        for kind, key in KINDS.items()
        for case, bad in (("text", "0.1"), ("boolean", True), ("null", None))
    ),
    *(
        _buffer(f"test_sequence_values_must_be_a_list[{case}]", f"hp.buffer.values must be a list, got {bad!r}",
                _floor({"kind": "sequence", "values": bad}))
        for case, bad in (("integer", 5), ("number", 0.1), ("null", None))
    ),
    *(
        _buffer(f"test_stray_level_keys_rejected[{kind}-{where}]",
                f"unknown key(s) ['{stray}'] in {'hp.buffer' if where == 'hp' else 'sweep[0]'}",
                _floor(buffer) if where == "hp" else {"sweep": [buffer]})
        for kind, key in KINDS.items()
        for where in ("hp", "sweep")
        for stray in sorted(set(KINDS.values()) - {key})
        for buffer in [{"kind": kind, key: LEVELS[key], stray: LEVELS[stray]}]
    ),
    _rejected("omega-negative", 2, "config error: buffer levels must be finite and >= 0, got (-1.0,)",
              _floor({"kind": "constant", "omega": -1.0})),
    _rejected("coefficient-zero", 2, "config error: decaying buffer needs a finite positive coefficient, got 0.0",
              _floor({"kind": "decaying", "coefficient": 0.0})),
    _rejected("sequence-increasing", 2, "config error: buffer levels must be nonincreasing",
              _floor({"kind": "sequence", "values": [0.1, 1.0]})),
    # the sweep
    _shape("sweep-empty", "sweep must list at least one buffer", {"sweep": []}),
    _path("sweep-member-without-level", "missing required key 'coefficient' in sweep[1]",
          {"sweep": [C01, {"kind": "decaying"}]}),
    Rejected("TestRun::test_repeated_sweep_member_rejected", 2,
             "config error: sweep members must have distinct labels, got ['omega-0.1', 'omega-0.1']",
             {"sweep": [C01, C01]}),
    # a file's hp.buffer with its sweep or the buffer-sweep preset's, and a file's sweep with fig2's hp.buffer
    *(
        _buffer("test_sweep_and_hp_buffer_are_exclusive", EXCLUSIVE, config)
        for config in (
            {**_floor(C01), "sweep": [C01]},
            lambda cfg: {"preset": "buffer-sweep", **_floor({"kind": "constant", "omega": 123})},
            lambda cfg: {"preset": "fig2", "sweep": [C01]},
        )
    ),
    # the mode; an inequality preset turned to equality mode by the file's key, too
    *(
        _buffer(f"test_equality_mode_takes_only_a_zero_buffer[{kind}]", f"{ZERO_FLOOR}({levels})", config)
        for kind, buffer, levels in (
            ("constant", {"kind": "constant", "omega": 0.5}, "levels=(0.5,), coefficient=0.0"),
            ("decaying", {"kind": "decaying", "coefficient": 5.0}, "levels=(0.0,), coefficient=5.0"),
            ("sequence", {"kind": "sequence", "values": [1.0, 0.0]}, "levels=(1.0, 0.0), coefficient=0.0"),
        )
        for config in (
            {"mode": "equality", **_floor(buffer)},
            lambda cfg, buffer=buffer: {"preset": "fig2", "mode": "equality", **_floor(buffer)},
        )
    ),
    _buffer("test_equality_mode_takes_no_sweep", NO_SWEEP,
            lambda cfg: {"preset": "equality", "sweep": [{"kind": "constant", "omega": v} for v in (0.5, 2.0)]}),
    _buffer("test_equality_mode_takes_no_sweep", NO_SWEEP, lambda cfg: {"preset": "buffer-sweep", "mode": "equality"}),
    # the start: 'custom' is an unknown init mode, and x0 and offset are unknown keys
    _path("init", "init must be an object, got None", {"init": None}),
    _shape("init-mode-unknown", "unknown init mode 'warm'", {"init": {"mode": "warm"}}),
    _path("init-mode-custom", "unknown init mode 'custom'", {"init": {"mode": "custom"}}),
    _path("x0-key", "unknown key(s) ['x0'] in init", {"init": {"mode": "at_demand", "x0": None}}),
    _path("init-offset-key", "unknown key(s) ['offset'] in init", {"init": {"mode": "at_demand", "offset": [50, 50]}}),
    # the disturbances: a start shift is a disturbance at iteration 0, checked as any other
    _shape("disturbances-object", "disturbances must be a list, got {}", {"disturbances": {}}),
    _path("disturbances", f"disturbances must be a list, got {DIST}", {"disturbances": DIST}),
    _shape("disturbance-number", "disturbances[0] must be an object, got 5", {"disturbances": [5]}),
    _shape("at-iteration-fraction", "disturbances[0].at_iteration must be a whole number, got 10.5",
           _at(10.5, [5, 5])),
    _path("at-iteration-negative", "at_iteration must be >= 0, got -1", _at(-1, [5, 5])),
    _rejected("horizon", 2, "config error: disturbance at iteration 500 never fires in a 60-iteration run",
              lambda cfg: {"preset": "fig2", "iters": 60}),
    _shape("additive-text", "disturbances[0].additive[1] must be a number, got 'x'", _at(20, [1.0, "x"])),
    _path("additive-item", "disturbances[0].additive[1] must be a number, got 'x'", _at(10, [1.0, "x"])),
    _shape("additive-length", "disturbance at iteration 20: additive must have shape (2,)", _at(20, [5.0])),
    Rejected("TestRun::test_plans_fail_before_the_oracle_solve", 2,
             "config error: disturbance at iteration 10: additive must have shape (2,)", _at(10, [5.0, 5.0, 5.0])),
    _shape("offset-length", "disturbance at iteration 0: additive must have shape (2,)", _at(0, [1.0, 2.0, 3.0])),
    _shape("offset-nan", "disturbance vector must be finite", _at(0, [math.nan, 0.0])),
    # a disturbance shifts every agent's x and x': these keys are gone
    _path("agent-ids-key", "unknown key(s) ['agent_ids'] in disturbances[0]", _event(agent_ids=None)),
    _path("perturb-x-prime-key", "unknown key(s) ['perturb_x_prime'] in disturbances[0]", _event(perturb_x_prime=True)),
    _shape("perturb-x-prime-text", "unknown key(s) ['perturb_x_prime'] in disturbances[0]",
           _event(perturb_x_prime="false")),
    _shape("perturb-x-prime-zero", "unknown key(s) ['perturb_x_prime'] in disturbances[0]", _event(perturb_x_prime=0)),
    # the instance file: its document's structure, then the numbers the constructors read
    _instance("missing-file", 2, f"config error: cannot read instance file {{tmp}}/instance.json: {NO_FILE}: "
              "'{tmp}/instance.json'", lambda doc: None),
    _instance("invalid-json", 1, f"error: instance document is not valid JSON: {JSON_KEY}", lambda doc: "{not json"),
    _instance("not-an-object", 1, "error: instance document must be an object, got [1, 2]", lambda doc: [1, 2]),
    _instance("unknown-key", 1, "error: unknown key(s) ['meta'] in instance document", lambda doc: {**doc, "meta": 1}),
    _instance("agents-not-a-list", 1, "error: agents must be a list, got 'x'", lambda doc: {**doc, "agents": "x"}),
    _instance("agents-not-objects", 1, "error: agents[0] must be an object, got 1",
              lambda doc: {**doc, "agents": [1, 1, 1, 1]}),
    _instance("agent-without-P", 1, "error: missing required key 'P' in agents[0]",
              lambda doc: {**doc, "agents": [{key: value for key, value in doc["agents"][0].items() if key != "P"},
                                             *doc["agents"][1:]]}),
    _instance("topology-null", 1, "error: topology must be an object, got None", lambda doc: {**doc, "topology": None}),
    _instance("topology-without-edges", 1, "error: missing required key 'edges' in topology",
              lambda doc: {**doc, "topology": {"weights": doc["topology"]["weights"]}}),
    _instance("n-null", 1, "error: n must be a whole number, got None", lambda doc: {**doc, "n": None}),
    _instance("n-text", 1, "error: n must be a whole number, got '4'", lambda doc: {**doc, "n": "4"}),
    _instance("n-fraction", 1, "error: n must be a whole number, got 4.9", lambda doc: {**doc, "n": 4.9}),
    _instance("wrong-p", 1, "error: document says (n, p, m) = (4, 3, 2), but its agents have (4, 2, 2)",
              lambda doc: {**doc, "p": 3}),
    _instance("wrong-m", 1, "error: document says (n, p, m) = (4, 2, 1), but its agents have (4, 2, 2)",
              lambda doc: {**doc, "m": 1}),
    _instance("ragged-agents", 1, "error: A must be numbers, got list entries",
              lambda doc: {**doc, "agents": [*doc["agents"][:-1], {"P": [[1.0]], "Q": [0], "A": [[1.0]], "d": [0]}]}),
    _instance("d-text", 1, "error: d must be numbers, got str entries",
              lambda doc: {**doc, "agents": [{**agent, "d": [str(v) for v in agent["d"]]} for agent in doc["agents"]]}),
    # numpy would read a boolean among numbers as 1 or 0
    _instance("Q-boolean", 1, "error: Q must be numbers, got bool entries", lambda doc: _agent0(doc, Q=[True, 0.5])),
    _instance("weights-text", 1, "error: weights must be numbers, got str entries",
              lambda doc: _topology(doc, weights=["1"] * 5)),
    _instance("edge-boolean", 1, "error: edges must be integers, got bool entries",
              lambda doc: _topology(doc, edges=[[0, True], *doc["topology"]["edges"][1:]])),
    _instance("dense-weight-matrix", 1, "error: need one weight per edge, got shape (4, 4) for 5 edges",
              lambda doc: _topology(doc, weights=np.eye(4).tolist())),
    # agent 0's A is of full row rank by the rank rule (smallest singular value 3.2e-9), but AA' is singular in floats
    Rejected("TestRun::test_singular_projector_fails_before_the_oracle_solve", 1,
             "error: agent 0: AA' is singular in floating point", {},
             lambda doc: _agent0(doc, A=[[1.0, 2.0], [1.0, 2.0 + 1e-8]])),
    Rejected("TestRun::test_one_agent_instance_file_is_an_error", 1,
             "error: one agent: a single node's Laplacian has no nonzero eigenvalue (sigma_L_min)", {}, _one_agent),
]


def edited_keys(doc, base) -> set[str]:
    """The keys on each path where ``doc`` differs from ``base``; what ``doc`` adds brings every key under it."""
    if isinstance(doc, list) and isinstance(base, (list, type(None))):
        base = base or []
        return set().union(*(edited_keys(item, base[idx] if idx < len(base) else None) for idx, item in enumerate(doc)))
    if not (isinstance(doc, dict) and isinstance(base, (dict, type(None)))):
        return set()
    base = base or {}
    keys = {key for key in doc.keys() | base.keys() if key not in doc or key not in base or doc[key] != base[key]}
    return keys.union(*(edited_keys(doc.get(key), base.get(key)) for key in keys))


def test_every_schema_key_is_edited_by_a_row():
    base = {**BASE, "out": "out"}
    edited = set()
    for row in REJECTED:
        edited |= edited_keys(row.document(base), base)
    assert {key for key, _ in schema_keys(_CONFIG)} - edited == set()


def _rejection_test(cases: dict):
    """The test of ``cases`` (an id's rows, by id), parametrised by id unless its one id is None."""

    def test(self, tmp_path, monkeypatch, capsys, case):
        for idx, row in enumerate(cases[case]):
            check_rejected(row, tmp_path / str(idx), monkeypatch, capsys)

    def single(self, tmp_path, monkeypatch, capsys):
        test(self, tmp_path, monkeypatch, capsys, None)

    return single if list(cases) == [None] else pytest.mark.parametrize("case", list(cases))(test)


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


class TestParseConfig:
    def test_minimal_file(self, tmp_path):
        config = parse_config(write_config(tmp_path, iters=10))
        assert config["iters"] == 10
        assert config["hp"]["buffer"] == {"kind": "constant", "omega": 0.0}
        config = parse_config(write_config(tmp_path, iters=30.0))  # a whole float is an integer
        assert config["iters"] == 30 and type(config["iters"]) is int

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path)
        config = parse_config(path, overrides={"seed": 99, "iters": 7, "out": "o2"})
        assert config["instance"]["generate"]["seed"] == 99
        assert config["iters"] == 7
        assert config["out"] == "o2"
        with pytest.raises(ConfigError, match="unknown override 'x'"):
            parse_config(path, overrides={"x": 1})

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "fig2", "iters": 777}), encoding="utf-8")
        config = parse_config(str(path))
        assert config["iters"] == 777
        assert config["instance"] == FIG2_EXPANDED["instance"]


class TestRun:
    BUFFERED = {**HP, "buffer": {"kind": "constant", "omega": 0.05}}

    def test_writes_artifacts(self, tmp_path):
        assert main(["run", "--config", write_config(tmp_path, hp=self.BUFFERED)]) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "bounds.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert {"final_gap", "final_violation", "recovery_iteration", "conditions"} <= set(report)
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "k,gap,violation_l1,slack_0,slack_1"

    def test_instance_file_source(self, tmp_path):
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(instance_to_json(generate_instance(5, 4, 8.0, 1)), encoding="utf-8")
        assert main(["run", "--config", write_config(tmp_path, instance={"file": str(inst_path)})]) == 0

    def test_equality_mode_run(self, tmp_path):
        hp = {"alpha": 0.02, "beta": 0.2, "eta": 0.1, "gamma": 0.8}
        assert main(["run", "--config", write_config(tmp_path, mode="equality", hp=hp, init={"mode": "zero"})]) == 0

    def test_deterministic_csv(self, tmp_path):
        main(["run", "--config", write_config(tmp_path, hp=self.BUFFERED, out=str(tmp_path / "a"))])
        main(["run", "--config", write_config(tmp_path, hp=self.BUFFERED, out=str(tmp_path / "b"))])
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_bounds_at_the_largest_violation(self, tmp_path):
        assert main(["run", "--config", write_config(tmp_path, hp=self.BUFFERED, disturbances=[DIST])]) == 0
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
        assert main(["run", "--config", write_config(tmp_path, disturbances=[DIST])]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        docs = {
            name: json.loads((tmp_path / "out" / name).read_text(), parse_constant=reject)
            for name in ("bounds.json", "report.json")
        }
        assert docs["bounds.json"]["recovery_bound_t"] == "inf"
        assert docs["bounds.json"]["C_vio"] > 0

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
        cfg = {"preset": "buffer-sweep", "iters": 25} if sweep else BASE
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
        with pytest.raises(ConfigError, match="must be a whole number, got"):
            parse_config(preset="fig2", overrides=overrides)

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

    def test_member_errors_come_before_the_instance_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(danyra.cli, "generate_instance", lambda **kw: pytest.fail("the instance was built"))
        sweep = [{"kind": "constant", "omega": 0.1}, {"kind": "constant", "omega": 0.1}]
        assert main(["run", "--config", self._sweep_config(tmp_path, sweep)]) == 2
        assert "sweep members must have distinct labels" in capsys.readouterr().err
        sweep = [{"kind": "constant", "omega": 0.1}, {"kind": "constant", "omega": -1.0}]
        assert main(["run", "--config", self._sweep_config(tmp_path, sweep)]) == 2
        assert capsys.readouterr().err == "config error: buffer levels must be finite and >= 0, got (-1.0,)\n"
        assert not (tmp_path / "sweep").exists()

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["run"]) == 2
        assert capsys.readouterr().err == "config error: provide --config and/or --preset\n"
        path = write_config(tmp_path, instance={"file": "instance.json"})
        assert main(["run", "--config", path, "--seed", "3"]) == 2
        assert capsys.readouterr().err == "config error: --seed only applies to generated instances\n"
        # the mode is a config key only: --mode is not an option
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "fig2", "--mode", "eq"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode eq" in capsys.readouterr().err
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "fig2", "hp": {**HP, "alpha": 50.0}, "out": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "divergence: non-finite x at iteration 121 (agents [11])\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["inequality", "equality"])
    def test_singular_dual_system_is_an_oracle_failure(self, tmp_path, capsys, monkeypatch, mode):
        # both solvers raise OracleFailureError on a singular dual system, and it exits 4
        m = 2
        monkeypatch.setattr(danyra.oracle, "_dual", lambda instance: (None, np.zeros((m, m)), np.ones(m)))
        hp = HP if mode == "equality" else {**HP, "buffer": {"kind": "constant", "omega": 0.1}}
        assert main(["run", "--config", write_config(tmp_path, hp=hp, mode=mode)]) == 4
        assert capsys.readouterr().err.startswith("oracle failure: singular dual system on rows")
        assert not (tmp_path / "out").exists()


class TestBufferConfig:
    """A buffer section is ``kind`` plus exactly that kind's level key, read only where a queue reads it."""

    def test_kinds_are_their_factories(self, tmp_path):
        for doc, made in (
            ({"kind": "constant", "omega": 0.1}, BufferSchedule.constant(0.1)),
            ({"kind": "decaying", "coefficient": 5.0}, BufferSchedule.decaying(5.0)),
            ({"kind": "sequence", "values": [1.0, 0.5]}, BufferSchedule.sequence([1.0, 0.5])),
        ):
            config = parse_config(write_config(tmp_path, hp={**HP, "buffer": doc}))
            assert danyra.cli._hyperparams(config["hp"], config["hp"]["buffer"]).buffer == made
            config = parse_config(write_config(tmp_path, sweep=[doc]))
            assert danyra.cli._hyperparams(config["hp"], config["sweep"][0]).buffer == made

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
        config = parse_config(write_config(tmp_path, mode="equality", hp=hp))
        assert config["mode"] == "equality"
        hp = danyra.cli._hyperparams(config["hp"], config["hp"]["buffer"])
        danyra.cli._build_plan(config, generate_instance(3, 4, 8.0, 1), hp)  # the plan takes it


def _attach_rejection_tests() -> None:
    """Make each test named in ``REJECTED`` a method of its class that checks its rows."""
    tests: dict[str, dict] = {}  # "Class::test" -> {its id, or None: its rows}
    for row in REJECTED:
        name, _, case = row.test.partition("[")
        tests.setdefault(name, {}).setdefault(case[:-1] or None, []).append(row)
    for name, cases in tests.items():
        owner, method = name.split("::")
        setattr(globals()[owner], method, _rejection_test(cases))


_attach_rejection_tests()
