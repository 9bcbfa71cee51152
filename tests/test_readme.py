"""README.md's Python examples and its config run as written, its CLI section names exactly the options of
``danyra run``, its config rules name exactly the list and nullable keys of the config schema, and the package
exports exactly the documented names."""

import re
import types
from pathlib import Path

import pytest

import danyra
from danyra.cli import _BUFFER_KINDS, _CONFIG, main, parse_config, run
from danyra.problem import _Object, _OrNull

README = Path(__file__).resolve().parent.parent / "README.md"

# each exported name and the module that defines it
PUBLIC_NAMES = {
    **dict.fromkeys(["SwarmState", "init_state", "iterate"], "danyra.engine"),
    **dict.fromkeys(
        [
            "ConfigError", "DanyraError", "DivergenceError", "InvalidInstanceError",
            "OracleFailureError", "TopologyError",
        ],
        "danyra.errors",
    ),
    **dict.fromkeys(
        [
            "DisturbanceEvent", "ExperimentPlan", "Trace", "apply_disturbance", "optimality_gap", "run_experiment",
            "slack_sum", "violation_l1",
        ],
        "danyra.netsim",
    ),
    **dict.fromkeys(["OracleSolution", "solve_active_set", "solve_equality"], "danyra.oracle"),
    **dict.fromkeys(
        [
            "EQUALITY", "INEQUALITY", "BufferSchedule", "CallableCost", "HyperParams", "ProblemInstance",
            "SpectralConstants", "Topology", "generate_instance", "instance_from_json", "instance_to_json",
            "metropolis_weights", "spectral_constants",
        ],
        "danyra.problem",
    ),
    **dict.fromkeys(
        [
            "BoundsReport", "ConditionCheck", "ConditionReport", "bounds_report", "recovery_iteration",
            "validate_hyperparams",
        ],
        "danyra.theory",
    ),
}


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:  # in order: later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)


def test_json_config_block_runs(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    configs = [block for block in blocks if '"out"' in block]
    assert len(configs) == 1
    path = tmp_path / "config.json"
    path.write_text(configs[0], encoding="utf-8")
    config = parse_config(str(path), overrides={"iters": 600, "out": str(tmp_path / "out")})
    assert run(config) == 0
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_section_documents_exactly_the_run_options(capsys):
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)^## ", text, re.M | re.S).group(1)
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    options = set(re.findall(r"^ +(?:-\w, )?(--[a-z][a-z-]*)", capsys.readouterr().out, re.M)) - {"--help"}
    assert {"--config", "--preset"} <= options
    assert documented == options


def schema_keys(kind):
    """(key, kind) for every key of the config schema ``kind``, at any depth, buffer level keys included."""
    if isinstance(kind, _OrNull):
        yield from schema_keys(kind.kind)
    elif isinstance(kind, list):
        yield from schema_keys(kind[0])
    elif kind is _BUFFER_KINDS:
        for buffer in _BUFFER_KINDS.values():
            yield buffer.key, buffer.level
    elif isinstance(kind, _Object):
        for key, item in kind.keys.items():
            yield key, item
            yield from schema_keys(item)


def documented_keys(rule: str) -> set[str]:
    """The backquoted names in README's sentence that ``rule`` matches (its group 1)."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    return set(re.findall(r"`(\w+)`", re.search(rule, text).group(1)))


def test_config_rules_name_exactly_the_list_and_null_keys():
    keys = list(schema_keys(_CONFIG))
    lists = {key for key, kind in keys if isinstance(kind.kind if isinstance(kind, _OrNull) else kind, list)}
    nullable = {key for key, kind in keys if isinstance(kind, _OrNull)}
    assert {"disturbances", "sweep", "additive", "values"} <= lists and {"preset", "sweep"} <= nullable
    assert documented_keys(r"\.\s+([^.]*) are lists\.") == lists
    assert documented_keys(r"`null` is allowed only where it is the default: ([^.]*)\.") == nullable


def test_public_names():
    exported = {
        name
        for name, value in vars(danyra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(PUBLIC_NAMES) == set(danyra.__all__)
    for name, module in PUBLIC_NAMES.items():
        value = getattr(danyra, name)
        if isinstance(value, (type, types.FunctionType)):  # the constants carry no module
            assert value.__module__ == module, name
