"""Config parsing, experiment presets, and CSV/JSON emission.

Configs are single UTF-8 JSON documents; command-line flags override file
keys, which override preset keys.  One experiment per process invocation.
The merged document is checked against one schema of JSON kinds; range and
shape checks are left to the constructors the values go to.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, DanyraError, DivergenceError, OracleFailureError
from .metrics import violation_l1
from .netsim import DisturbanceEvent, ExperimentPlan, run_experiment
from .oracle import solve_active_set, solve_equality
from .problem import (
    EQUALITY,
    INEQUALITY,
    BufferSchedule,
    HyperParams,
    generate_instance,
    instance_from_json,
    spectral_constants,
)
from .theory import bounds_report, largest_violation, recovery_iteration, validate_hyperparams

# Benchmark seed: chosen so that placing every decision at its demand vector
# is feasible (sum of the C coefficients stays below n) and the draw is well
# conditioned enough to converge below 1e-6 gap within the preset horizon.
BENCHMARK_SEED = 1534
EQUALITY_SEED = 101

_BENCHMARK_INSTANCE = {"generate": {"seed": BENCHMARK_SEED, "n": 14, "r_max": 70.0, "extra_edges": 16}}
_BENCHMARK_HP = {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2}

PRESETS: dict[str, dict] = {
    "fig2": {
        "instance": _BENCHMARK_INSTANCE,
        "hp": {**_BENCHMARK_HP, "buffer": {"kind": "constant", "omega": 0.0}},
        "mode": INEQUALITY,
        "iters": 20000,
        "record_every": 1,
        "disturbances": [{"at_iteration": 500, "additive": [50.0, 50.0]}],
        "init": {"mode": "at_demand"},
        "out": "runs/fig2",
    },
    "buffer-sweep": {
        "instance": _BENCHMARK_INSTANCE,
        "hp": _BENCHMARK_HP,
        "sweep": [
            {"kind": "constant", "omega": 0.01},
            {"kind": "constant", "omega": 0.1},
            {"kind": "constant", "omega": 1.0},
            {"kind": "decaying", "coefficient": 5.0},
        ],
        "mode": INEQUALITY,
        "iters": 20000,
        "record_every": 1,
        "disturbances": [{"at_iteration": 0, "additive": [50.0, 50.0]}],
        "init": {"mode": "at_demand"},
        "out": "runs/buffer-sweep",
    },
    "equality": {
        "instance": {"generate": {"seed": EQUALITY_SEED, "n": 10, "r_max": 20.0, "extra_edges": 6}},
        "hp": {"alpha": 0.02974, "beta": 0.27, "eta": 0.07, "gamma": 0.8922},
        "mode": EQUALITY,
        "iters": 50000,
        "record_every": 5,
        "disturbances": [],
        "init": {"mode": "zero"},
        "out": "runs/equality",
    },
}


class _Object(NamedTuple):
    """An object section: the kind of each key it may have, and the keys it must have."""

    keys: dict
    required: tuple = ()


class _OrNull(NamedTuple):
    """``null`` or a value of ``kind``."""

    kind: object


# Each buffer kind of a config: its level key and that level's kind, its schedule, and its sweep-member label.
_BufferKind = namedtuple("_BufferKind", "key level make label")
_BUFFER_KINDS = {
    "constant": _BufferKind("omega", float, BufferSchedule.constant, "omega-{:g}".format),
    "decaying": _BufferKind("coefficient", float, BufferSchedule.decaying, "omega-{:g}-over-k".format),
    "sequence": _BufferKind(
        "values", [float], BufferSchedule.sequence, lambda values: "omega-seq-" + "-".join(map("{:g}".format, values))
    ),
}

# The config document.  A kind is an ``_Object`` section, ``_OrNull``, a one-item list ``[kind]`` (a
# list of that kind), ``_BUFFER_KINDS`` (a buffer section: ``kind`` and exactly that kind's level key),
# or one of the JSON scalars below, named by the Python type it parses to.
_SCALARS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}
_CONFIG = _Object(
    {
        "preset": _OrNull(str),
        "instance": _Object(
            {
                "generate": _Object(
                    {"seed": int, "n": int, "r_max": float, "extra_edges": int}, ("seed", "n", "r_max")
                ),
                "file": str,
            }
        ),
        "hp": _Object(
            {"alpha": float, "beta": float, "eta": float, "gamma": float, "buffer": _BUFFER_KINDS},
            ("alpha", "beta", "eta", "gamma"),
        ),
        "sweep": _OrNull([_BUFFER_KINDS]),
        "mode": str,
        "iters": int,
        "record_every": int,
        "disturbances": [_Object({"at_iteration": int, "additive": [float]}, ("at_iteration", "additive"))],
        "init": _Object({"mode": str}),
        "out": str,
    },
    ("instance", "hp", "mode", "iters", "out"),
)


def _checked(value, kind, path: str = ""):
    """A copy of the JSON ``value`` checked against ``kind``, integers as ``int``; a mismatch names its path."""
    if isinstance(kind, _OrNull):
        return None if value is None else _checked(value, kind.kind, path)
    if kind is _BUFFER_KINDS:  # the kind first: it picks the one level key the section may have
        if not (isinstance(value, dict) and "kind" in value):
            raise ConfigError(f"{path} must be an object with a 'kind', got {value!r}")
        tag = _checked(value["kind"], str, f"{path}.kind")
        if tag not in _BUFFER_KINDS:
            raise ConfigError(f"{path}.kind must be one of {sorted(_BUFFER_KINDS)}, got {tag!r}")
        key, level, *_ = _BUFFER_KINDS[tag]
        kind = _Object({"kind": str, key: level}, ("kind", key))
    if isinstance(kind, _Object):
        where = path or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        unknown = sorted(set(value) - set(kind.keys))
        if unknown:
            raise ConfigError(f"unknown key(s) {unknown} in {where}")
        for key in kind.required:
            if key not in value:
                raise ConfigError(f"missing required key {key!r} in {where}")
        return {key: _checked(item, kind.keys[key], f"{path}.{key}" if path else key) for key, item in value.items()}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [_checked(item, kind[0], f"{path}[{idx}]") for idx, item in enumerate(value)]
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) == (kind is bool) and isinstance(value, (int, float) if kind is float else kind):
        return value
    raise ConfigError(f"{path} must be {_SCALARS[kind]}, got {value!r}")


def _hyperparams(hp: dict, buffer: dict) -> HyperParams:
    """The step parameters of a checked config with the queue floor ``buffer``."""
    steps = {key: hp[key] for key in ("alpha", "beta", "eta", "gamma")}
    kind = _BUFFER_KINDS[buffer["kind"]]
    return HyperParams(**steps, buffer=kind.make(buffer[kind.key]))


def _validate_config(cfg: dict) -> dict:
    """Check a merged config and return a copy of it expanded: every top-level key present, defaults filled in."""
    cfg = _checked(cfg, _CONFIG)
    if len(cfg["instance"]) != 1:
        raise ConfigError("instance must be exactly one of {'generate': {...}} or {'file': path}")
    if cfg["mode"] not in (INEQUALITY, EQUALITY):
        raise ConfigError(f"mode must be {INEQUALITY!r} or {EQUALITY!r}, got {cfg['mode']!r}")
    sweep, hp = cfg.get("sweep"), cfg["hp"]
    if sweep == []:
        raise ConfigError("sweep must list at least one buffer")
    if sweep is not None and "buffer" in hp:
        raise ConfigError("hp.buffer and sweep are exclusive: a sweep runs each member's buffer, never hp.buffer")
    if sweep is not None and cfg["mode"] == EQUALITY:
        raise ConfigError("sweep is not allowed in equality mode: with no queue, every member would run alike")
    if sweep is None:  # a sweep runs its members' buffers and never reads hp.buffer
        hp = {"buffer": {"kind": "constant", "omega": 0.0}, **hp}
    return {
        "preset": None,
        "sweep": None,
        "record_every": 1,
        "disturbances": [],
        "init": {"mode": "at_demand"},
        **cfg,
        "hp": hp,
    }


def parse_config(
    config_path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> dict:
    """Merge preset defaults, a JSON config file, and flag overrides into one checked config."""
    cfg: dict = {}
    if config_path is not None:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config document must be a JSON object")
        cfg.update(file_cfg)
        preset = preset or cfg.get("preset")

    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        cfg = {**PRESETS[preset], **cfg, "preset": preset}

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "seed":
            source = cfg.get("instance")
            if not (isinstance(source, dict) and isinstance(source.get("generate"), dict)):
                raise ConfigError("--seed only applies to generated instances")
            cfg["instance"] = {"generate": {**source["generate"], "seed": value}}
        elif key in ("iters", "out"):
            cfg[key] = value
        else:
            raise ConfigError(f"unknown override {key!r}")

    return _validate_config(cfg)


def _build_instance(config: dict):
    if "generate" in config["instance"]:
        return generate_instance(**config["instance"]["generate"])
    path = config["instance"]["file"]
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read instance file {path}: {exc}") from exc
    return instance_from_json(text)


def _build_plan(config: dict, instance, hp: HyperParams) -> ExperimentPlan:
    return ExperimentPlan(
        instance=instance,
        hp=hp,
        iters=config["iters"],
        mode=config["mode"],
        disturbances=tuple(DisturbanceEvent(**d) for d in config["disturbances"]),
        record_every=config["record_every"],
        init_mode=config["init"].get("mode", "at_demand"),
    )


def _buffer_label(buffer: dict) -> str:
    kind = _BUFFER_KINDS[buffer["kind"]]
    return kind.label(buffer[kind.key])


def _strict(value):
    """``value`` with infinite floats, at any depth, written as the strings "inf" and "-inf"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Write strict JSON: infinities become strings, and a NaN raises instead of writing ``NaN``."""
    text = json.dumps(_strict(payload), indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def run(config: dict) -> int:
    """Check every input, then solve the oracle, run each member and write its files.

    Every rejection comes before the oracle solve and writes nothing.  A single run writes to ``out``; a sweep writes
    each member's files to ``out/<label>`` and an aggregate ``report.json`` to ``out``, after every run has finished.
    """
    sweep = config["sweep"]
    buffers = sweep or [config["hp"]["buffer"]]
    hps = [_hyperparams(config["hp"], buffer) for buffer in buffers]  # the range checks, before the instance build
    labels = [_buffer_label(buffer) for buffer in sweep or []]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"sweep members must have distinct labels, got {labels}")
    instance = _build_instance(config)
    plans = [_build_plan(config, instance, hp) for hp in hps]
    out_root = Path(config["out"])
    dirs = [out_root / label for label in labels] or [out_root]
    # every file a run writes, checked before any work: none may be a directory, nor lie under a non-directory
    for path in [out_root / "report.json", *(d / f for d in dirs for f in ("trace.csv", "bounds.json", "report.json"))]:
        existing = next(part for part in (path, *path.parents) if part.exists())
        if existing.is_dir() == (existing == path):
            what = "a directory" if existing == path else "not a directory"
            raise ConfigError(f"out {str(out_root)!r} cannot hold {str(path)!r}: {str(existing)!r} is {what}")
    sc = spectral_constants(instance)
    report = validate_hyperparams(plans[0].hp, sc, config["mode"])  # every member's: the conditions read no buffer
    oracle = solve_equality(instance) if config["mode"] == EQUALITY else solve_active_set(instance)

    traces = []
    for plan, label in zip(plans, labels or [None]):
        try:
            traces.append(run_experiment(plan, oracle))
        except DivergenceError as exc:  # a sweep member's message starts with its label
            raise DivergenceError(f"{label}: {exc}" if label else str(exc), k=exc.k, agents=exc.agents) from exc

    summaries = []
    for plan, trace, buffer, out_dir in zip(plans, traces, buffers, dirs):
        initial_violation = violation_l1(instance, plan.start)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace.to_csv(out_dir / "trace.csv")
        C_vio, C_vio_k = largest_violation(initial_violation, trace)
        bounds = bounds_report(sc, plan.hp, instance.n, C_vio)
        _write_json(out_dir / "bounds.json", {**dataclasses.asdict(bounds), "C_vio": C_vio, "C_vio_k": C_vio_k})
        summary = {
            "preset": config["preset"],
            "mode": plan.mode,
            "buffer": buffer,
            "iters": plan.iters,
            "seed": config["instance"].get("generate", {}).get("seed"),
            "n": instance.n,
            "initial_violation": initial_violation,
            "final_gap": trace.final_gap,
            "final_violation": trace.final_violation,
            "recovery_iteration": recovery_iteration(trace),
            "conditions": report.to_dict(),
            "wallclock_per_iteration": trace.wallclock_per_iteration,
        }
        _write_json(out_dir / "report.json", summary)
        summaries.append(summary)
    if sweep is not None:
        keys = ("final_gap", "final_violation", "recovery_iteration")
        members = {label: {key: s[key] for key in keys} for label, s in zip(labels, summaries)}
        _write_json(out_root / "report.json", {"preset": config["preset"], "members": members})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="danyra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment (or preset sweep)")
    runp.add_argument("--config", help="JSON config file")
    runp.add_argument("--preset", help=f"named experiment preset ({', '.join(sorted(PRESETS))})")
    runp.add_argument("--seed", type=int, help="override the generator seed")
    runp.add_argument("--iters", type=int, help="override the iteration count")
    runp.add_argument("--out", help="override the output directory")

    args = parser.parse_args(argv)
    try:
        if args.config is None and args.preset is None:
            raise ConfigError("provide --config and/or --preset")
        config = parse_config(
            config_path=args.config,
            preset=args.preset,
            overrides={key: getattr(args, key) for key in ("seed", "iters", "out")},
        )
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except OracleFailureError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4
    except DanyraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
