"""Config parsing, experiment presets, and CSV/JSON emission.

Configs are single UTF-8 JSON documents; command-line flags override file
keys, which override preset keys.  One experiment per process invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .engine import init_state
from .errors import ConfigError, DanyraError, DivergenceError, OracleFailureError
from .metrics import ZERO_VIOLATION_TOL, bounds_report, recovery_iteration, violation_l1
from .netsim import DisturbanceEvent, ExperimentPlan, Trace, run_experiment
from .oracle import solve_active_set, solve_equality
from .problem import (
    EQUALITY,
    INEQUALITY,
    BufferSchedule,
    HyperParams,
    generate_instance,
    instance_from_json,
    spectral_constants,
    validate_hyperparams,
)

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
        "disturbances": [
            {
                "at_iteration": 500,
                "additive": [50.0, 50.0],
                "agent_ids": None,
                "perturb_x_prime": True,
            }
        ],
        "init": {"mode": "at_demand"},
        "out": "runs/fig2",
    },
    "buffer-sweep": {
        "instance": _BENCHMARK_INSTANCE,
        "hp": {**_BENCHMARK_HP, "buffer": {"kind": "constant", "omega": 0.01}},
        "sweep": [
            {"kind": "constant", "omega": 0.01},
            {"kind": "constant", "omega": 0.1},
            {"kind": "constant", "omega": 1.0},
            {"kind": "decaying", "coefficient": 5.0},
        ],
        "mode": INEQUALITY,
        "iters": 20000,
        "record_every": 1,
        "disturbances": [],
        "init": {"mode": "at_demand", "offset": [50.0, 50.0]},
        "out": "runs/buffer-sweep",
    },
    "equality": {
        "instance": {"generate": {"seed": EQUALITY_SEED, "n": 10, "r_max": 20.0, "extra_edges": 6}},
        "hp": {
            "alpha": 0.02974,
            "beta": 0.27,
            "eta": 0.07,
            "gamma": 0.8922,
            "buffer": {"kind": "constant", "omega": 0.0},
        },
        "mode": EQUALITY,
        "iters": 50000,
        "record_every": 5,
        "disturbances": [],
        "init": {"mode": "zero"},
        "out": "runs/equality",
    },
}

_TOP_KEYS = {
    "preset",
    "instance",
    "hp",
    "sweep",
    "mode",
    "iters",
    "record_every",
    "disturbances",
    "init",
    "out",
}
_HP_KEYS = {"alpha", "beta", "eta", "gamma", "buffer"}
_BUFFER_KEYS = {"kind", "omega", "coefficient", "values"}
_INIT_KEYS = {"mode", "offset", "x0"}
_DISTURBANCE_KEYS = {"at_iteration", "additive", "agent_ids", "perturb_x_prime"}
_GENERATE_KEYS = {"seed", "n", "r_max", "extra_edges"}


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _number(value, where: str, kind: type = float):
    """``kind(value)`` for a JSON number; anything else, or a fraction as an integer, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"{where} must be a finite number, got {value!r}") from exc


def _numbers(value, where: str, ndim: int, kinds: str = "iuf") -> None:
    """Reject anything but an ``ndim``-deep rectangular list of numbers (of integers for ``kinds="iu"``)."""
    try:
        arr = np.array(value)
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.ndim != ndim or (arr.size and arr.dtype.kind not in kinds):
        raise ConfigError(f"{where} must be a rectangular {ndim}-dimensional list of numbers, got {value!r}")


def _validate_buffer(buffer: dict, where: str) -> None:
    _reject_unknown(buffer, _BUFFER_KEYS, where)
    kind = buffer.get("kind")
    if kind == "sequence":
        _numbers(_require(buffer, "values", where), f"{where}.values", 1)
    elif kind in ("constant", "decaying"):
        key = "omega" if kind == "constant" else "coefficient"
        _number(_require(buffer, key, where), f"{where}.{key}")
    BufferSchedule.from_dict(buffer)  # the range checks, and an unknown kind


def _hyperparams(hp: dict, buffer: dict) -> HyperParams:
    """The step parameters of a validated config with the queue floor ``buffer``."""
    steps = {key: float(hp[key]) for key in ("alpha", "beta", "eta", "gamma")}
    return HyperParams(**steps, buffer=BufferSchedule.from_dict(buffer))


def _validate_config(cfg: dict) -> dict:
    """Check a merged config and return it expanded: every top-level key present, defaults filled in."""
    _reject_unknown(cfg, _TOP_KEYS, "config")
    instance = _require(cfg, "instance", "config")
    if not isinstance(instance, dict) or len(instance) != 1 or next(iter(instance)) not in (
        "generate",
        "file",
    ):
        raise ConfigError("instance must be exactly one of {'generate': {...}} or {'file': path}")
    if "generate" in instance:
        _reject_unknown(instance["generate"], _GENERATE_KEYS, "instance.generate")
        for key in ("seed", "n", "r_max"):
            _require(instance["generate"], key, "instance.generate")
        for key, value in instance["generate"].items():
            _number(value, f"instance.generate.{key}", float if key == "r_max" else int)

    hp = _require(cfg, "hp", "config")
    _reject_unknown(hp, _HP_KEYS, "hp")
    for key in ("alpha", "beta", "eta", "gamma"):
        _number(_require(hp, key, "hp"), f"hp.{key}")
    buffer = hp.get("buffer", {"kind": "constant", "omega": 0.0})
    _validate_buffer(buffer, "hp.buffer")
    hp = {**hp, "buffer": buffer}
    _hyperparams(hp, buffer)  # the step parameters' range checks

    mode = _require(cfg, "mode", "config")
    if mode not in (INEQUALITY, EQUALITY):
        raise ConfigError(f"mode must be {INEQUALITY!r} or {EQUALITY!r}, got {mode!r}")

    iters = _number(_require(cfg, "iters", "config"), "iters", int)
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")

    init = cfg.get("init", {"mode": "at_demand"})
    _reject_unknown(init, _INIT_KEYS, "init")
    if init.get("mode", "at_demand") not in ("at_demand", "zero", "custom"):
        raise ConfigError(f"unknown init mode {init.get('mode')!r}")
    for key, ndim in (("offset", 1), ("x0", 2)):
        if init.get(key) is not None:
            _numbers(init[key], f"init.{key}", ndim)

    disturbances = []
    for idx, dist in enumerate(cfg.get("disturbances", [])):
        where = f"disturbances[{idx}]"
        _reject_unknown(dist, _DISTURBANCE_KEYS, where)
        _number(_require(dist, "at_iteration", where), f"{where}.at_iteration", int)
        _numbers(_require(dist, "additive", where), f"{where}.additive", 1)
        if dist.get("agent_ids") is not None:
            _numbers(dist["agent_ids"], f"{where}.agent_ids", 1, "iu")
        disturbances.append(dict(dist))

    sweep = cfg.get("sweep")
    if sweep is not None:
        for idx, member in enumerate(sweep):
            _validate_buffer(member, f"sweep[{idx}]")
        sweep = [dict(member) for member in sweep]

    return {
        "preset": cfg.get("preset"),
        "instance": instance,
        "hp": hp,
        "sweep": sweep,
        "mode": mode,
        "iters": iters,
        "record_every": _number(cfg.get("record_every", 1), "record_every", int),
        "disturbances": disturbances,
        "init": dict(init),
        "out": str(_require(cfg, "out", "config")),
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
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        merged = {**PRESETS[preset], **cfg}
        merged["preset"] = preset
        cfg = merged

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "seed":
            source = cfg.get("instance", {})
            if "generate" not in source:
                raise ConfigError("--seed only applies to generated instances")
            cfg["instance"] = {"generate": {**source["generate"], "seed": int(value)}}
        elif key == "mode":
            cfg["mode"] = {"ineq": INEQUALITY, "eq": EQUALITY}.get(value, value)
        elif key == "iters":
            cfg[key] = int(value)
        elif key == "out":
            cfg[key] = str(value)
        else:
            raise ConfigError(f"unknown override {key!r}")

    return _validate_config(cfg)


def _build_instance(config: dict):
    if "generate" in config["instance"]:
        gen = config["instance"]["generate"]
        return generate_instance(
            seed=int(gen["seed"]),
            n=int(gen["n"]),
            r_max=float(gen["r_max"]),
            extra_edges=int(gen.get("extra_edges", 0)),
        )
    path = config["instance"]["file"]
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read instance file {path}: {exc}") from exc
    return instance_from_json(text)


def _build_plan(config: dict, instance, buffer: dict) -> ExperimentPlan:
    hp = _hyperparams(config["hp"], buffer)
    disturbances = tuple(
        DisturbanceEvent(
            at_iteration=int(d["at_iteration"]),
            additive=np.array(d["additive"], dtype=float),
            agent_ids=None if d.get("agent_ids") is None else tuple(d["agent_ids"]),
            perturb_x_prime=bool(d.get("perturb_x_prime", True)),
        )
        for d in config["disturbances"]
    )
    init = config["init"]
    return ExperimentPlan(
        instance=instance,
        hp=hp,
        iters=config["iters"],
        mode=config["mode"],
        disturbances=disturbances,
        record_every=config["record_every"],
        init_mode=init.get("mode", "at_demand"),
        x0=None if init.get("x0") is None else np.array(init["x0"], dtype=float),
        x0_offset=None if init.get("offset") is None else np.array(init["offset"], dtype=float),
    )


def _buffer_label(buffer: dict) -> str:
    if buffer["kind"] == "constant":
        return f"omega-{buffer['omega']:g}"
    if buffer["kind"] == "decaying":
        return f"omega-{buffer['coefficient']:g}-over-k"
    return "omega-sequence"


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


def _largest_violation(initial_violation: float, trace: Trace) -> tuple[float, int]:
    """The largest violation a run faced and its iteration (0 for the initial state).

    A recorded row counts only when it exceeds the initial violation (so a tie
    goes to k = 0) and the rounding level that ``recovery_iteration`` treats as
    zero.
    """
    peak = int(np.argmax(trace.violation_l1))
    if trace.violation_l1[peak] > max(initial_violation, ZERO_VIOLATION_TOL):
        return float(trace.violation_l1[peak]), int(trace.ks[peak])
    return initial_violation, 0


def _run_single(config, instance, oracle, sc, report, buffer, out_dir: Path) -> dict:
    plan = _build_plan(config, instance, buffer)
    initial = init_state(
        instance,
        plan.hp,
        plan.init_mode,
        mode=plan.mode,
        x0=plan.x0,
        x0_offset=plan.x0_offset,
    )
    initial_violation = violation_l1(instance, initial.x)
    trace = run_experiment(plan, oracle)

    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv")
    C_vio, C_vio_k = _largest_violation(initial_violation, trace)
    bounds = bounds_report(sc, plan.hp, instance.n, C_vio)
    _write_json(out_dir / "bounds.json", {**bounds.to_dict(), "C_vio": C_vio, "C_vio_k": C_vio_k})

    recovery = recovery_iteration(trace)
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
        "recovery_iteration": recovery,
        "conditions": report.to_dict(),
        "wallclock_per_iteration": trace.wallclock_per_iteration,
    }
    _write_json(out_dir / "report.json", summary)
    return summary


def run(config: dict) -> int:
    """Build the instance, solve the oracle, run the experiment(s), emit files."""
    instance = _build_instance(config)
    oracle = solve_equality(instance) if config["mode"] == EQUALITY else solve_active_set(instance)
    sc = spectral_constants(instance)
    report = validate_hyperparams(_hyperparams(config["hp"], config["hp"]["buffer"]), sc, config["mode"])

    out_root = Path(config["out"])
    if config["sweep"] is None:
        _run_single(config, instance, oracle, sc, report, config["hp"]["buffer"], out_root)
    else:
        summaries = {}
        for buffer in config["sweep"]:
            label = _buffer_label(buffer)
            summaries[label] = _run_single(
                config, instance, oracle, sc, report, buffer, out_root / label
            )
        out_root.mkdir(parents=True, exist_ok=True)
        _write_json(
            out_root / "report.json",
            {
                "preset": config["preset"],
                "members": {
                    label: {
                        "final_gap": s["final_gap"],
                        "final_violation": s["final_violation"],
                        "recovery_iteration": s["recovery_iteration"],
                    }
                    for label, s in summaries.items()
                },
            },
        )
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
    runp.add_argument("--mode", choices=["ineq", "eq", INEQUALITY, EQUALITY], help="constraint mode")

    args = parser.parse_args(argv)
    try:
        if args.config is None and args.preset is None:
            raise ConfigError("provide --config and/or --preset")
        config = parse_config(
            config_path=args.config,
            preset=args.preset,
            overrides={
                "seed": args.seed,
                "iters": args.iters,
                "out": args.out,
                "mode": args.mode,
            },
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
