"""One table of every public name's numeric inputs: what it takes from a caller, and how a bad number fails.

``TABLE`` has one row per name in ``danyra.__all__``; a name without a row, or a row without a name, fails
``test_every_public_name_has_one_row``.  A name that takes no number from a caller has a string row saying why.
Any other row is one ``Call`` per public callable of the name: a valid baseline call, and its numeric parameters
with the checker that reads each.  Every parameter is fed, one at a time and with the others at their baseline,
text (``"1"``), ``True``, ``None``, a ragged list and NaN, plus a fraction where a whole number is wanted: in place
of a number, or of an array's first entry (a ragged array has its last row cut short; a ragged number is
``[1.0, [1.0, 2.0]]``).  Each must raise the call's ``DanyraError`` subclass, with a message that names the
parameter.  For every value but NaN, whose rejection is a finiteness check, the message is also the checker's own:

- ``numbers`` and ``integers`` (``problem._real_array``): ``x must be numbers, got str entries``;
- ``whole`` (``problem._whole_number``): ``k must be a whole number, got '1'``;
- any other rule (``problem._real``): the rule, then ``, got '1'``;
- ``None``: a message of the callable's own.

A message may carry a context prefix ending in ``": "``, such as ``malformed instance document: ``.  A value a
callable accepts by design is exempt, with the reason its docs give, and must then be accepted.
"""

from __future__ import annotations

import copy
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

import danyra
from danyra import (
    BufferSchedule,
    CallableCost,
    ConfigError,
    DanyraError,
    DisturbanceEvent,
    ExperimentPlan,
    HyperParams,
    InvalidInstanceError,
    ProblemInstance,
    SpectralConstants,
    SwarmState,
    Topology,
    TopologyError,
    bounds_report,
    generate_instance,
    init_state,
    instance_from_json,
    instance_to_json,
    metropolis_weights,
    optimality_gap,
    recovery_iteration,
    run_experiment,
    solve_active_set,
    spectral_constants,
)

# each kind of bad value, by the entry it puts in place (bad_input builds the ragged ones)
BAD = {"text": "1", "bool": True, "none": None, "ragged": None, "nan": math.nan, "fraction": 1.5}
ENTRY_TYPE = {"text": "str", "bool": "bool", "none": "NoneType", "ragged": "list", "fraction": "float"}

# the documented reasons for a value a callable accepts
KEPT = "SwarmState.build keeps non-finite iterates, for iterate to report as a DivergenceError"
NON_FINITE = "a non-finite number passes through to a non-finite result, which a run reports as a divergence"
DERIVED = "None derives the constant from the quadratic costs"
TO_THE_END = "None reads to the last row, as in a slice"


@dataclass(frozen=True)
class Number:
    """A numeric parameter: its baseline value, the checker rule its message follows, and its exempt values."""

    valid: object
    rule: str | None
    label: str | None = None  # the name its messages give it, if not the parameter's
    exempt: dict[str, str] = field(default_factory=dict)  # bad kind -> the documented reason it is accepted

    def kinds(self) -> list[str]:
        return [kind for kind in BAD if kind != "fraction" or self.rule in ("whole", "integers")]


def numbers(valid, label=None, **exempt) -> Number:
    return Number(valid, "numbers", label, exempt)


def integers(valid) -> Number:
    return Number(valid, "integers")


def whole(valid, **exempt) -> Number:
    return Number(valid, "whole", None, exempt)


def real(valid, rule, label=None, **exempt) -> Number:
    return Number(valid, rule, label, exempt)


@dataclass(frozen=True)
class Call:
    """A public callable: ``run(**{name: number.valid})`` succeeds, and one bad number raises ``error``."""

    name: str
    run: Callable
    error: type[DanyraError]
    numbers: dict[str, Number]

    def __call__(self, **changes):
        return self.run(**{**{name: number.valid for name, number in self.numbers.items()}, **changes})


INSTANCE = generate_instance(77, 5, 10.0, 2)  # n = 5, p = m = 2
HP = HyperParams(alpha=0.01, beta=0.02, eta=0.1, gamma=0.2, buffer=BufferSchedule.constant(0.1))
STATE = init_state(INSTANCE, HP)
TRACE = run_experiment(ExperimentPlan(instance=INSTANCE, hp=HP, iters=3))
ORACLE = solve_active_set(INSTANCE)
ITERATES = ("x", "x_prime", "y", "lam", "delta")
DOC = json.loads(instance_to_json(INSTANCE))
SIZES, AGENT = ("n", "p", "m"), ("A", "d", "P", "Q")


def from_json(**parts):
    """``instance_from_json`` of the instance's document with some sizes, agent 0's or the graph's numbers replaced."""
    doc = copy.deepcopy(DOC)
    for key, value in parts.items():
        (doc if key in SIZES else doc["agents"][0] if key in AGENT else doc["topology"])[key] = value
    return instance_from_json(json.dumps(doc))


def generic_gradient(gradient):
    return CallableCost(value_fn=lambda x: 0.0, gradient_fn=lambda x: gradient, p=2).gradient(np.zeros(2))


def generic_value(value):
    return CallableCost(value_fn=lambda x: value, gradient_fn=lambda x: 2 * x, p=2).value(np.zeros(2))


STEPS = {"alpha": 0.01, "beta": 0.02, "eta": 0.1, "gamma": 0.2}
CONSTANTS = {"ell": 2.0, "mu": 1.0, "sigma_A_max": 2.0, "sigma_A_min": 1.0, "sigma_L_max": 2.0, "sigma_L_min": 0.5}
LEVELS = "buffer levels must be finite and >= 0"
NO_NUMBERS = "takes no number from a caller"
RECORD = "an output record, filled by the package from its own numbers"
ERROR = "an error type, filled by the package from its own numbers"

TABLE: dict[str, str | tuple[Call, ...]] = {
    # The class cannot be called (it raises InvalidInstanceError naming SwarmState.build), nor can
    # dataclasses.replace; a state from a caller's numbers is made by build or from_dict (SwarmState's docstring).
    "SwarmState": (
        Call(
            "SwarmState.build",
            lambda **kw: SwarmState.build(INSTANCE, **kw),
            InvalidInstanceError,
            {"k": whole(0), **{name: numbers(getattr(STATE, name), nan=KEPT) for name in ITERATES}},
        ),
        Call(
            "SwarmState.from_dict",
            lambda **kw: SwarmState.from_dict({**STATE.to_dict(), **kw}, INSTANCE),
            InvalidInstanceError,
            {"k": whole(0), **{name: numbers(STATE.to_dict()[name]) for name in ITERATES}},
        ),
    ),
    "init_state": f"{NO_NUMBERS}: an instance, a HyperParams and two mode names",
    "iterate": f"{NO_NUMBERS}: a state, an instance and a HyperParams",
    **dict.fromkeys(
        [
            "ConfigError", "DanyraError", "DivergenceError", "InvalidInstanceError", "OracleFailureError",
            "TopologyError",
        ],
        ERROR,
    ),
    "optimality_gap": (
        Call(
            "optimality_gap",
            lambda x: optimality_gap(x, ORACLE),
            InvalidInstanceError,
            {"x": numbers(STATE.x, nan=NON_FINITE)},
        ),
    ),
    "slack_sum": f"{NO_NUMBERS}: an instance and a state",
    "violation_l1": f"{NO_NUMBERS}: an instance and a state",
    "DisturbanceEvent": (
        Call(
            "DisturbanceEvent",
            DisturbanceEvent,
            ConfigError,
            {"at_iteration": whole(1), "additive": numbers([1.0, 2.0], label="disturbance vector")},
        ),
    ),
    "ExperimentPlan": (
        Call(
            "ExperimentPlan",
            lambda **kw: ExperimentPlan(instance=INSTANCE, hp=HP, **kw),
            ConfigError,
            {"iters": whole(3), "record_every": whole(1)},
        ),
    ),
    # an output record of run_experiment; csv_text reads a caller's row bounds
    "Trace": (
        Call(
            "Trace.csv_text",
            TRACE.csv_text,
            InvalidInstanceError,
            {"start": whole(0), "stop": whole(2, none=TO_THE_END)},
        ),
    ),
    "apply_disturbance": f"{NO_NUMBERS}: a state, an instance and a DisturbanceEvent, whose numbers its row checks",
    "run_experiment": f"{NO_NUMBERS}: an ExperimentPlan and an oracle solution",
    "OracleSolution": RECORD,
    "solve_active_set": f"{NO_NUMBERS}: an instance",
    "solve_equality": f"{NO_NUMBERS}: an instance",
    "EQUALITY": "a mode name, not a callable",
    "INEQUALITY": "a mode name, not a callable",
    # value(k) is a step kernel: iterate calls it with a state's own k, unchecked (its docstring)
    "BufferSchedule": (
        Call(
            "BufferSchedule",
            BufferSchedule,
            ConfigError,
            {
                "levels": real((0.1, 0.05), LEVELS),
                "coefficient": real(0.0, "buffer coefficient must be finite and >= 0"),
            },
        ),
        Call(
            "BufferSchedule.constant",
            BufferSchedule.constant,
            ConfigError,
            {"omega": real(0.1, LEVELS, "levels")},  # a constant schedule's one level
        ),
        Call(
            "BufferSchedule.decaying",
            BufferSchedule.decaying,
            ConfigError,
            {"coefficient": real(5.0, "decaying buffer needs a finite positive coefficient")},
        ),
        Call(
            "BufferSchedule.sequence",
            BufferSchedule.sequence,
            ConfigError,
            {"values": real([0.1, 0.05], LEVELS, "levels")},
        ),
    ),
    # the value and gradient functions' results are a caller's numbers too
    "CallableCost": (
        Call(
            "CallableCost",
            lambda p: CallableCost(value_fn=lambda x: 0.0, gradient_fn=lambda x: 2 * x, p=p),
            InvalidInstanceError,
            {"p": whole(2)},
        ),
        Call(
            "CallableCost.gradient",
            generic_gradient,
            InvalidInstanceError,
            {"gradient": numbers([0.0, 0.0], nan=NON_FINITE)},
        ),
        Call(
            "CallableCost.value",
            generic_value,
            InvalidInstanceError,
            {"value": numbers(0.0, nan=NON_FINITE)},
        ),
    ),
    "HyperParams": (
        Call(
            "HyperParams",
            HyperParams,
            ConfigError,
            {name: real(value, f"{name} must be finite and strictly positive") for name, value in STEPS.items()},
        ),
    ),
    "ProblemInstance": (
        Call(
            "ProblemInstance",
            lambda **kw: ProblemInstance(topology=INSTANCE.topology, **kw),
            InvalidInstanceError,
            {name: numbers(getattr(INSTANCE, name)) for name in AGENT},
        ),
        Call(
            "ProblemInstance.gradient",
            INSTANCE.gradient,
            InvalidInstanceError,
            {"x": numbers(STATE.x, nan=NON_FINITE)},
        ),
        Call(
            "ProblemInstance.cost",
            INSTANCE.cost,
            InvalidInstanceError,
            {"x": numbers(STATE.x, nan=NON_FINITE)},
        ),
    ),
    "SpectralConstants": (
        Call(
            "SpectralConstants",
            SpectralConstants,
            InvalidInstanceError,
            {name: real(value, f"{name} must be a finite number") for name, value in CONSTANTS.items()},
        ),
    ),
    # mix(v) is the exchange kernel: iterate calls it on its own arrays, unchecked (its docstring)
    "Topology": (
        Call(
            "Topology",
            Topology,
            TopologyError,
            {"n": whole(3), "edges": integers([[0, 1], [1, 2]]), "weights": numbers([0.3, 0.3])},
        ),
    ),
    "generate_instance": (
        Call(
            "generate_instance",
            generate_instance,
            InvalidInstanceError,
            {
                "seed": whole(77),
                "n": whole(5),
                "r_max": real(10.0, "r_max must be a finite positive number"),
                "extra_edges": whole(2),
            },
        ),
    ),
    "instance_from_json": (
        Call(
            "instance_from_json",
            from_json,
            InvalidInstanceError,
            {**{key: whole(DOC[key]) for key in SIZES}, **{key: numbers(DOC["agents"][0][key]) for key in AGENT}},
        ),
        Call(
            "instance_from_json.topology",
            from_json,
            TopologyError,
            {"edges": integers(DOC["topology"]["edges"]), "weights": numbers(DOC["topology"]["weights"])},
        ),
    ),
    "instance_to_json": f"{NO_NUMBERS}: an instance",
    # its entries are 0/1 or booleans, so its own message; True in the first entry, on the diagonal, is a self-loop
    "metropolis_weights": (
        Call(
            "metropolis_weights",
            metropolis_weights,
            TopologyError,
            {"adjacency": Number([[0, 1, 1], [1, 0, 1], [1, 1, 0]], None)},
        ),
    ),
    "spectral_constants": (
        Call(
            "spectral_constants",
            lambda **kw: spectral_constants(INSTANCE, **kw),
            InvalidInstanceError,
            {
                "ell": real(4.0, "ell must be a finite number", none=DERIVED),
                "mu": real(1.0, "mu must be a finite number", none=DERIVED),
            },
        ),
    ),
    **dict.fromkeys(["BoundsReport", "ConditionCheck", "ConditionReport"], RECORD),
    "bounds_report": (
        Call(
            "bounds_report",
            lambda **kw: bounds_report(SpectralConstants(**CONSTANTS), HP, **kw),
            InvalidInstanceError,
            {"n": whole(5), "C_vio": real(1.0, "C_vio must be a finite number")},
        ),
    ),
    "recovery_iteration": (
        Call(
            "recovery_iteration",
            lambda from_k: recovery_iteration(TRACE, from_k),
            InvalidInstanceError,
            {"from_k": whole(0)},
        ),
    ),
    "validate_hyperparams": f"{NO_NUMBERS}: a HyperParams, a SpectralConstants and a mode name",
}

CALLS = [call for row in TABLE.values() if not isinstance(row, str) for call in row]
CASES = [(call, name, kind) for call in CALLS for name, number in call.numbers.items() for kind in number.kinds()]


def bad_input(valid, kind):
    """``(value, entry)``: ``valid`` with ``kind``'s bad entry in place of the number or of an array's first entry."""
    if np.ndim(valid) == 0:
        entry = [1.0, [1.0, 2.0]] if kind == "ragged" else BAD[kind]
        return entry, entry
    rows = np.array(valid, dtype=object).tolist()
    if kind == "ragged" and np.ndim(valid) == 1:
        rows[0] = entry = [rows[0], rows[0]]
    elif kind == "ragged":
        rows[-1], entry = rows[-1][:-1], None
    else:
        first = rows
        while isinstance(first[0], list):
            first = first[0]
        first[0] = entry = BAD[kind]
    return rows, entry


def expected_message(name: str, number: Number, kind: str, entry) -> str | None:
    """The checker's message for ``entry``, or None where only the parameter's name is checked."""
    label = number.label or name
    if kind == "nan" or number.rule is None:
        return None
    if number.rule in ("numbers", "integers"):
        return f"{label} must be {number.rule}, got {ENTRY_TYPE[kind]} entries"
    if number.rule == "whole":
        return f"{label} must be a whole number, got {entry!r}"
    return f"{number.rule}, got {entry!r}"


def test_every_public_name_has_one_row():
    assert len(set(danyra.__all__)) == len(danyra.__all__)
    assert sorted(TABLE) == sorted(danyra.__all__)
    for name, row in TABLE.items():
        assert row, name
        if not isinstance(row, str):
            assert all(issubclass(call.error, DanyraError) and call.numbers for call in row), name
            assert all(set(number.exempt) <= set(number.kinds()) for call in row for number in call.numbers.values())


@pytest.mark.parametrize("call", CALLS, ids=[call.name for call in CALLS])
def test_baseline_calls_run(call):
    call()


@pytest.mark.parametrize("call, name, kind", CASES, ids=[f"{call.name}-{name}-{kind}" for call, name, kind in CASES])
def test_a_bad_number_raises_a_typed_error_naming_it(call, name, kind):
    number = call.numbers[name]
    value, entry = bad_input(number.valid, kind)
    if kind == "ragged" and np.ndim(number.valid) > 1:
        assert np.array(value, dtype=object).shape != np.shape(number.valid)  # the cut left a ragged nesting
    if kind in number.exempt:
        call(**{name: value})  # accepted, for the reason in the table
        return
    with pytest.raises(call.error) as raised:
        call(**{name: value})
    message = str(raised.value)
    assert re.search(rf"(?<![\w.]){re.escape(number.label or name)}(?!\w)", message), message
    expected = expected_message(name, number, kind, entry)
    if expected is not None:
        assert re.fullmatch(rf"(.*: )?{re.escape(expected)}", message), message
