"""Strict JSON configuration loading.

A run is described by one JSON document with sections for the physics,
the saturation model, the regularization, the stepping, the grid, the
initial profiles, and the output cadence, plus optional study sections
(mms, ladder, sweep).  Validation is two-stage: a JSON schema rejects
unknown keys and out-of-range scalars, then cross-field checks catch the
couplings a schema cannot express (nu against eps, the saturation
family's admissibility condition, step counts dividing the horizon and
small enough for numpy to hold the run's (steps+1, 2n) trajectory, profiles
that overflow or dip below their floors).  All violations are collected
into a single ValidationError instead of stopping at the first.

The schema is the ``CONFIG_SCHEMA`` dict below, walked by this module
itself.  It uses the JSON Schema keywords type, properties, required,
additionalProperties, oneOf, const, enum, minimum, maximum,
exclusiveMinimum, exclusiveMaximum, items, minItems and minProperties.
Numbers must be finite (Python's ``json`` accepts ``NaN`` and
``Infinity``), a boolean is not a number, and an integer is written
without a decimal point: ``8.0`` is not a cell count.  A ``oneOf`` is
decided by the ``const`` tag its branches carry (``profile`` or
``kind``), and reports the first violation of the tagged branch.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys

import numpy as np

from .discretization import Grid
from .errors import ConfigError, ParseError, ValidationError
from .model import SATURATION_FAMILIES, PhysicalParams
from .stepper import RegularizationParams, Setup, State, StepConfig, step_count

__all__ = [
    "CONFIG_SCHEMA",
    "load_config",
    "validate_config",
    "apply_override",
    "build_setup",
]

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
# Keys of the retired coupling ramp, which older configs set: the schema
# takes each at the one value those configs carry, and build_setup drops them.
_RETIRED_KEYS = ("s", "s_ramp_steps")
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}

_PROFILE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"profile": {"const": "constant"}, "value": {"type": "number"}},
            "required": ["profile", "value"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "profile": {"const": "bump"},
                "base": {"type": "number"},
                "amplitude": {"type": "number"},
                "center": _UNIT,
                "width": _POSITIVE,
            },
            "required": ["profile", "base", "amplitude", "center", "width"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "profile": {"const": "step"},
                "left": {"type": "number"},
                "right": {"type": "number"},
                "at": _UNIT,
            },
            "required": ["profile", "left", "right", "at"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "profile": {"const": "inline"},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 4},
            },
            "required": ["profile", "values"],
            "additionalProperties": False,
        },
    ]
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "physical": {
            "type": "object",
            "properties": {
                "sigma": _POSITIVE, "lambda": _POSITIVE,
                "kappa1": _POSITIVE, "kappa2": _POSITIVE,
                "alpha0": _POSITIVE, "alpha1": _POSITIVE,
                "beta0": _POSITIVE, "beta1": _POSITIVE,
                "rho_bar0": _POSITIVE, "rho_bar1": _POSITIVE,
                "theta_bar0": _POSITIVE, "theta_bar1": _POSITIVE,
                "t_end": _POSITIVE,
            },
            "required": ["sigma", "lambda", "kappa1", "kappa2", "alpha0", "alpha1",
                         "beta0", "beta1", "rho_bar0", "rho_bar1", "theta_bar0",
                         "theta_bar1", "t_end"],
            "additionalProperties": False,
        },
        "saturation": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "power_law"},
                        "c": _POSITIVE, "q": _POSITIVE, "eta": _POSITIVE,
                    },
                    "required": ["kind", "c", "q"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "exponential"},
                        "a": _POSITIVE, "b": _POSITIVE, "eta": _POSITIVE,
                    },
                    "required": ["kind", "a", "b"],
                    "additionalProperties": False,
                },
            ]
        },
        "regularization": {
            "type": "object",
            "properties": {"eps": _POSITIVE, "nu": _POSITIVE, "s": {"const": 1.0}},
            "required": ["eps", "nu"],
            "additionalProperties": False,
        },
        "stepping": {
            "type": "object",
            "properties": {
                "dt": _POSITIVE,
                "picard_tol": _POSITIVE,
                "max_picard": {"type": "integer", "minimum": 1},
                "s_ramp_steps": {"const": 8},
                "advection": {"enum": ["upwind", "central"]},
            },
            "required": ["dt"],
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {"n": {"type": "integer", "minimum": 4}},
            "required": ["n"],
            "additionalProperties": False,
        },
        "initial": {
            "type": "object",
            "properties": {
                "rho": _PROFILE_SCHEMA,
                "theta": _PROFILE_SCHEMA,
                "theta_floor": _POSITIVE,
            },
            "required": ["rho", "theta", "theta_floor"],
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {"cadence": _POSITIVE},
            "required": ["cadence"],
            "additionalProperties": False,
        },
        "mms": {
            "type": "object",
            "properties": {
                "grid_sizes": {"type": "array", "items": {"type": "integer", "minimum": 4},
                               "minItems": 2},
                "t_end": _POSITIVE,
                "steps_coarse": {"type": "integer", "minimum": 1},
                "advection": {"enum": ["upwind", "central"]},
                "eps": _POSITIVE,
                "nu": _POSITIVE,
            },
            "additionalProperties": False,
        },
        "ladder": {
            "type": "object",
            "properties": {
                "eps0": _POSITIVE,
                "rungs": {"type": "integer", "minimum": 3},
                "factor": {"type": "number", "exclusiveMinimum": 1},
                "nu_ratio": {"type": "number", "exclusiveMinimum": 0,
                             "exclusiveMaximum": 1},
                "t_end": _POSITIVE,
            },
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "properties": {
                "axes": {
                    "type": "object",
                    "minProperties": 1,
                    "additionalProperties": {"type": "array", "minItems": 1},
                },
            },
            "required": ["axes"],
            "additionalProperties": False,
        },
    },
    "required": ["physical", "saturation", "regularization", "stepping", "grid",
                 "initial"],
    "additionalProperties": False,
}


def _is_number(value) -> bool:
    """A finite int or float: NaN fails the comparison, a bool the type test."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "number": (_is_number, "a finite number"),
    "integer": (lambda v: isinstance(v, int) and _is_number(v),
                "an integer without a decimal point"),
}

_BOUNDS = (("minimum", operator.ge, ">="), ("maximum", operator.le, "<="),
           ("exclusiveMinimum", operator.gt, ">"), ("exclusiveMaximum", operator.lt, "<"))


def _walk(value, schema: dict, path: tuple):
    """Yield a (path, message) pair for each violation of schema by value."""
    if "oneOf" in schema:
        tags = [{key: sub["const"] for key, sub in branch["properties"].items()
                 if "const" in sub} for branch in schema["oneOf"]]
        hits = [branch for branch, tag in zip(schema["oneOf"], tags)
                if isinstance(value, dict) and tag.items() <= value.items()]
        if hits:
            yield from itertools.islice(_walk(value, hits[0], path), 1)
        else:
            yield path, f"expected an object tagged as one of {tags}"
    if "type" in schema:
        check, noun = _TYPES[schema["type"]]
        if not check(value):
            yield path, f"expected {noun}, got {value!r}"
    if "const" in schema and (value != schema["const"]
                              or isinstance(value, bool) != isinstance(schema["const"], bool)):
        yield path, f"expected {schema['const']!r}, got {value!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"expected one of {schema['enum']}, got {value!r}"
    for key, holds, op in _BOUNDS:
        if key in schema and _is_number(value) and not holds(value, schema[key]):
            yield path, f"must be {op} {schema[key]}, got {value!r}"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"missing required key {key!r}"
        unknown = sorted(key for key in value if key not in props)
        if extra is False and unknown:
            yield path, f"unknown key(s) {', '.join(map(repr, unknown))}"
        if len(value) < schema.get("minProperties", 0):
            yield path, f"needs at least {schema['minProperties']} key(s)"
        for key, item in value.items():
            sub = props.get(key, extra)
            if isinstance(sub, dict):
                yield from _walk(item, sub, path + (key,))
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"needs at least {schema['minItems']} item(s), got {len(value)}"
        for index, item in enumerate(value if "items" in schema else ()):
            yield from _walk(item, schema["items"], path + (index,))


def _profile_values(spec: dict, grid: Grid) -> np.ndarray:
    x = grid.centers
    kind = spec["profile"]
    if kind == "constant":
        return np.full(grid.n, float(spec["value"]))
    if kind == "bump":
        return spec["base"] + spec["amplitude"] * np.exp(
            -((x - spec["center"]) / spec["width"])**2)
    if kind == "step":
        return np.where(x < spec["at"], float(spec["left"]), float(spec["right"]))
    if kind == "inline":
        return np.asarray(spec["values"], dtype=float)
    raise ConfigError(f"unknown profile kind {kind!r}")


def _saturation_family(sat: dict) -> tuple[type, dict]:
    """The class of the configured curve and its constructor arguments."""
    return SATURATION_FAMILIES[sat["kind"]], {k: v for k, v in sat.items() if k != "kind"}


def _cross_field(data: dict) -> list[tuple[str, str]]:
    bad: list[tuple[str, str]] = []
    phys = data["physical"]
    reg = data["regularization"]
    stepping = data["stepping"]

    eps, nu = reg["eps"], reg["nu"]
    if not (0 < nu < eps <= 1):
        bad.append(("regularization.nu",
                    f"requires 0 < nu < eps <= 1, got nu={nu}, eps={eps}"))
    ambient_min = min(phys["rho_bar0"], phys["rho_bar1"],
                      phys["theta_bar0"], phys["theta_bar1"])
    if eps > min(ambient_min, 1.0):
        bad.append(("regularization.eps",
                    f"eps={eps} exceeds min(ambient values, 1) = {min(ambient_min, 1.0)}"))

    family, params = _saturation_family(data["saturation"])
    bad.extend((f"saturation.{key}", message)
               for key, message in family.admissibility(**params).violations())

    dt = stepping["dt"]
    if not step_count(phys["t_end"], dt):
        bad.append(("physical.t_end",
                    f"t_end={phys['t_end']} is not a positive integer number of steps of dt={dt}"))
    if "output" in data and not step_count(data["output"]["cadence"], dt):
        bad.append(("output.cadence",
                    f"cadence={data['output']['cadence']} is not a positive multiple of dt={dt}"))
    ladder_t_end = data.get("ladder", {}).get("t_end")
    if ladder_t_end is not None and not step_count(ladder_t_end, dt):
        bad.append(("ladder.t_end",
                    f"t_end={ladder_t_end} is not a positive integer number of steps of dt={dt}"))

    n = data["grid"]["n"]
    # numpy cannot create an array whose byte count overflows np.intp
    max_bytes = np.iinfo(np.intp).max
    for where, t_end in (("physical.t_end", phys["t_end"]), ("ladder.t_end", ladder_t_end)):
        steps = step_count(t_end, dt) if t_end is not None else 0
        if (steps + 1) * 2 * n * np.dtype(float).itemsize > max_bytes:
            bad.append((where, f"t_end={t_end} takes {steps:.3e} steps of dt={dt}, too many "
                               f"for numpy to hold as the run's (steps+1, 2n={2 * n}) float "
                               f"trajectory array"))
    init = data["initial"]
    for name in ("rho", "theta"):
        spec = init[name]
        if spec["profile"] == "inline" and len(spec["values"]) != n:
            bad.append((f"initial.{name}.values",
                        f"expected {n} samples, got {len(spec['values'])}"))
    if not bad:
        grid = Grid(n)
        floor = init["theta_floor"]
        for name, least, below in (("rho", 0.0, "< 0"),
                                   ("theta", floor, f"below theta_floor={floor}")):
            with np.errstate(over="ignore"):  # reported as a violation here
                values = _profile_values(init[name], grid)
            if not np.isfinite(values).all():
                bad.append((f"initial.{name}", "profile overflows to a nonfinite value"))
            elif np.any(values < least):
                bad.append((f"initial.{name}",
                            f"profile dips to {float(np.min(values)):.6g} {below}"))
    return bad


def validate_config(data: dict) -> None:
    """Raise ValidationError listing every schema and cross-field violation."""
    violations = sorted(((".".join(map(str, path)) or "<root>", message)
                         for path, message in _walk(data, CONFIG_SCHEMA, ())),
                        key=lambda violation: violation[0])
    if not violations:
        violations.extend(_cross_field(data))
    if violations:
        raise ValidationError(violations)


def load_config(path: str) -> dict:
    """Read, parse, and validate one JSON config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested too deeply to parse") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    validate_config(data)
    return data


def apply_override(data: dict, path: str, value) -> dict:
    """Return a deep copy of data with one dotted path replaced."""
    out = json.loads(json.dumps(data))
    node = out
    parts = path.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown override path {path!r}")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"unknown override path {path!r}")
    node[parts[-1]] = value
    return out


def build_setup(data: dict) -> Setup:
    """Resolve a validated config dict into its problem (the output cadence stays in data)."""
    validate_config(data)
    phys = data["physical"]
    kwargs = {k: float(v) for k, v in phys.items() if k != "lambda"}
    params = PhysicalParams(lam=float(phys["lambda"]), **kwargs)
    family, sat_params = _saturation_family(data["saturation"])
    model = family(**sat_params)
    reg = RegularizationParams(**{k: float(v) for k, v in data["regularization"].items()
                                  if k not in _RETIRED_KEYS})
    stepping = {k: v for k, v in data["stepping"].items() if k not in _RETIRED_KEYS}
    step = StepConfig(**{**stepping, "dt": float(stepping["dt"])})
    grid = Grid(data["grid"]["n"])
    init = data["initial"]
    initial = State(_profile_values(init["rho"], grid),
                    _profile_values(init["theta"], grid), 0.0)
    return Setup(params, model, reg, step, grid, initial)
