"""Config schema, cross-field coupling checks, overrides, and resolution."""
from __future__ import annotations

import copy
import json
import math
import random
import sys
from dataclasses import fields

import numpy as np
import pytest

from poromoist.cli import main
from poromoist.config import (CONFIG_SCHEMA, _walk, apply_override, build_setup,
                              load_config, validate_config)
from poromoist.errors import ConfigError, ParseError, ValidationError
from poromoist.model import PowerLawSaturation
from poromoist.stepper import Setup
from tests.conftest import REPO_ROOT


def test_smoke_config_is_valid(smoke_config):
    validate_config(smoke_config)


SHIPPED_CONFIGS = sorted(str(path.relative_to(REPO_ROOT)) for pattern in
                         ("configs/*.json", "perfbench/configs/*.json")
                         for path in REPO_ROOT.glob(pattern))


def test_shipped_configs_found():
    assert len(SHIPPED_CONFIGS) >= 7


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_config_loads(name):
    setup = build_setup(load_config(str(REPO_ROOT / name)))
    assert isinstance(setup, Setup)


@pytest.mark.parametrize("section,key,kept", [("regularization", "s", 1.0),
                                              ("stepping", "s_ramp_steps", 8)])
def test_retired_key_accepts_only_its_one_value(smoke_config, section, key, kept):
    # Older configs set the keys of the retired coupling ramp; the schema
    # still takes them at the one value those configs carry, and
    # build_setup drops them.
    data = copy.deepcopy(smoke_config)
    data[section][key] = kept
    setup, plain = build_setup(data), build_setup(smoke_config)
    assert (setup.reg, setup.step) == (plain.reg, plain.step)
    for value in ({"s": 0.5, "s_ramp_steps": 4}[key], True, "8"):
        data[section][key] = value
        with pytest.raises(ValidationError, match=f"{section}.{key}: expected {kept!r}"):
            validate_config(data)


def test_load_config_round_trip(smoke_config, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(smoke_config))
    assert load_config(str(path)) == smoke_config


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "physical": }\n')
    with pytest.raises(ParseError) as exc:
        load_config(str(path))
    assert exc.value.line == 2


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="top level"):
        load_config(str(path))


def override(config, path, value):
    return apply_override(config, path, value)


def test_unknown_key_rejected(smoke_config):
    bad = copy.deepcopy(smoke_config)
    bad["physical"]["viscosity"] = 1.0
    with pytest.raises(ValidationError, match="physical"):
        validate_config(bad)


def test_missing_section_rejected(smoke_config):
    bad = copy.deepcopy(smoke_config)
    del bad["grid"]
    with pytest.raises(ValidationError, match="grid"):
        validate_config(bad)


def test_schema_violations_all_reported(smoke_config):
    bad = copy.deepcopy(smoke_config)
    bad["physical"]["sigma"] = -1.0
    bad["grid"]["n"] = 2
    with pytest.raises(ValidationError) as exc:
        validate_config(bad)
    message = str(exc.value)
    assert "physical.sigma" in message and "grid.n" in message
    assert message.startswith("2 config violation")


@pytest.mark.parametrize("path,value,where", [
    ("regularization.nu", 0.02, "0 < nu < eps"),
    ("regularization.eps", 0.0, "regularization"),
    ("physical.rho_bar0", 0.005, "regularization.eps"),
    ("stepping.dt", 0.0003, "physical.t_end"),    # not a whole number of steps
    ("output.cadence", 0.00037, "output.cadence"),
    ("saturation.q", 1.5, "saturation.q"),
    ("initial.rho", {"profile": "bump", "base": 0.1, "amplitude": -1.0,
                     "center": 0.5, "width": 0.2}, "initial.rho"),
    ("initial.theta", {"profile": "constant", "value": 0.4}, "initial.theta"),
    ("initial.rho", {"profile": "inline", "values": [1.0, 1.0, 1.0, 1.0]},
     "initial.rho.values"),
    ("physical.t_end", 1e308, "physical.t_end"),  # t_end / dt overflows to inf
    ("physical.t_end", 1e-12, "physical.t_end"),  # rounds to zero steps
    ("output.cadence", 1e-12, "output.cadence"),  # rounds to zero steps
    ("output.cadence", 1e-300, "output.cadence"),
    ("ladder.t_end", 1e308, "ladder.t_end"),      # t_end / dt overflows to inf
    ("ladder.t_end", 0.2505, "ladder.t_end"),
    ("physical.t_end", 1e300, "physical.t_end"),  # too many steps for numpy
    ("ladder.t_end", 1e300, "ladder.t_end"),
    ("ladder.rungs", 1, "ladder.rungs"),          # no difference to compare
    ("ladder.rungs", 2, "ladder.rungs"),          # one difference, no trend
    ("saturation", {"kind": "exponential", "a": 1.0, "b": 1.0, "eta": 1.0},
     "saturation.eta"),                           # needs eta < 1
    ("saturation", {"kind": "exponential", "a": 1.0, "b": 1.0},
     "saturation.eta"),                           # the default eta = 1
    ("initial.rho", {"profile": "bump", "base": 1e308, "amplitude": 1e308,
                     "center": 0.5, "width": 0.2}, "initial.rho"),  # overflows to inf
    ("initial.theta_floor", 0.0, "initial.theta_floor"),
])
def test_single_violations(smoke_config, path, value, where):
    if path.startswith("ladder."):   # the smoke config has no ladder section
        smoke_config = {**smoke_config, "ladder": {"t_end": 0.25, "rungs": 4}}
    bad = override(smoke_config, path, value)
    with pytest.raises(ValidationError, match=where.replace(".", r"\.")):
        validate_config(bad)


def test_empty_sweep_axes_rejected(smoke_config):
    bad = {**smoke_config, "sweep": {"axes": {}}}
    with pytest.raises(ValidationError) as exc:
        validate_config(bad)
    assert exc.value.violations == [("sweep.axes", "needs at least 1 key(s)")]


def test_profile_oneof_mentions_location(smoke_config):
    bad = override(smoke_config, "initial.rho", {"profile": "bump"})
    with pytest.raises(ValidationError, match="initial.rho"):
        validate_config(bad)


def test_apply_override_copies(smoke_config):
    out = apply_override(smoke_config, "grid.n", 64)
    assert out["grid"]["n"] == 64
    assert smoke_config["grid"]["n"] == 100
    with pytest.raises(ConfigError, match="unknown override path"):
        apply_override(smoke_config, "grid.m", 64)
    with pytest.raises(ConfigError, match="unknown override path"):
        apply_override(smoke_config, "grid.n.deeper", 64)
    with pytest.raises(ConfigError, match="unknown override path"):
        apply_override(smoke_config, "physical.nope.x", 1)


def test_build_setup_resolves_objects(smoke_config):
    setup = build_setup(smoke_config)
    assert setup.params.lam == smoke_config["physical"]["lambda"]
    assert isinstance(setup.model, PowerLawSaturation)
    assert setup.grid.n == 100
    assert setup.step.advection == "upwind"
    assert setup.reg.eps == 0.01
    assert setup.initial.rho.shape == (100,)
    assert setup.initial.t == 0.0


def test_build_setup_default_cadence(smoke_config, tmp_path):
    # The cadence is no part of the problem: build_setup needs no output
    # section, and without one the run command snapshots t = 0 and t_end.
    data = copy.deepcopy(smoke_config)
    del data["output"]
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.02
    setup = build_setup(data)
    assert [f.name for f in fields(setup)] == [
        "params", "model", "reg", "step", "grid", "initial", "forcing"]
    assert setup.forcing is None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "snapshots.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 16
    assert [float(row.split(",")[0]) for row in rows[::16]] == pytest.approx([0.0, 0.02])


def test_profiles_evaluate_as_documented(smoke_config):
    grid_n = 4
    data = override(smoke_config, "grid.n", grid_n)
    data = override(data, "stepping.dt", 0.25)
    data = override(data, "output.cadence", 0.25)
    x = (np.arange(grid_n) + 0.5) / grid_n

    data = override(data, "initial.rho", {
        "profile": "bump", "base": 1.0, "amplitude": 2.0,
        "center": 0.5, "width": 0.3})
    expected = 1.0 + 2.0 * np.exp(-((x - 0.5) / 0.3) ** 2)
    np.testing.assert_allclose(build_setup(data).initial.rho, expected)

    data = override(data, "initial.rho", {
        "profile": "step", "left": 0.5, "right": 2.0, "at": 0.5})
    np.testing.assert_allclose(build_setup(data).initial.rho,
                               [0.5, 0.5, 2.0, 2.0])

    data = override(data, "initial.rho", {
        "profile": "inline", "values": [1.0, 2.0, 3.0, 4.0]})
    np.testing.assert_allclose(build_setup(data).initial.rho,
                               [1.0, 2.0, 3.0, 4.0])

    data = override(data, "initial.rho", {"profile": "constant", "value": 2.5})
    np.testing.assert_allclose(build_setup(data).initial.rho, 2.5)


def violations(data) -> list:
    try:
        validate_config(data)
    except ValidationError as exc:
        return exc.violations
    return []


@pytest.mark.parametrize("path,value", [
    ("physical.sigma", True),          # a boolean is not a number
    ("grid.n", True),
    ("physical.sigma", math.nan),      # a number must be finite
    ("physical.sigma", math.inf),
    ("regularization.eps", -math.inf),
    ("physical.sigma", 10**400),       # an int beyond the float range
    ("grid.n", 8.0),                   # an integer is a Python int
    ("stepping.max_picard", 50.0),
])
def test_walker_rules(smoke_config, path, value):
    assert [where for where, _ in violations(override(smoke_config, path, value))] == [path]


@pytest.mark.parametrize("spec,where", [
    ({"profile": "bump", "base": 1.0, "amplitude": 1.0, "center": 2.0,
      "width": -1.0}, "initial.rho.center"),
    ({"profile": "step", "left": 1.0, "right": 2.0}, "initial.rho"),
    ({"profile": "spline", "value": 1.0}, "initial.rho"),
    ({"value": 1.0}, "initial.rho"),
    (1.0, "initial.rho"),
])
def test_oneof_reports_one_violation_of_the_tagged_branch(smoke_config, spec, where):
    assert [path for path, _ in violations(override(smoke_config, "initial.rho", spec))] \
        == [where]


def test_overlong_integer_literal_is_a_config_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"grid": {"n": ' + "9" * 5000 + "}}")
    with pytest.raises(ConfigError):
        load_config(str(path))


# Every keyword the walker in poromoist.config implements.  A schema edit
# that brings in another keyword must teach the walker first.
WALKER_KEYWORDS = {
    "type", "properties", "required", "additionalProperties", "oneOf", "const",
    "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "items", "minItems", "minProperties"}


def schema_keywords(schema: dict):
    for key, sub in schema.items():
        yield key
        if key == "properties":
            for child in sub.values():
                yield from schema_keywords(child)
        elif key == "oneOf":
            for child in sub:
                yield from schema_keywords(child)
        elif isinstance(sub, dict):
            yield from schema_keywords(sub)


def test_schema_uses_only_walker_keywords():
    used = set(schema_keywords(CONFIG_SCHEMA))
    assert used <= WALKER_KEYWORDS, used - WALKER_KEYWORDS
    assert {"oneOf", "items", "minProperties"} <= used


SHIPPED = ("smoke", "mms", "ladder", "sweep")
ODD_VALUES = (0, -1, 1, 3, 4, 8, 0.5, 8.0, 4.0, 1.5, -0.0, 1e-300, 1e308, 10**400,
              math.nan, math.inf, -math.inf, True, False, None, "upwind", "bump",
              "", [], [1.0], [16, 32], {},
              {"profile": "constant", "value": 1.0},
              {"profile": "step", "left": 1.0, "right": 2.0, "at": 0.5},
              {"profile": "inline", "values": [1.0, 1.0, 1.0, 1.0]},
              {"kind": "exponential", "a": 1.0, "b": 1.0})
SCALES = (-1.0, 0.0, 0.5, 2.0, 10.0, 1e300, 1e-300)


def slots(node):
    """Yield (container, key) for every value nested in node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in list(items):
        yield node, key
        yield from slots(value)


def mutate(doc, rng: random.Random) -> None:
    container, key = rng.choice(list(slots(doc)))
    value = container[key]
    roll = rng.random()
    if roll < 0.1 and isinstance(container, dict):
        del container[key]
    elif roll < 0.2 and isinstance(value, dict):
        value["unknown"] = 1.0
    elif (roll < 0.5 and isinstance(value, (int, float)) and not isinstance(value, bool)
          and abs(value) <= 1e308):
        container[key] = value * rng.choice(SCALES)
    else:
        container[key] = copy.deepcopy(rng.choice(ODD_VALUES))


@pytest.fixture(scope="module")
def config_corpus() -> list:
    """Shipped configs and 2500 seeded copies with one to three mutations."""
    shipped = []
    for name in SHIPPED:
        with open(REPO_ROOT / "configs" / f"{name}.json") as fh:
            shipped.append(json.load(fh))
    rng = random.Random(2009)
    corpus = copy.deepcopy(shipped)
    for _ in range(2500):
        doc = copy.deepcopy(rng.choice(shipped))
        for _ in range(rng.choice((1, 1, 2, 3))):
            mutate(doc, rng)
        corpus.append(doc)
    return corpus


def test_corpus_builds_a_setup_or_raises_config_error(config_corpus):
    built = 0
    # Extreme profile parameters overflow to inf, which the cross-field checks reject.
    with np.errstate(all="ignore"):
        for doc in config_corpus:
            try:
                setup = build_setup(doc)
            except ConfigError:
                continue
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} for {doc}")
            assert isinstance(setup, Setup)
            built += 1
    assert 4 <= built < len(config_corpus)


def oneof_locations(schema: dict, path: tuple = ()):
    if "oneOf" in schema:
        yield path
    for key, child in schema.get("properties", {}).items():
        yield from oneof_locations(child, path + (key,))


def test_walker_matches_jsonschema_on_corpus(config_corpus):
    """The walker is draft 2020-12 with finite numbers and int-only integers.

    The oracle is jsonschema's Draft202012Validator with exactly those two
    type rules changed.  Both must report violations at the same places, a
    oneOf counted once at its location; the walker names a place inside
    the tagged branch, which is cut back to that location here.
    """
    jsonschema = pytest.importorskip("jsonschema")
    draft = jsonschema.Draft202012Validator

    def finite_number(checker, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if isinstance(value, float):
            return math.isfinite(value)
        return abs(value) <= sys.float_info.max

    def python_int(checker, value):
        return isinstance(value, int) and finite_number(checker, value)

    checker = draft.TYPE_CHECKER.redefine_many(
        {"number": finite_number, "integer": python_int})
    strict = jsonschema.validators.extend(draft, type_checker=checker)(CONFIG_SCHEMA)
    plain = draft(CONFIG_SCHEMA)
    oneofs = set(oneof_locations(CONFIG_SCHEMA))

    def at_oneof(path: tuple) -> tuple:
        return next((path[:k] for k in range(len(path)) if path[:k] in oneofs), path)

    accepted = excepted = 0
    for doc in config_corpus:
        expected = sorted(".".join(map(str, err.absolute_path))
                          for err in strict.iter_errors(doc))
        found = sorted(".".join(map(str, at_oneof(path)))
                       for path, _ in _walk(doc, CONFIG_SCHEMA, ()))
        assert found == expected, doc
        accepted += not found
        excepted += bool(found) and plain.is_valid(doc)
    # the corpus holds documents of each kind
    assert accepted > 4 and excepted > 0 and accepted + excepted < len(config_corpus)
