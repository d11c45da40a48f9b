"""Command-line interface: outputs, exit codes, determinism, flags."""
from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import poromoist
from poromoist import harness, stepper
from poromoist.cli import _fmt, main
from poromoist.config import build_setup
from poromoist.diagnostics import CertificationReport, certify_run


@pytest.fixture()
def small_config(smoke_config, tmp_path):
    """Smoke problem shrunk to n=32, T=0.05 so CLI tests stay quick."""
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 32
    data["physical"]["t_end"] = 0.05
    data["output"]["cadence"] = 0.025
    path = tmp_path / "small.json"
    path.write_text(json.dumps(data))
    return path, data


def child_env() -> dict:
    """Environment whose PYTHONPATH puts this checkout's package first."""
    src = Path(poromoist.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_run_writes_outputs(small_config, tmp_path, capsys):
    path, _ = small_config
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert "certification: PASS" in capsys.readouterr().out

    series = (out / "series.csv").read_text().splitlines()
    assert series[0].startswith("t,total_mass,")
    assert len(series) == 52          # header plus one row per state

    snapshots = (out / "snapshots.csv").read_text().splitlines()
    assert snapshots[0] == "t,x,rho,theta,u"
    assert len(snapshots) == 1 + 3 * 32   # t = 0, 0.025, 0.05

    report = json.loads((out / "report.json").read_text())
    assert report["certification"]["passed"] is True
    assert set(report["certification"]) == {f.name for f in fields(CertificationReport)}
    assert report["steps"] == 50
    assert report["advection"] == "upwind"


def test_run_is_byte_deterministic(small_config, tmp_path):
    path, _ = small_config
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out", str(out1), "--quiet"]) == 0
    assert main(["run", str(path), "--out", str(out2), "--quiet"]) == 0
    for name in ("series.csv", "snapshots.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fmt_writes_numpy_floats_like_python_floats():
    assert [_fmt(v) for v in (np.float64(0.1), 0.1, np.float32(0.5), 3)] == \
        ["0.1", "0.1", "0.5", "3"]


def test_run_flags_override_config(small_config, tmp_path):
    path, _ = small_config
    out = tmp_path / "flagged"
    assert main(["run", str(path), "--out", str(out), "--quiet",
                 "--cadence", "0.05", "--advection", "central"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["advection"] == "central"
    snapshots = (out / "snapshots.csv").read_text().splitlines()
    assert len(snapshots) == 1 + 2 * 32   # t = 0 and t = 0.05 only


def test_missing_config_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.json"), "--quiet"]) == 2


def test_broken_json_is_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["run", str(path), "--quiet"]) == 2


def test_invalid_config_is_usage_error(smoke_config, tmp_path):
    data = copy.deepcopy(smoke_config)
    data["regularization"]["nu"] = 0.5
    path = write_config(tmp_path, data)
    assert main(["run", str(path), "--quiet"]) == 2


@pytest.mark.parametrize("where,value", [
    ("output.cadence", math.inf),
    ("stepping.dt", math.nan),
    ("physical.t_end", math.inf),
    ("physical.kappa1", math.inf),
    ("stepping.picard_tol", math.inf),
    ("grid.n", 8.0),
    # 1e303 whole steps: numpy rejects their (steps+1, 2n) array without allocating
    ("physical.t_end", 1e300),
])
def test_nonfinite_or_fractional_value_is_usage_error(smoke_config, tmp_path, capsys,
                                                      where, value):
    section, key = where.split(".")
    data = copy.deepcopy(smoke_config)
    data[section][key] = value
    path = write_config(tmp_path, data)   # json writes NaN and Infinity literals
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{where}:" in err


@pytest.mark.parametrize("command,where", [("run", "physical.t_end"),
                                           ("ladder", "ladder.t_end")])
def test_trajectory_too_big_for_numpy_is_usage_error(smoke_config, tmp_path, capsys,
                                                     command, where):
    # 2^57 + 2^56 steps of n=4: a (steps+1, n) float array fits numpy's byte
    # count, the run's (steps+1, 2n) trajectory does not
    horizon = float(2**57 + 2**56)
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 4
    data["initial"]["rho"] = {"profile": "constant", "value": 1.0}
    data["stepping"]["dt"] = 1.0
    data["physical"]["t_end"] = data["output"]["cadence"] = (
        horizon if command == "run" else 1.0)
    if command == "ladder":
        data["ladder"] = {"t_end": horizon, "rungs": 4}
    path = write_config(tmp_path, data)
    assert main([command, str(path), "--quiet", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{where}:" in err and "2n=8" in err


def temperature_step_config(smoke_config, right):
    """n=16 and ten steps of dt=0.05 from a temperature step 0.6 | right."""
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.5
    data["stepping"]["dt"] = 0.05
    data["output"]["cadence"] = 0.5
    data["initial"]["rho"] = {"profile": "constant", "value": 1.0}
    data["initial"]["theta"] = {"profile": "step", "left": 0.6,
                                "right": right, "at": 0.5}
    return data


def test_solver_breakdown_exits_one(smoke_config, tmp_path, capsys):
    # The drift of a 0.6 | 50 step outweighs the vapor rows' diagonal even
    # at dt/64, the deepest substep.
    path = write_config(tmp_path, temperature_step_config(smoke_config, 50.0))
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "vapor system row 6 not strictly diagonally dominant" in err
    # by now the step has been retaken down to dt/64, so no advice to reduce dt
    assert "reduce dt" not in err


def test_lost_dominance_is_rescued_by_substeps(smoke_config, tmp_path, capsys):
    # A 0.6 | 1.4 step loses dominance at dt = 0.05 and keeps it in substeps.
    path = write_config(tmp_path, temperature_step_config(smoke_config, 1.4))
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["steps"] == 10 and report["certification"]["passed"] is True


def test_state_leaving_the_cone_is_certified_not_rejected(small_config, tmp_path,
                                                         monkeypatch, capsys):
    """A march whose vapor solves turn one cell negative ends in exit 1 with outputs."""
    path, data = small_config
    real_solve = stepper.solve_thomas
    calls = []

    def one_negative_vapor_cell(system):
        # each sweep solves the vapor system first, then the heat system
        calls.append(None)
        out = real_solve(system)
        if len(calls) % 2:
            out[system.n // 2] = -1e-6
        return out

    monkeypatch.setattr(stepper, "solve_thomas", one_negative_vapor_cell)
    setup = build_setup(data)
    result = stepper.run(setup, stepper.mollified_initial_data(setup))
    assert len(result.t) == 51
    assert result.series["min_rho"][-1] == -1e-6 and result.series["min_theta"].min() > 0
    cert = certify_run(result)
    assert "negative vapor density -1.000e-06" in cert.failures

    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "  - negative vapor density -1.000e-06" in capsys.readouterr().out.splitlines()
    report = json.loads((out / "report.json").read_text())
    assert report["certification"]["passed"] is False
    assert len((out / "series.csv").read_text().splitlines()) == 52


EXTREME_KEYS = tuple(
    [("physical", key) for key in ("sigma", "lambda", "kappa1", "kappa2", "alpha0",
                                   "alpha1", "beta0", "beta1", "rho_bar0", "rho_bar1",
                                   "theta_bar0", "theta_bar1", "t_end")]
    + [("saturation", key) for key in ("c", "q", "eta")]
    + [("regularization", key) for key in ("eps", "nu")])


# Overflow and underflow warnings are expected on the way to exit 1.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [1e300, 1e-300])
@pytest.mark.parametrize("section,key", EXTREME_KEYS)
def test_extreme_constant_ends_in_an_exit_code(smoke_config, tmp_path, section, key,
                                               value):
    """A finite but extreme constant ends in exit 0, 1 or 2, never a traceback."""
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.01      # 10 steps of dt = 0.001
    data["output"]["cadence"] = 0.01
    data[section][key] = value
    path = write_config(tmp_path, data)
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) in (0, 1, 2)


# Overflow and underflow warnings are expected on the way to exit 1.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key,code", [("beta0", 0), ("beta1", 0), ("alpha0", 1),
                                      ("alpha1", 1)])
def test_huge_wall_exchange_is_no_pivot_failure(smoke_config, tmp_path, capsys, key, code):
    """A wall row of 1e300 does not make the interior pivots count as zero.

    The beta rows certify; the alpha rows fail on their own dominance,
    where 1/dt is lost below one ulp of the wall terms.
    """
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.01
    data["output"]["cadence"] = 0.01
    data["physical"][key] = 1e300
    path = write_config(tmp_path, data)
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "pivot" not in err
    if code:
        assert "not strictly diagonally dominant (margin 0.000e+00)" in err


def test_bad_flag_value_raises_system_exit(small_config):
    path, _ = small_config
    with pytest.raises(SystemExit):
        main(["run", str(path), "--advection", "sideways"])


def test_mms_passes_with_central(smoke_config, tmp_path):
    data = copy.deepcopy(smoke_config)
    data["mms"] = {"grid_sizes": [16, 32, 64], "t_end": 0.1,
                   "advection": "central"}
    path = write_config(tmp_path, data)
    out = tmp_path / "mms"
    assert main(["mms", str(path), "--out", str(out), "--quiet"]) == 0
    rows = (out / "mms.csv").read_text().splitlines()
    assert len(rows) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["rho_orders"][-1] > 1.9


def test_mms_flags_too_coarse_upwind_ladder(smoke_config, tmp_path):
    # first-order floor is just missed on a deliberately short ladder
    data = copy.deepcopy(smoke_config)
    data["mms"] = {"grid_sizes": [16, 32, 64], "t_end": 0.1,
                   "steps_coarse": 20}
    path = write_config(tmp_path, data)
    out = tmp_path / "mms"
    assert main(["mms", str(path), "--out", str(out), "--quiet",
                 "--advection", "upwind"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["theta_orders"][-1] < 0.9


def test_mms_grid_sizes_must_double(smoke_config, tmp_path, capsys):
    # base-2 logs of a 4x refinement's error ratios would read as order 4
    data = copy.deepcopy(smoke_config)
    data["mms"] = {"grid_sizes": [16, 64], "t_end": 0.1, "advection": "central"}
    path = write_config(tmp_path, data)
    out = tmp_path / "mms"
    assert main(["mms", str(path), "--out", str(out), "--quiet"]) == 2
    assert "grid_sizes" in capsys.readouterr().err
    assert not out.exists()


def test_ladder_command(smoke_config, tmp_path):
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 32
    data["physical"]["t_end"] = 0.05
    data["output"]["cadence"] = 0.05
    data["ladder"] = {"rungs": 3}
    path = write_config(tmp_path, data)
    out = tmp_path / "ladder"
    assert main(["ladder", str(path), "--out", str(out), "--quiet"]) == 0
    rows = (out / "ladder.csv").read_text().splitlines()
    assert len(rows) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["monotone"] is True
    assert report["passed"] is True


def test_ladder_horizon_overflow_is_usage_error(smoke_config, tmp_path, capsys):
    data = copy.deepcopy(smoke_config)
    data["ladder"] = {"t_end": 1e308}
    path = write_config(tmp_path, data)
    assert main(["ladder", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "ladder.t_end:" in err


def test_ladder_command_fails_when_not_monotone(small_config, tmp_path,
                                                monkeypatch):
    # Growing distances stand in for the rungs' computed ones.
    path, data = small_config
    data["ladder"] = {"rungs": 3}
    path = write_config(tmp_path, data)
    distances = iter((1.0, 2.0))
    monkeypatch.setattr(harness, "_trajectory_difference", lambda a, b: next(distances))
    out = tmp_path / "ladder"
    assert main(["ladder", str(path), "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["differences"] == [1.0, 2.0]
    assert report["monotone"] is False
    assert all(v <= 0.10 for v in report["monitor_variation"].values())
    assert report["passed"] is False
    assert len((out / "ladder.csv").read_text().splitlines()) == 4


def test_ladder_command_fails_when_a_monitor_moves(small_config, tmp_path, monkeypatch):
    # The last rung's fourth-power monitor is doubled after its march; its
    # distances still fall, so only the variation cap can fail the ladder.
    path, data = small_config
    data["ladder"] = {"rungs": 3}
    path = write_config(tmp_path, data)
    real_march = harness.march

    def doubled_last_l4(*args, **kwargs):
        rungs = real_march(*args, **kwargs)
        rungs[-1].series["l4_accumulator"] *= 2.0
        return rungs

    monkeypatch.setattr(harness, "march", doubled_last_l4)
    out = tmp_path / "ladder"
    assert main(["ladder", str(path), "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["monotone"] is True
    assert report["variation_cap"] == 0.10
    assert report["monitor_variation"]["l4"] > 0.10
    assert report["monitor_variation"]["entropy"] <= 0.10
    assert report["passed"] is False


def test_sweep_command_fails_on_an_uncertified_cell(smoke_config, tmp_path, monkeypatch):
    # One cell's march runs to the end but leaves a nonpositive temperature
    # in its series: the cell is "ok" and uncertified, and fails the sweep.
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.02
    data["output"]["cadence"] = 0.02
    data["sweep"] = {"axes": {"physical.lambda": [0.5, 1.0]}}
    path = write_config(tmp_path, data)
    real_march = harness.march

    def cold_second_cell(setups, *args, **kwargs):
        results = real_march(setups, *args, **kwargs)
        for setup, result in zip(setups, results):
            if setup.params.lam == 1.0:
                result.series["min_theta"][-1] = -1.0
        return results

    monkeypatch.setattr(harness, "march", cold_second_cell)
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--out", str(out), "--quiet"]) == 1
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1:] == ["0.5,ok,true,", "1.0,ok,false,"]
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["cells"][1]["certification"]["failures"] == [
        "nonpositive temperature -1.000e+00"]


def test_sweep_command_isolates_bad_cells(smoke_config, tmp_path):
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.02
    data["output"]["cadence"] = 0.02
    data["sweep"] = {"axes": {"regularization.eps": [0.01, 2.0]}}
    path = write_config(tmp_path, data)
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--out", str(out), "--quiet"]) == 1
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].endswith("ok,true,")
    assert "ValidationError" in rows[2]

    good = copy.deepcopy(data)
    good["sweep"] = {"axes": {"physical.lambda": [0.5, 1.0]}}
    path2 = write_config(tmp_path, good, "good.json")
    assert main(["sweep", str(path2), "--out", str(out), "--quiet"]) == 0


def test_sweep_requires_axes(small_config, tmp_path):
    path, _ = small_config
    assert main(["sweep", str(path), "--quiet", "--out", str(tmp_path)]) == 2


def test_validate_saturation_exit_codes(smoke_config, tmp_path):
    path = write_config(tmp_path, smoke_config, "power.json")
    out = tmp_path / "val"
    assert main(["validate-saturation", str(path), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True

    assert report["condition"] == "q > 1 + eta" and report["values"] == "3.0 > 2.0"

    data = copy.deepcopy(smoke_config)
    data["saturation"] = {"kind": "exponential", "a": 2.0, "b": 1.0,
                          "eta": 1.0}
    path2 = write_config(tmp_path, data, "exp.json")
    assert main(["validate-saturation", str(path2), "--quiet"]) == 2


def ten_step_config(smoke_config, saturation):
    """Smoke physics at n=16 for ten steps of dt=0.001 with the given curve."""
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.01
    data["output"]["cadence"] = 0.01
    data["saturation"] = saturation
    return data


# Each is admissible by a small margin, below the growth that a finite
# sample of the curve can tell from the boundary.
BOUNDARY_CURVES = ({"kind": "power_law", "c": 1.0, "q": 2.01, "eta": 1.0},
                   {"kind": "exponential", "a": 2.0, "b": 1.0, "eta": 0.99})


@pytest.mark.parametrize("saturation", BOUNDARY_CURVES, ids=("power_law", "exponential"))
def test_boundary_curves_are_accepted(smoke_config, tmp_path, capsys, saturation):
    data = ten_step_config(smoke_config, saturation)
    assert isinstance(build_setup(data), stepper.Setup)
    path = write_config(tmp_path, data)
    assert main(["validate-saturation", str(path)]) == 0
    assert main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 0
    assert "saturation model: PASS" in capsys.readouterr().out


AGREEMENT_GRID = (
    [({"kind": "power_law", "c": 1.0, "q": q, "eta": eta}, q > 1.0 + eta)
     for q in (1.5, 2.0, 2.01, 3.0) for eta in (0.5, 1.0, 1.5)]
    + [({"kind": "exponential", "a": 2.0, "b": 1.0, "eta": eta}, eta < 1.0)
       for eta in (0.5, 0.99, 1.0, 1.5)]
    + [({"kind": "exponential", "a": 2.0, "b": 1.0}, False)])


@pytest.mark.parametrize("saturation,admissible", AGREEMENT_GRID)
def test_run_and_validate_saturation_agree(smoke_config, tmp_path, capsys, saturation,
                                           admissible):
    """Both commands accept exactly the curves that meet the closed form."""
    path = write_config(tmp_path, ten_step_config(smoke_config, saturation))
    validated = main(["validate-saturation", str(path), "--quiet"])
    ran = main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")])
    if admissible:
        assert validated == ran == 0
    else:
        key = "saturation.q" if saturation["kind"] == "power_law" else "saturation.eta"
        assert validated == ran == 2
        assert capsys.readouterr().err.count(f"{key}: requires") == 2


def test_console_script_entry_point(small_config, tmp_path):
    """The `poromoist` script declared in pyproject.toml runs `run` end to end.

    The child process loads the declared target and calls it the way the
    pip-generated wrapper does, so the test needs no install.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["poromoist"]

    path, _ = small_config
    # The child imports this checkout's package, whatever the caller's
    # relative PYTHONPATH or an installed copy would resolve to.
    env = child_env()
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "ep = EntryPoint('poromoist', sys.argv[1], 'console_scripts')\n"
        "main = ep.load()\n"
        "sys.argv = ['poromoist', *sys.argv[2:]]\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, target,
         "run", str(path), "--out", str(tmp_path / "cli"), "--quiet"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli" / "report.json").exists()


def test_python_dash_m_runs_the_cli(small_config, tmp_path):
    """`python -m poromoist` takes the CLI's arguments without an install."""
    path, _ = small_config
    env = child_env()
    out = tmp_path / "module"
    proc = subprocess.run(
        [sys.executable, "-m", "poromoist", "run", str(path), "--out", str(out),
         "--quiet"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["certification"]["passed"] is True

    proc = subprocess.run(
        [sys.executable, "-m", "poromoist", "run", str(tmp_path / "absent.json")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 2


def test_cli_import_loads_no_schema_library():
    """Configs are validated in-package; jsonschema is only a test oracle."""
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, poromoist.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "poromoist" in loaded
    assert not loaded & {"jsonschema", "referencing", "attr", "attrs", "rpds"}
