"""End-to-end acceptance suite.

Ten desk-scale checks, each with an explicit tolerance and most with a
runtime budget: solver oracle, conservation, positivity, growth envelope,
observed convergence orders, regularization refinement, weak-form residual
decay, equilibrium preservation, byte-level determinism of the CLI, and a
certified run on every cell of the robustness grid and of the harder grid.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from poromoist.cli import main
from poromoist.config import apply_override, build_setup
from poromoist.diagnostics import (certify_run, mass_energy_envelope_check,
                                   weak_residual)
from poromoist.harness import (make_default_mms_case, mms_study,
                               regularization_ladder, sweep)
from poromoist.linalg import solve_thomas
from poromoist.model import PowerLawSaturation, saturation_pressure
from poromoist.stepper import (RegularizationParams, State, StepConfig, run)
from poromoist.discretization import Grid
from tests.conftest import REPO_ROOT, make_params
from tests.oracles import dense, dense_solve
from tests.test_linalg import random_dominant_system

SMOKE_PATH = REPO_ROOT / "configs" / "smoke.json"


def run_config(data):
    setup = build_setup(data)
    return run(setup.initial, setup.step, setup.reg, setup.params,
               setup.model, setup.grid, t_end=setup.params.t_end)


@pytest.fixture(scope="module")
def smoke_dict():
    with open(SMOKE_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def timed_smoke(smoke_dict):
    start = time.monotonic()
    result = run_config(smoke_dict)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def exchange_sweep(smoke_dict):
    """3x3 grid over latent heat and heat capacity on the smoke problem."""
    def cell(overrides):
        data = smoke_dict
        for path, value in overrides.items():
            data = apply_override(data, path, value)
        result = run_config(data)
        return {
            "min_rho": np.min(result.series["min_rho"]),
            "min_theta": np.min(result.series["min_theta"]),
            "envelope": mass_energy_envelope_check(result),
            "theta_env_ok": certify_run(result).theta_envelope_ok,
        }

    start = time.monotonic()
    report = sweep({"physical.lambda": [0.5, 1.0, 2.0],
                    "physical.sigma": [0.5, 1.0, 2.0]}, cell)
    return report, time.monotonic() - start


def test_thomas_sweep_agrees_with_dense_elimination():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    for trial in range(100):
        n = int(rng.integers(2, 65))
        system = random_dominant_system(rng, n)
        gap = np.max(np.abs(solve_thomas(system)
                            - dense_solve(dense(system), system.rhs)))
        assert gap <= 1e-12
    assert time.monotonic() - start < 1.0


def test_smoke_mass_balance_every_step(timed_smoke):
    result, elapsed = timed_smoke
    assert elapsed < 10.0
    rel = (result.series["mass_balance_residual"]
           / np.maximum(1.0, np.abs(result.series["total_mass"])))
    assert rel.max() <= 1e-10


def test_positivity_on_smoke_and_sweep(timed_smoke, exchange_sweep):
    result, smoke_elapsed = timed_smoke
    report, sweep_elapsed = exchange_sweep
    assert smoke_elapsed + sweep_elapsed < 120.0
    assert np.min(result.series["min_rho"]) > 0
    assert np.min(result.series["min_theta"]) > 0
    assert len(report.cells) == 9
    assert report.failures == ()
    for cell in report.cells:
        assert cell.payload["min_rho"] > 0, cell.overrides
        assert cell.payload["min_theta"] > 0, cell.overrides


def test_energy_envelope_on_smoke_and_sweep(timed_smoke, exchange_sweep):
    result, _ = timed_smoke
    report, _ = exchange_sweep
    smoke_env = mass_energy_envelope_check(result)
    assert smoke_env.ok and smoke_env.first_violation_t is None
    assert certify_run(result).theta_envelope_ok
    for cell in report.cells:
        assert cell.payload["envelope"].ok, cell.overrides
        assert cell.payload["theta_env_ok"], cell.overrides


def test_observed_convergence_orders(unit_params, cubic_model):
    case = make_default_mms_case(unit_params, cubic_model)
    start = time.monotonic()
    central = mms_study(case, unit_params, cubic_model,
                        grid_sizes=(32, 64, 128, 256), steps_coarse=20,
                        advection="central")
    upwind = mms_study(case, unit_params, cubic_model,
                       grid_sizes=(32, 64, 128, 256), steps_coarse=20,
                       advection="upwind")
    assert time.monotonic() - start < 120.0
    assert central.rho_orders[-1] >= 1.9
    assert central.theta_orders[-1] >= 1.9
    assert upwind.rho_orders[-1] >= 0.9
    assert upwind.theta_orders[-1] >= 0.9


def test_regularization_ladder_on_smoke(smoke_dict):
    setup = build_setup(smoke_dict)
    start = time.monotonic()
    report = regularization_ladder(setup.initial, setup.step, setup.params,
                                   setup.model, setup.grid,
                                   t_end=setup.params.t_end)
    assert time.monotonic() - start < 120.0
    assert report.eps_values == (0.1, 0.05, 0.025, 0.0125)
    assert report.differences.shape == (3,)
    assert np.all(np.diff(report.differences) < 0)
    assert report.monotone
    assert report.monitor_variation["entropy"] <= 0.10
    assert report.monitor_variation["l4"] <= 0.10


def test_weak_residuals_shrink_under_refinement(smoke_dict):
    # lopsided ambients give every test shape a nonzero error projection;
    # tiny eps keeps the measured defect pure discretization error
    base = smoke_dict
    for path, value in [("initial.rho.center", 0.3),
                        ("physical.rho_bar0", 0.7),
                        ("physical.rho_bar1", 1.3),
                        ("physical.theta_bar0", 0.9),
                        ("physical.theta_bar1", 1.1),
                        ("regularization.eps", 1e-4),
                        ("regularization.nu", 5e-5)]:
        base = apply_override(base, path, value)
    fine_cfg = apply_override(apply_override(base, "grid.n", 200),
                              "stepping.dt", 5e-4)

    start = time.monotonic()
    coarse = weak_residual(run_config(base))
    fine = weak_residual(run_config(fine_cfg))
    assert time.monotonic() - start < 60.0

    assert len(coarse.shape_names) == 12
    for i, name in enumerate(coarse.shape_names):
        mass_ratio = abs(coarse.mass_residuals[i]) / abs(fine.mass_residuals[i])
        heat_ratio = abs(coarse.heat_residuals[i]) / abs(fine.heat_residuals[i])
        assert mass_ratio >= 1.5, (name, mass_ratio)
        assert heat_ratio >= 1.5, (name, heat_ratio)


@pytest.mark.parametrize("theta_hat", [1.0, 1.2])
def test_equilibrium_preserved_over_long_runs(theta_hat):
    model = PowerLawSaturation(c=1.0, q=3.0, eta=1.0)
    rho_hat = saturation_pressure(model, theta_hat) / np.sqrt(theta_hat)
    params = make_params(rho_bar0=rho_hat, rho_bar1=rho_hat,
                         theta_bar0=theta_hat, theta_bar1=theta_hat)
    grid = Grid(32)
    state = State(np.full(grid.n, rho_hat), np.full(grid.n, theta_hat), 0.0)
    steps = 1000
    result = run(None, StepConfig(dt=1e-3),
                 RegularizationParams(eps=1e-2, nu=5e-3), params, model,
                 grid, t_end=steps * 1e-3, initial_state=state)
    assert result.rho.shape == result.theta.shape == (steps + 1, grid.n)
    drift = 0.0
    for k in range(1, steps + 1):
        drift = max(drift,
                    np.max(np.abs(result.rho[k] - result.rho[k - 1])),
                    np.max(np.abs(result.theta[k] - result.theta[k - 1])))
    assert drift <= 1e-8
    assert np.max(result.series["picard_iterations"][1:]) == 1


def test_cli_outputs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["run", str(SMOKE_PATH), "--out", str(out1), "--quiet"]) == 0
    assert main(["run", str(SMOKE_PATH), "--out", str(out2), "--quiet"]) == 0
    for name in ("series.csv", "snapshots.csv"):
        first = (out1 / name).read_bytes()
        assert first == (out2 / name).read_bytes()
        assert len(first) > 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


# The robustness grid: the smoke problem to t = 0.4 over the step, the latent
# heat and the start temperature.  With plain (unmixed) Picard sweeps, 11 of
# its 32 cells exit 1.  (dt, lambda, theta0) = (0.01, 60, 1.0), (0.01, 60,
# 1.3), (0.02, 30, 1.0), (0.02, 30, 1.3), (0.02, 60, 1.0), (0.04, 10, 1.3) and
# (0.04, 30, 1.0) end in PicardDivergence; (0.02, 60, 1.3), (0.04, 30, 1.3),
# (0.04, 60, 1.0) and (0.04, 60, 1.3) in DominanceViolation.
@pytest.mark.parametrize("theta0", [1.0, 1.3])
@pytest.mark.parametrize("lam", [1.0, 10.0, 30.0, 60.0])
@pytest.mark.parametrize("dt", [0.005, 0.01, 0.02, 0.04])
def test_robustness_grid_cell_certifies(smoke_dict, dt, lam, theta0):
    data = smoke_dict
    for path, value in (("physical.t_end", 0.4), ("output.cadence", 0.2),
                        ("stepping.dt", dt), ("physical.lambda", lam),
                        ("initial.theta.value", theta0)):
        data = apply_override(data, path, value)
    result = run_config(data)
    assert len(result.t) == round(0.4 / dt) + 1
    cert = certify_run(result)
    assert cert.passed, cert.failures


# The harder grid: the smoke problem to t = 0.4 in steps of 0.04 and 0.08,
# with latent heats up to 250.  Before steps were retaken in substeps, 10 of
# its 12 cells ended in PicardDivergence or DominanceViolation; now 10 cells
# split some of their steps (161 splits over the grid) and all 12 certify.
@pytest.mark.parametrize("theta0", [1.0, 1.3])
@pytest.mark.parametrize("lam", [60.0, 120.0, 250.0])
@pytest.mark.parametrize("dt", [0.04, 0.08])
def test_harder_grid_cell_certifies(smoke_dict, dt, lam, theta0):
    data = smoke_dict
    for path, value in (("physical.t_end", 0.4), ("output.cadence", 0.4),
                        ("stepping.dt", dt), ("physical.lambda", lam),
                        ("initial.theta.value", theta0)):
        data = apply_override(data, path, value)
    result = run_config(data)
    assert len(result.t) == round(0.4 / dt) + 1
    cert = certify_run(result)
    assert cert.passed, cert.failures
