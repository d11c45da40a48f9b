"""Balance residuals, envelopes, monitors, and the weak-form audit."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from poromoist.config import build_setup
from poromoist.diagnostics import (certify_run, default_test_functions,
                                   energy_balance_residual, entropy_monitor,
                                   mass_balance_residual, mass_energy_envelope_check,
                                   start_series, step_record, theta_envelope,
                                   weak_residual)
from poromoist.discretization import Grid
from poromoist.model import InitialData
from poromoist.stepper import (RegularizationParams, State, StepConfig, homotopy_solve,
                               run)
from tests.conftest import make_params, run_equilibrium


@pytest.fixture(scope="module")
def equilibrium_run(unit_params, cubic_model):
    return run_equilibrium(unit_params, cubic_model, n=64, dt=1e-3, steps=200)


def bump_run(n, dt, t_end, eps=1e-4, nu=5e-5, params=None, model=None):
    grid = Grid(n)
    data = InitialData(1.0 + np.exp(-((grid.centers - 0.5) / 0.15) ** 2),
                       np.ones(n), theta_floor=0.5)
    return run(data, StepConfig(dt=dt), RegularizationParams(eps=eps, nu=nu),
               params, model, grid, t_end=t_end)


def start_row(state, params, model):
    """Row 0 of the series of a zero-step run from state, by name."""
    grid = Grid(len(state.rho))
    result = run(None, StepConfig(dt=1e-3), RegularizationParams(eps=1e-2, nu=5e-3),
                 params, model, grid, t_end=0.0, initial_state=state)
    return {name: column[0] for name, column in result.series.items()}, result.t[0]


def test_initial_record_hand_values(unit_params, cubic_model):
    state = State(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 2.0, 1.0]), 0.0)
    rec, t = start_row(state, unit_params, cubic_model)
    assert t == 0.0
    assert rec["total_mass"] == pytest.approx(0.25 * 10.0)
    expected_entropy = 0.25 * sum(v * math.log(v) for v in (1.0, 2.0, 3.0, 4.0))
    assert rec["entropy"] == pytest.approx(expected_entropy, rel=1e-14)
    # lam * mass + integral(rho theta) + sigma * integral(theta)
    expected_energy = 2.5 + 0.25 * (1.0 + 2.0 + 6.0 + 4.0) + 0.25 * 5.0
    assert rec["mass_energy"] == pytest.approx(expected_energy, rel=1e-14)
    assert rec["min_rho"] == 1.0 and rec["max_theta"] == 2.0
    assert rec["mass_balance_residual"] == 0.0
    assert rec["energy_balance_residual"] == 0.0
    assert rec["picard_iterations"] == 0
    assert rec["l4_accumulator"] == 0.0
    # the start level's envelope map is the identity
    assert rec["envelope_lift"] == 0.0 and rec["envelope_gain"] == 1.0


def test_entropy_value_handles_zero_density(unit_params, cubic_model):
    state = State(np.array([0.0, 1.0, 0.0, 1.0]), np.ones(4), 0.0)
    rec, _ = start_row(state, unit_params, cubic_model)
    assert rec["entropy"] == 0.0


def row_at_a_time(result):
    """The seven trajectory columns, one time level at a time.

    The fourth-power accumulator is the left-rule recurrence
    l4[k] = l4[k-1] + dt h sum(rho[k-1]^4).
    """
    h, p, dt = result.grid.h, result.params, result.cfg.dt
    columns = {name: [] for name in ("total_mass", "mass_energy", "entropy", "min_rho",
                                     "min_theta", "max_theta")}
    for rho, theta in zip(result.rho, result.theta):
        columns["total_mass"].append(h * rho.sum())
        columns["mass_energy"].append(h * (p.lam * rho + rho * theta + p.sigma * theta).sum())
        terms = np.where(rho > 0, rho * np.log(np.where(rho > 0, rho, 1.0)), 0.0)
        columns["entropy"].append(float(h * terms.sum()))
        columns["min_rho"].append(rho.min())
        columns["min_theta"].append(theta.min())
        columns["max_theta"].append(theta.max())
    l4 = columns["l4_accumulator"] = [0.0]
    for rho in result.rho[:-1]:
        l4.append(l4[-1] + dt * float(h * (rho**4).sum()))
    return {name: np.array(values) for name, values in columns.items()}


@pytest.fixture(scope="module")
def central_result(smoke_config):
    setup = build_setup(smoke_config)
    return run(setup.initial, replace(setup.step, advection="central"), setup.reg,
               setup.params, setup.model, setup.grid, t_end=0.2)


@pytest.mark.parametrize("which", ["smoke_result", "central_result"])
def test_trajectory_columns_match_row_at_a_time(which, request):
    result = request.getfixturevalue(which)
    for name, expected in row_at_a_time(result).items():
        assert np.array_equal(result.series[name], expected), name


def test_smoke_mass_balance_is_roundoff(smoke_result):
    worst = np.max(smoke_result.series["mass_balance_residual"])
    assert worst <= 1e-10


def test_smoke_energy_balance_bounded(smoke_result):
    worst = np.max(smoke_result.series["energy_balance_residual"])
    assert np.isfinite(worst)
    # commutator-sized defect: first-order in dt, far below the field scale
    assert worst < 1e-2


def test_equilibrium_balances_are_roundoff(equilibrium_run):
    assert np.max(equilibrium_run.series["mass_balance_residual"]) < 1e-11
    assert np.max(equilibrium_run.series["energy_balance_residual"]) < 1e-10


def test_equilibrium_l4_accumulator_left_rule(equilibrium_run):
    # integrand h * sum(rho^4) stays exactly 1, so the left rule gives k*dt
    l4 = equilibrium_run.series["l4_accumulator"]
    assert l4[0] == 0.0
    assert l4[-1] == pytest.approx((len(l4) - 1) * equilibrium_run.cfg.dt, abs=1e-12)


def test_energy_defect_integral_refines(unit_params, cubic_model):
    coarse = bump_run(64, 2e-3, 0.2, params=unit_params, model=cubic_model)
    fine = bump_run(128, 1e-3, 0.2, params=unit_params, model=cubic_model)

    def integrated(result):
        return result.cfg.dt * sum(result.series["energy_balance_residual"][1:])

    ratio = integrated(coarse) / integrated(fine)
    assert ratio >= 1.8


def test_envelope_passes_on_smoke(smoke_result):
    report = mass_energy_envelope_check(smoke_result)
    assert report.ok
    assert report.first_violation_t is None
    assert report.min_slack > 0
    assert smoke_result.series["mass_energy"].shape == report.bounds.shape
    assert report.c_rate == pytest.approx(2.0)


def test_envelope_flags_doctored_record(smoke_result):
    column = smoke_result.series["mass_energy"]
    captured = column[400]
    column[400] = 1e9
    try:
        report = mass_energy_envelope_check(smoke_result)
        assert not report.ok
        assert report.first_violation_t == pytest.approx(smoke_result.t[400])
        assert report.min_slack < 0
    finally:
        column[400] = captured


def test_entropy_monitor_smoke(smoke_result):
    report = entropy_monitor(smoke_result)
    assert np.all(np.isfinite(smoke_result.series["entropy"]))
    assert report.dissipation > 0
    assert report.max_entropy == pytest.approx(np.max(smoke_result.series["entropy"]))


def test_entropy_monitor_equilibrium_is_silent(equilibrium_run):
    report = entropy_monitor(equilibrium_run)
    np.testing.assert_allclose(equilibrium_run.series["entropy"], 0.0, atol=1e-13)
    assert report.dissipation <= 1e-20


def test_default_test_functions_slopes_match():
    shapes = default_test_functions()
    assert len(shapes) == 12
    assert len({s.name for s in shapes}) == 12
    x = np.linspace(0.05, 0.95, 19)
    d = 1e-6
    for shape in shapes:
        fd = (shape.value(x + d) - shape.value(x - d)) / (2.0 * d)
        np.testing.assert_allclose(shape.slope(x), fd, rtol=1e-7, atol=1e-7)


def test_weak_residuals_vanish_at_equilibrium(unit_params, cubic_model):
    result = run_equilibrium(unit_params, cubic_model, n=64, dt=1e-3,
                             steps=1000)
    report = weak_residual(result)
    assert len(report.shape_names) == 12
    assert report.max_mass <= 1e-6
    assert report.max_heat <= 1e-6


def test_theta_envelope_tracks_run(smoke_result):
    env = np.asarray(theta_envelope(smoke_result))
    maxes = smoke_result.series["max_theta"]
    assert env.shape == maxes.shape
    assert certify_run(smoke_result).theta_envelope_ok
    assert np.all(maxes <= env + 1e-9)
    lift, gain = (smoke_result.series[name] for name in ("envelope_lift", "envelope_gain"))
    assert lift[0] == 0.0 and np.all(lift[1:] > 0)
    assert gain[0] == 1.0 and np.all(gain[1:] > 1)


def heating_rate(srec, params):
    return float((srec.rho * srec.coeffs.chi_sqrt / (srec.rho + params.sigma)).max())


def test_step_record_of_one_step_keeps_the_level_map(smoke_result):
    # One substep of dt at rate r maps env to (env + dt lam r)(1 + dt r):
    # lift and gain hold those two factors to the bit.
    params, cfg = smoke_result.params, smoke_result.cfg
    prev = State(smoke_result.rho[9], smoke_result.theta[9], smoke_result.t[9])
    _, records = homotopy_solve(prev, cfg, smoke_result.reg, params,
                                smoke_result.model, smoke_result.grid)
    assert len(records) == 1
    series = start_series(1)
    step_record(series, 1, records, smoke_result.grid, params)
    rate = heating_rate(records[0], params)
    assert series["envelope_lift"][1] == cfg.dt * params.lam * rate
    assert series["envelope_gain"][1] == 1.0 + cfg.dt * rate


def test_step_record_folds_substeps(cubic_model):
    # The stiff step that homotopy_solve takes as two halves (see test_stepper).
    grid, params = Grid(16), make_params(lam=120.0)
    prev = State(np.ones(16), np.full(16, 1.3), 0.0)
    reg, cfg = RegularizationParams(eps=1e-2, nu=5e-3), StepConfig(dt=0.02)
    _, records = homotopy_solve(prev, cfg, reg, params, cubic_model, grid)
    assert [srec.dt for srec in records] == [0.01, 0.01]
    series = start_series(1)
    step_record(series, 1, records, grid, params)

    residuals = [(mass_balance_residual(srec, grid),
                  energy_balance_residual(srec, grid, params)) for srec in records]
    assert series["mass_balance_residual"][1] == max(m for m, _ in residuals)
    assert series["energy_balance_residual"][1] == max(e for _, e in residuals)
    assert series["picard_iterations"][1] == sum(srec.sweeps for srec in records)

    # applying the two substep maps in turn gives the composed map's bound
    lift, gain = series["envelope_lift"][1], series["envelope_gain"][1]
    for env in (1.0, 1.3, 7.5):
        step = env
        for srec in records:
            rate = heating_rate(srec, params)
            step = (step + srec.dt * params.lam * rate) * (1.0 + srec.dt * rate)
        assert (env + lift) * gain == pytest.approx(step, rel=1e-15)


def test_step_record_keeps_a_nan_residual(smoke_result):
    params, grid = smoke_result.params, smoke_result.grid
    prev = State(smoke_result.rho[9], smoke_result.theta[9], smoke_result.t[9])
    _, records = homotopy_solve(prev, smoke_result.cfg, smoke_result.reg, params,
                                smoke_result.model, grid)
    nan_first = (replace(records[0], forcing=replace(
        records[0].forcing, rho_source=np.nan, theta_source=np.nan)),)
    series = start_series(1)
    step_record(series, 1, nan_first + records, grid, params)
    assert math.isnan(series["mass_balance_residual"][1])
    assert math.isnan(series["energy_balance_residual"][1])


def test_certify_run_passes_smoke(smoke_result):
    report = certify_run(smoke_result)
    assert report.passed
    assert report.failures == ()
    summary = report.summary()
    assert summary["passed"] is True
    assert summary["max_mass_residual"] <= 1e-10
    assert summary["min_rho"] > 0 and summary["min_theta"] > 0


def test_certify_run_reports_failures(smoke_result):
    doctored = {"mass_balance_residual": 1.0, "min_rho": -1.0, "max_theta": 1e9}
    captured = {name: smoke_result.series[name][10] for name in doctored}
    for name, value in doctored.items():
        smoke_result.series[name][10] = value
    try:
        report = certify_run(smoke_result)
        assert not report.passed
        text = " ".join(report.failures)
        assert "mass balance" in text
        assert "vapor density" in text
        assert "temperature envelope" in text
        assert not report.theta_envelope_ok
        assert report.summary()["theta_envelope_ok"] is False
    finally:
        for name, value in captured.items():
            smoke_result.series[name][10] = value


@pytest.mark.parametrize("name,row", [
    ("mass_balance_residual", 10), ("energy_balance_residual", 10),
    ("mass_energy", 10), ("total_mass", 0), ("max_theta", 10),
    ("envelope_lift", 10), ("envelope_gain", 10), ("min_rho", 10), ("min_theta", 10),
    ("entropy", 10), ("l4_accumulator", 10),
])
def test_certify_run_fails_on_nan_entry(smoke_result, name, row):
    column = smoke_result.series[name]
    captured = column[row]
    column[row] = math.nan
    try:
        report = certify_run(smoke_result)
        assert not report.passed, name
        assert f"{name} is not finite" in report.failures
        assert not any("nan" in failure for failure in report.failures)
    finally:
        column[row] = captured
