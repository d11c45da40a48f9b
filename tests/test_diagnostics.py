"""Balance residuals, envelopes, monitors, and the weak-form audit."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from poromoist.diagnostics import (certify_run, default_test_functions,
                                   entropy_monitor, initial_record,
                                   mass_energy_envelope_check, theta_envelope,
                                   weak_residual)
from poromoist.discretization import Grid
from poromoist.model import InitialData
from poromoist.stepper import RegularizationParams, State, StepConfig, run
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


def test_initial_record_hand_values(unit_params):
    grid = Grid(4)
    state = State(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 2.0, 1.0]), 0.0)
    rec = initial_record(state, grid, unit_params)
    assert rec.t == 0.0
    assert rec.total_mass == pytest.approx(0.25 * 10.0)
    expected_entropy = 0.25 * sum(v * math.log(v) for v in (1.0, 2.0, 3.0, 4.0))
    assert rec.entropy == pytest.approx(expected_entropy, rel=1e-14)
    # lam * mass + integral(rho theta) + sigma * integral(theta)
    expected_energy = 2.5 + 0.25 * (1.0 + 2.0 + 6.0 + 4.0) + 0.25 * 5.0
    assert rec.mass_energy == pytest.approx(expected_energy, rel=1e-14)
    assert rec.min_rho == 1.0 and rec.max_theta == 2.0
    assert rec.mass_balance_residual == 0.0
    assert rec.energy_balance_residual == 0.0
    assert rec.picard_iterations == 0
    assert rec.l4_accumulator == 0.0
    assert rec.heating_rate == 0.0


def test_entropy_value_handles_zero_density(unit_params):
    grid = Grid(4)
    state = State(np.array([0.0, 1.0, 0.0, 1.0]), np.ones(4), 0.0)
    rec = initial_record(state, grid, unit_params)
    assert rec.entropy == 0.0


def test_smoke_mass_balance_is_roundoff(smoke_result):
    worst = max(r.mass_balance_residual for r in smoke_result.records)
    assert worst <= 1e-10


def test_smoke_energy_balance_bounded(smoke_result):
    worst = max(r.energy_balance_residual for r in smoke_result.records)
    assert np.isfinite(worst)
    # commutator-sized defect: first-order in dt, far below the field scale
    assert worst < 1e-2


def test_equilibrium_balances_are_roundoff(equilibrium_run):
    assert max(r.mass_balance_residual for r in equilibrium_run.records) < 1e-11
    assert max(r.energy_balance_residual for r in equilibrium_run.records) < 1e-10


def test_equilibrium_l4_accumulator_left_rule(equilibrium_run):
    # integrand h * sum(rho^4) stays exactly 1, so the left rule gives k*dt
    recs = equilibrium_run.records
    assert recs[0].l4_accumulator == 0.0
    assert recs[-1].l4_accumulator == pytest.approx(
        (len(recs) - 1) * equilibrium_run.cfg.dt, abs=1e-12)


def test_energy_defect_integral_refines(unit_params, cubic_model):
    coarse = bump_run(64, 2e-3, 0.2, params=unit_params, model=cubic_model)
    fine = bump_run(128, 1e-3, 0.2, params=unit_params, model=cubic_model)

    def integrated(result):
        return result.cfg.dt * sum(r.energy_balance_residual
                                   for r in result.records[1:])

    ratio = integrated(coarse) / integrated(fine)
    assert ratio >= 1.8


def test_envelope_passes_on_smoke(smoke_result):
    report = mass_energy_envelope_check(smoke_result)
    assert report.ok
    assert report.first_violation_t is None
    assert report.min_slack > 0
    assert report.values.shape == report.bounds.shape
    assert report.c_rate == pytest.approx(2.0)


def test_envelope_flags_doctored_record(smoke_result):
    captured = smoke_result.records[400]
    smoke_result.records[400] = replace(captured, mass_energy=1e9)
    try:
        report = mass_energy_envelope_check(smoke_result)
        assert not report.ok
        assert report.first_violation_t == pytest.approx(captured.t)
        assert report.min_slack < 0
    finally:
        smoke_result.records[400] = captured


def test_entropy_monitor_smoke(smoke_result):
    report = entropy_monitor(smoke_result)
    assert np.all(np.isfinite(report.series))
    assert report.dissipation > 0
    assert report.max_entropy == pytest.approx(max(r.entropy for r in
                                                   smoke_result.records))


def test_entropy_monitor_equilibrium_is_silent(equilibrium_run):
    report = entropy_monitor(equilibrium_run)
    np.testing.assert_allclose(report.series, 0.0, atol=1e-13)
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
    maxes = np.array([r.max_theta for r in smoke_result.records])
    assert env.shape == maxes.shape
    assert certify_run(smoke_result).theta_envelope_ok
    assert np.all(maxes <= env + 1e-9)
    rates = np.array([r.heating_rate for r in smoke_result.records])
    assert rates[0] == 0.0 and np.all(rates[1:] > 0)


def test_certify_run_passes_smoke(smoke_result):
    report = certify_run(smoke_result)
    assert report.passed
    assert report.failures == ()
    summary = report.summary()
    assert summary["passed"] is True
    assert summary["max_mass_residual"] <= 1e-10
    assert summary["min_rho"] > 0 and summary["min_theta"] > 0


def test_certify_run_reports_failures(smoke_result):
    captured = smoke_result.records[10]
    smoke_result.records[10] = replace(captured, mass_balance_residual=1.0,
                                       min_rho=-1.0, max_theta=1e9)
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
        smoke_result.records[10] = captured
