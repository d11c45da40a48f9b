"""Manufactured solutions, the regularization ladder, and parameter sweeps."""
from __future__ import annotations

import numpy as np
import pytest

from poromoist import harness
from poromoist.discretization import Grid
from poromoist.errors import ConfigError
from poromoist.harness import (MMSCase, make_default_mms_case, mms_study,
                               regularization_ladder, sweep)
from poromoist.model import InitialData, saturation_pressure
from poromoist.stepper import Forcing, RegularizationParams, StepConfig
from tests.conftest import equilibrium_state, make_params


@pytest.fixture(scope="module")
def default_case(unit_params, cubic_model):
    return make_default_mms_case(unit_params, cubic_model)


def deriv(f, z, d=1e-5):
    return (f(z + d) - f(z - d)) / (2.0 * d)


def test_manufactured_sources_match_finite_differences(default_case,
                                                       unit_params,
                                                       cubic_model):
    """Rebuild both sources purely by differencing the exact fields."""
    case = default_case
    p = unit_params
    x = np.linspace(0.15, 0.85, 8)
    for t in (0.0, 0.07, 0.3):
        rho = case.exact_rho
        theta = case.exact_theta

        def pressure(xv, tv=t):
            return rho(xv, tv) * theta(xv, tv)

        def mass_flux(xv, tv=t):
            return deriv(lambda z: pressure(z, tv), xv) * rho(xv, tv)

        gamma = (rho(x, t) * np.sqrt(theta(x, t))
                 - saturation_pressure(cubic_model, theta(x, t)))
        s_rho = (deriv(lambda tz: rho(x, tz), t)
                 - deriv(lambda z: mass_flux(z), x) + gamma)
        np.testing.assert_allclose(case.forcing.rho_source(x, t), s_rho,
                                   rtol=2e-4, atol=2e-6)

        def heat_flux(xv, tv=t):
            kappa = p.kappa1 + p.kappa2 * rho(xv, tv) ** 2
            return kappa * deriv(lambda z: theta(z, tv), xv)

        s_cons = (deriv(lambda tz: pressure(x, tz) + p.sigma * theta(x, tz), t)
                  - deriv(lambda z: mass_flux(z) * theta(z, t), x)
                  - deriv(lambda z: heat_flux(z), x)
                  - p.lam * gamma)
        s_theta = s_cons - theta(x, t) * s_rho
        np.testing.assert_allclose(case.forcing.theta_source(x, t), s_theta,
                                   rtol=2e-4, atol=2e-6)


def test_manufactured_boundary_corrections(default_case, unit_params,
                                           cubic_model):
    case = default_case
    p = unit_params
    rho, theta = case.exact_rho, case.exact_theta
    for t in (0.02, 0.4):
        def pressure(z, tv=t):
            return rho(z, tv) * theta(z, tv)

        flux0 = deriv(pressure, 0.0) * rho(0.0, t)
        flux1 = deriv(pressure, 1.0) * rho(1.0, t)
        g0 = flux0 - p.alpha0 * (rho(0.0, t) - p.rho_bar0)
        g1 = flux1 - p.alpha1 * (p.rho_bar1 - rho(1.0, t))
        assert case.forcing.rho_flux(t) == pytest.approx((g0, g1), rel=1e-5)

        kappa0 = p.kappa1 + p.kappa2 * rho(0.0, t) ** 2
        kappa1v = p.kappa1 + p.kappa2 * rho(1.0, t) ** 2
        cond0 = kappa0 * deriv(lambda z: theta(z, t), 0.0)
        cond1 = kappa1v * deriv(lambda z: theta(z, t), 1.0)
        h0 = cond0 - p.beta0 * (theta(0.0, t) - p.theta_bar0)
        h1 = cond1 - p.beta1 * (p.theta_bar1 - theta(1.0, t))
        assert case.forcing.theta_flux(t) == pytest.approx((h0, h1), rel=1e-5)


def constant_case(rho_value, theta_value, params, model):
    """Space-time constant manufactured pair; an exact discrete solution."""
    gamma = rho_value * np.sqrt(theta_value) - saturation_pressure(
        model, theta_value)
    s_rho = gamma
    s_theta = -params.lam * gamma - theta_value * s_rho

    def const(value):
        return lambda x, t: np.full_like(np.asarray(x, dtype=float), value)

    forcing = Forcing(
        rho_source=const(s_rho),
        theta_source=const(s_theta),
        rho_flux=lambda t: (-params.alpha0 * (rho_value - params.rho_bar0),
                            -params.alpha1 * (params.rho_bar1 - rho_value)),
        theta_flux=lambda t: (-params.beta0 * (theta_value - params.theta_bar0),
                              -params.beta1 * (params.theta_bar1 - theta_value)),
    )
    return MMSCase("constants", const(rho_value), const(theta_value), forcing)


def test_constant_manufactured_pair_is_exact(unit_params, cubic_model):
    case = constant_case(2.0, 1.5, unit_params, cubic_model)
    report = mms_study(case, unit_params, cubic_model, grid_sizes=(8, 16),
                       t_end=0.05, steps_coarse=5)
    assert report.rho_errors.max() < 1e-12
    assert report.theta_errors.max() < 1e-12


def test_central_orders_second_accurate(default_case, unit_params,
                                        cubic_model):
    report = mms_study(default_case, unit_params, cubic_model,
                       grid_sizes=(16, 32, 64), advection="central")
    assert report.rho_orders[-1] > 1.9
    assert report.theta_orders[-1] > 1.85
    assert report.dts[1] == report.dts[0] / 4.0


def test_upwind_orders_first_accurate(default_case, unit_params, cubic_model):
    report = mms_study(default_case, unit_params, cubic_model,
                       grid_sizes=(16, 32, 64), steps_coarse=20,
                       advection="upwind")
    assert report.rho_orders[-1] > 0.95
    assert report.theta_orders[-1] > 0.85
    assert report.dts[1] == report.dts[0] / 2.0


@pytest.mark.parametrize("sizes", [(16, 64), (16, 24), (16, 32, 48), (32, 16), (16,), ()])
def test_mms_grid_sizes_must_double(default_case, unit_params, cubic_model,
                                    monkeypatch, sizes):
    def no_march(*args, **kwargs):
        raise AssertionError("mms_study marched before checking grid_sizes")
    monkeypatch.setattr(harness, "run", no_march)
    with pytest.raises(ConfigError, match="grid_sizes"):
        mms_study(default_case, unit_params, cubic_model, grid_sizes=sizes)


def smoke_lite_ladder(params, model, **kwargs):
    grid = Grid(64)
    data = InitialData(1.0 + np.exp(-((grid.centers - 0.5) / 0.15) ** 2),
                       np.ones(grid.n), theta_floor=0.5)
    return regularization_ladder(data, StepConfig(dt=1e-3), params, model,
                                 grid, t_end=0.1, **kwargs)


def test_ladder_decreases_and_monitors_settle(unit_params, cubic_model):
    report = smoke_lite_ladder(unit_params, cubic_model)
    assert report.eps_values == (0.1, 0.05, 0.025, 0.0125)
    assert report.nu_values == (0.05, 0.025, 0.0125, 0.00625)
    assert report.differences.shape == (3,)
    assert report.monotone
    assert report.monitor_variation["entropy"] <= 0.1
    assert report.monitor_variation["l4"] <= 0.1


def test_ladder_single_rung_vacuous(unit_params, cubic_model):
    report = smoke_lite_ladder(unit_params, cubic_model, rungs=1)
    assert report.differences.shape == (0,)
    assert report.monotone


def test_ladder_rejects_empty(unit_params, cubic_model):
    with pytest.raises(ValueError):
        smoke_lite_ladder(unit_params, cubic_model, rungs=0)


def test_ladder_injection_breaks_monotonicity(unit_params, cubic_model,
                                              monkeypatch):
    # A real ladder's distances shrink, so growing ones stand in for the
    # computed distances and the verdict itself is exercised.
    distances = iter((1.0, 2.0))
    monkeypatch.setattr(harness, "_trajectory_difference",
                        lambda a, b: next(distances))
    report = smoke_lite_ladder(unit_params, cubic_model, rungs=3)
    np.testing.assert_array_equal(report.differences, [1.0, 2.0])
    assert not report.monotone


def test_ladder_is_insensitive_at_equilibrium(unit_params, cubic_model):
    grid = Grid(16)
    report = regularization_ladder(
        None, StepConfig(dt=1e-3), unit_params, cubic_model, grid,
        t_end=0.02, initial_state=equilibrium_state(grid))
    assert np.all(report.differences <= 1e-8)
    assert report.monitor_variation["entropy"] <= 1e-8
    assert report.monitor_variation["l4"] <= 1e-8


def test_sweep_visits_cells_in_sorted_order():
    seen = []

    def record(overrides):
        seen.append((overrides["a"], overrides["b"]))
        return sum(overrides.values())

    report = sweep({"b": [3, 4], "a": [1, 2]}, record)
    assert seen == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert all(c.status == "ok" for c in report.cells)
    assert [c.payload for c in report.cells] == [4, 5, 5, 6]
    assert report.failures == ()


def test_sweep_isolates_library_failures():
    def run_cell(overrides):
        if overrides["a"] == 2:
            raise ConfigError("cell is out of range")
        return overrides["a"]

    report = sweep({"a": [1, 2, 3]}, run_cell)
    statuses = [c.status for c in report.cells]
    assert statuses == ["ok", "ConfigError", "ok"]
    assert report.cells[1].detail == "cell is out of range"
    assert report.cells[1].payload is None
    assert len(report.failures) == 1


def test_sweep_propagates_foreign_errors():
    def run_cell(overrides):
        raise ValueError("not a library error")

    with pytest.raises(ValueError):
        sweep({"a": [1]}, run_cell)
