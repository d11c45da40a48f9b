"""Manufactured solutions, the regularization ladder, and parameter sweeps."""
from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from poromoist import harness
from poromoist.discretization import Grid, robin_fluxes
from poromoist.errors import ConfigError
from poromoist.harness import (MMSCase, make_default_mms_case, mms_study,
                               regularization_ladder, sweep)
from poromoist.model import conductivity, saturation_pressure
from poromoist.stepper import State, StepConfig
from tests.conftest import equilibrium_state, make_params, make_setup
from tests.oracles import TermForcing, sequential_trajectory_difference


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
        np.testing.assert_allclose(case.forcing(x, t).rho_source, s_rho,
                                   rtol=2e-4, atol=2e-6)

        def heat_flux(xv, tv=t):
            kappa = p.kappa1 + p.kappa2 * rho(xv, tv) ** 2
            return kappa * deriv(lambda z: theta(z, tv), xv)

        s_cons = (deriv(lambda tz: pressure(x, tz) + p.sigma * theta(x, tz), t)
                  - deriv(lambda z: mass_flux(z) * theta(z, t), x)
                  - deriv(lambda z: heat_flux(z), x)
                  - p.lam * gamma)
        s_theta = s_cons - theta(x, t) * s_rho
        np.testing.assert_allclose(case.forcing(x, t).theta_source, s_theta,
                                   rtol=2e-4, atol=2e-6)


def test_manufactured_boundary_corrections(default_case, unit_params,
                                           cubic_model):
    case = default_case
    p = unit_params
    rho, theta = case.exact_rho, case.exact_theta
    x = Grid(8).centers
    for t in (0.02, 0.4):
        def pressure(z, tv=t):
            return rho(z, tv) * theta(z, tv)

        flux0 = deriv(pressure, 0.0) * rho(0.0, t)
        flux1 = deriv(pressure, 1.0) * rho(1.0, t)
        g0 = flux0 - p.alpha0 * (rho(0.0, t) - p.rho_bar0)
        g1 = flux1 - p.alpha1 * (p.rho_bar1 - rho(1.0, t))
        assert case.forcing(x, t).rho_flux == pytest.approx((g0, g1), rel=1e-5)

        kappa0 = p.kappa1 + p.kappa2 * rho(0.0, t) ** 2
        kappa1v = p.kappa1 + p.kappa2 * rho(1.0, t) ** 2
        cond0 = kappa0 * deriv(lambda z: theta(z, t), 0.0)
        cond1 = kappa1v * deriv(lambda z: theta(z, t), 1.0)
        h0 = cond0 - p.beta0 * (theta(0.0, t) - p.theta_bar0)
        h1 = cond1 - p.beta1 * (p.theta_bar1 - theta(1.0, t))
        assert case.forcing(x, t).theta_flux == pytest.approx((h0, h1), rel=1e-5)


def forcing_as_four_calls(params, model):
    """The default case's four forcing terms, each evaluating the exact fields itself.

    This is the closed form term for term, called one term at a time:
    solution on the cells once per source, and at each wall once per
    correction, with rho and theta at the walls on top of that.
    """
    pi = np.pi

    def rho(x, t):
        return 2.0 + np.cos(pi * x) * np.exp(-t)

    def theta(x, t):
        return 1.0 + 0.5 * np.sin(pi * x) * np.exp(-t)

    def solution(x, t):
        c, s, e = np.cos(pi * x), np.sin(pi * x), np.exp(-t)
        r, r_x, th, th_x = 2.0 + c * e, -pi * s * e, 1.0 + 0.5 * s * e, 0.5 * pi * c * e
        r_xx, th_xx = -pi * pi * c * e, -0.5 * pi * pi * s * e
        return dict(r=r, r_t=-c * e, r_x=r_x, th=th, th_t=-0.5 * s * e, th_x=th_x,
                    th_xx=th_xx, p_x=r_x * th + r * th_x,
                    p_xx=r_xx * th + 2.0 * r_x * th_x + r * th_xx)

    def vapor_source(f):
        gamma = f["r"] * np.sqrt(f["th"]) - saturation_pressure(model, f["th"])
        return f["r_t"] - (f["p_xx"] * f["r"] + f["p_x"] * f["r_x"]) + gamma, gamma

    def rho_source(x, t):
        return vapor_source(solution(x, t))[0]

    def theta_source(x, t):
        f = solution(x, t)
        source, gamma = vapor_source(f)
        r, th = f["r"], f["th"]
        kappa = conductivity(r, params)
        conservative = (f["r_t"] * th + r * f["th_t"] + params.sigma * f["th_t"]
                        - (f["p_xx"] * r * th + f["p_x"] * f["p_x"])
                        - (2.0 * params.kappa2 * r * f["r_x"] * f["th_x"]
                           + kappa * f["th_xx"])
                        - params.lam * gamma)
        return conservative - th * source

    def mass_flux(xv, t):
        f = solution(xv, t)
        return float(f["r"] * f["p_x"])

    def cond_flux(xv, t):
        f = solution(xv, t)
        return float(conductivity(f["r"], params) * f["th_x"])

    def rho_flux(t):
        f0, f1 = robin_fluxes(float(rho(0.0, t)), float(rho(1.0, t)),
                              params.alpha0, params.alpha1,
                              params.rho_bar0, params.rho_bar1)
        return mass_flux(0.0, t) - f0, mass_flux(1.0, t) - f1

    def theta_flux(t):
        g0, g1 = robin_fluxes(float(theta(0.0, t)), float(theta(1.0, t)),
                              params.beta0, params.beta1,
                              params.theta_bar0, params.theta_bar1)
        return cond_flux(0.0, t) - g0, cond_flux(1.0, t) - g1

    return TermForcing(rho_source, theta_source, rho_flux, theta_flux)


@pytest.mark.parametrize("n", [16, 32, 128])
def test_forcing_at_equals_the_four_calls_to_the_byte(n, unit_params, cubic_model):
    # The case's forcing shares one evaluation of the exact fields between the
    # terms; every value keeps the bits of the four terms evaluated one at a
    # time, on unit physics and on lopsided constants and ambients.
    x = Grid(n).centers
    lopsided = make_params(sigma=0.5, lam=3.0, kappa1=0.7, kappa2=1.9, alpha0=2.5,
                           alpha1=0.3, beta0=0.9, beta1=4.0, rho_bar0=0.6,
                           rho_bar1=1.4, theta_bar0=1.2, theta_bar1=0.8)
    for params in (unit_params, lopsided):
        case = make_default_mms_case(params, cubic_model)
        reference = forcing_as_four_calls(params, cubic_model)
        for t in (0.0, 0.0125, 0.07, 0.1, 1.0 / 3.0):
            got, expected = case.forcing(x, t), reference(x, t)
            for name in ("rho_source", "theta_source", "rho_flux", "theta_flux"):
                want = np.asarray(getattr(expected, name)).tobytes()
                assert np.asarray(getattr(got, name)).tobytes() == want, (name, t)


def constant_case(rho_value, theta_value, params, model):
    """Space-time constant manufactured pair; an exact discrete solution."""
    gamma = rho_value * np.sqrt(theta_value) - saturation_pressure(
        model, theta_value)
    s_rho = gamma
    s_theta = -params.lam * gamma - theta_value * s_rho

    def const(value):
        return lambda x, t: np.full_like(np.asarray(x, dtype=float), value)

    forcing = TermForcing(
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


def test_mms_takes_numpy_grid_sizes(unit_params, cubic_model):
    # numpy integers are cell counts: each level's Grid stores a Python int
    case = constant_case(2.0, 1.5, unit_params, cubic_model)
    kwargs = dict(t_end=0.05, steps_coarse=5)
    listed = mms_study(case, unit_params, cubic_model, grid_sizes=[8, 16], **kwargs)
    report = mms_study(case, unit_params, cubic_model, grid_sizes=np.array([8, 16]),
                       **kwargs)
    assert report.grid_sizes == listed.grid_sizes == (8, 16)
    assert report.dts == listed.dts
    np.testing.assert_array_equal(report.rho_errors, listed.rho_errors)
    np.testing.assert_array_equal(report.theta_errors, listed.theta_errors)


def test_central_orders_second_accurate(default_case, unit_params,
                                        cubic_model):
    report = mms_study(default_case, unit_params, cubic_model,
                       grid_sizes=(16, 32, 64), advection="central")
    assert report.rho_orders[-1] > 1.9
    assert report.theta_orders[-1] > 1.85
    assert report.dts[1] == report.dts[0] / 4.0
    assert report.order_floor == 1.9
    assert report.passed == (report.theta_orders[-1] >= 1.9)


def test_upwind_orders_first_accurate(default_case, unit_params, cubic_model):
    report = mms_study(default_case, unit_params, cubic_model,
                       grid_sizes=(16, 32, 64), steps_coarse=20,
                       advection="upwind")
    assert report.rho_orders[-1] > 0.95
    assert report.theta_orders[-1] > 0.85
    assert report.dts[1] == report.dts[0] / 2.0
    assert report.order_floor == 0.9
    assert report.passed == (report.theta_orders[-1] >= 0.9)


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
    data = State(1.0 + np.exp(-((grid.centers - 0.5) / 0.15) ** 2), np.ones(grid.n), 0.0)
    return regularization_ladder(make_setup(params, model, grid, data), t_end=0.1,
                                 **kwargs)


def test_ladder_decreases_and_monitors_settle(unit_params, cubic_model):
    report = smoke_lite_ladder(unit_params, cubic_model)
    assert report.eps_values == (0.1, 0.05, 0.025, 0.0125)
    assert report.nu_values == (0.05, 0.025, 0.0125, 0.00625)
    assert report.differences.shape == (3,)
    assert report.monotone
    assert report.monitor_variation["entropy"] <= 0.1
    assert report.monitor_variation["l4"] <= 0.1
    assert report.variation_cap == 0.1
    assert report.passed


def no_ladder_march(*args, **kwargs):
    raise AssertionError("regularization_ladder marched before checking rungs")


def test_ladder_single_rung_vacuous(unit_params, cubic_model, monkeypatch):
    # fewer than two distances would make the monotone verdict vacuous
    monkeypatch.setattr(harness, "march", no_ladder_march)
    for rungs in (1, 2):
        with pytest.raises(ConfigError, match=f"rungs must be at least 3, got {rungs}"):
            smoke_lite_ladder(unit_params, cubic_model, rungs=rungs)


def test_ladder_rejects_empty(unit_params, cubic_model, monkeypatch):
    monkeypatch.setattr(harness, "march", no_ladder_march)
    with pytest.raises(ConfigError, match="rungs"):
        smoke_lite_ladder(unit_params, cubic_model, rungs=0)


def test_rungs_and_levels_check_eps_against_the_ambients(default_case, cubic_model,
                                                         monkeypatch):
    # Each ladder rung and each MMS level is one Setup, whose eps meets the
    # ambients before any march: the ladder's first rung (eps0 = 0.1) and an
    # MMS level at eps = 0.5 exceed a smallest ambient of 0.04.  The ladder
    # marches its rungs as a group, and MMS levels one run at a time.
    monkeypatch.setattr(harness, "march", no_ladder_march)
    monkeypatch.setattr(harness, "run", no_ladder_march)
    params = make_params(theta_bar1=0.04)
    clip = r"exceeds min\(ambient values, 1\) = 0\.04; the cutoff would clip ambient data"
    with pytest.raises(ConfigError, match=r"^eps=0\.1 " + clip):
        smoke_lite_ladder(params, cubic_model)
    with pytest.raises(ConfigError, match=r"^eps=0\.5 " + clip):
        mms_study(default_case, params, cubic_model, eps=0.5, nu=0.25)


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
    assert not report.passed


def test_trajectory_difference_equals_the_level_loop_to_the_bit(unit_params, cubic_model,
                                                                monkeypatch):
    # The rungs of a real ladder, and random trajectories on grids whose
    # rows numpy sums unrolled (7, 64 cells) and pairwise in blocks (1000).
    pairs = []
    difference = harness._trajectory_difference

    def recording(a, b):
        pairs.append((a, b))
        return difference(a, b)

    monkeypatch.setattr(harness, "_trajectory_difference", recording)
    smoke_lite_ladder(unit_params, cubic_model)
    rng = np.random.default_rng(3)
    for n in (7, 64, 1000):
        setup = SimpleNamespace(grid=Grid(n), step=StepConfig(dt=1e-3))
        a, b = (SimpleNamespace(setup=setup, t=np.arange(31),
                                rho=rng.uniform(0.5, 2.0, (31, n)),
                                theta=rng.uniform(0.5, 2.0, (31, n))) for _ in range(2))
        pairs.append((a, b))
    assert len(pairs) == 6
    for a, b in pairs:
        assert difference(a, b).hex() == sequential_trajectory_difference(a, b).hex()


def test_ladder_is_insensitive_at_equilibrium(unit_params, cubic_model, monkeypatch):
    # Every rung starts at the equilibrium, whatever its mollifier radius.
    monkeypatch.setattr(harness, "mollified_initial_data",
                        lambda setup: equilibrium_state(setup.grid))
    report = regularization_ladder(make_setup(unit_params, cubic_model, Grid(16)),
                                   t_end=0.02)
    assert np.all(report.differences <= 1e-8)
    assert report.monitor_variation["entropy"] <= 1e-8
    assert report.monitor_variation["l4"] <= 1e-8


@pytest.fixture()
def tiny_smoke(smoke_config):
    """The smoke problem at n=16 to t=0.02, a two-step run."""
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 16
    data["physical"]["t_end"] = 0.02
    data["output"]["cadence"] = 0.02
    return data


def test_sweep_visits_cells_in_sorted_order(tiny_smoke, monkeypatch):
    seen, real_build = [], harness.build_setup

    def record(data):
        seen.append((data["physical"]["lambda"], data["physical"]["sigma"]))
        return real_build(data)

    monkeypatch.setattr(harness, "build_setup", record)
    report = sweep(tiny_smoke, {"physical.sigma": [3.0, 4.0], "physical.lambda": [1.0, 2.0]})
    assert seen == [(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)]
    assert [c.overrides for c in report.cells] == [
        {"physical.lambda": lam, "physical.sigma": sigma} for lam, sigma in seen]
    assert all(c.status == "ok" and c.certified for c in report.cells)
    assert all(c.certification.passed for c in report.cells)
    assert report.failures == ()
    assert report.passed
    assert report.axes == {"physical.sigma": [3.0, 4.0], "physical.lambda": [1.0, 2.0]}


def test_sweep_isolates_library_failures(tiny_smoke):
    report = sweep(tiny_smoke, {"regularization.eps": [0.01, 2.0, 0.02]})
    statuses = [c.status for c in report.cells]
    assert statuses == ["ok", "ValidationError", "ok"]
    assert "regularization" in report.cells[1].detail
    assert report.cells[1].certification is None
    assert not report.cells[1].certified
    assert report.cells[0].certified and report.cells[2].certified
    assert len(report.failures) == 1
    assert not report.passed


def test_sweep_propagates_foreign_errors(tiny_smoke, monkeypatch):
    def foreign(*args, **kwargs):
        raise ValueError("not a library error")

    monkeypatch.setattr(harness, "march", foreign)
    with pytest.raises(ValueError):
        sweep(tiny_smoke, {"physical.lambda": [1.0]})


def test_verdict_constants():
    # The acceptance floors of the MMS orders and the ladder's monitor cap.
    assert harness.MMS_ORDER_FLOOR == {"central": 1.9, "upwind": 0.9}
    assert harness.LADDER_VARIATION_CAP == 0.10
