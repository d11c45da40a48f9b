"""Semi-implicit stepper: row-level oracles, fixed points, homotopy rescue."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from poromoist import stepper
from poromoist.config import apply_override, build_setup
from poromoist.diagnostics import certify_run

from poromoist.discretization import Grid, mollify
from poromoist.harness import make_default_mms_case
from poromoist.errors import (ConfigError, DimensionMismatch,
                              DominanceViolation, NonfiniteIterate,
                              PicardDivergence)
from poromoist.linalg import solve_thomas
from poromoist.model import (InitialData, PowerLawSaturation, conductivity,
                             saturation_pressure)
from poromoist.stepper import (Forcing, RegularizationParams, State,
                               StepConfig, assemble_rho_system,
                               assemble_theta_system,
                               compute_flux_coefficients, homotopy_solve,
                               mollified_initial_data, picard_step, run)
from tests.conftest import equilibrium_state, make_params
from tests.oracles import dense, dense_solve
from tests.test_discretization import mirror_smooth


def cell_slopes(values: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(values)
    g[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    g[0] = (values[1] - values[0]) / h
    g[-1] = (values[-1] - values[-2]) / h
    return g


def reference_dense_systems(prev, rho_it, theta_it, s, reg, params, model,
                            grid, dt, scheme, forcing):
    """Scalar-loop re-derivation of both linear systems for one sweep.

    Mirrors the discrete equations cell by cell: backward-Euler time term,
    flux differences with donor weighting, extrapolated Robin closures,
    lagged reaction terms.  Returns dense matrices and right sides.
    """
    n, h = grid.n, grid.h
    t_new = prev.t + dt

    dcell = mirror_smooth(rho_it * theta_it, reg.nu, h)
    rho_sm = mirror_smooth(rho_it, reg.eps, h)
    vcell = mirror_smooth(rho_sm * cell_slopes(theta_it, h), reg.eps, h)
    level = 1.0 / reg.eps
    chi_s = np.minimum(np.sqrt(np.clip(theta_it, 0.0, None)), level)
    ps_it = saturation_pressure(model, theta_it)
    chi_p = np.minimum(ps_it, level)

    def donor(speed):
        if scheme == "central":
            return 0.5, 0.5
        if speed > 0:
            return 0.0, 1.0
        if speed < 0:
            return 1.0, 0.0
        return 0.5, 0.5

    # interior face k sits between cells k-1 and k, k = 1..n-1
    fA = np.zeros(n + 1)
    fB = np.zeros(n + 1)
    for k in range(1, n):
        dface = reg.eps + 0.5 * (dcell[k - 1] + dcell[k])
        vface = 0.5 * (vcell[k - 1] + vcell[k])
        wm, wp = donor(vface)
        fA[k] = -dface / h + vface * wm
        fB[k] = dface / h + vface * wp

    g0, g1 = forcing.rho_flux(t_new) if forcing else (0.0, 0.0)
    M = np.zeros((n, n))
    b = np.zeros(n)
    for j in range(n):
        M[j, j] += 1.0 / dt + s * chi_s[j]
        b[j] += prev.rho[j] / dt + s * chi_p[j]
        if forcing is not None and forcing.rho_source is not None:
            b[j] += forcing.rho_source(grid.centers[j], t_new)
        if j < n - 1:                       # minus outgoing face j+1
            M[j, j] -= fA[j + 1] / h
            M[j, j + 1] -= fB[j + 1] / h
        if j > 0:                           # plus incoming face j
            M[j, j - 1] += fA[j] / h
            M[j, j] += fB[j] / h
    # Robin closures at extrapolated traces 1.5 v0 - 0.5 v1
    M[0, 0] += 1.5 * params.alpha0 / h
    M[0, 1] -= 0.5 * params.alpha0 / h
    b[0] += (params.alpha0 * s * params.rho_bar0 - g0) / h
    M[-1, -1] += 1.5 * params.alpha1 / h
    M[-1, -2] -= 0.5 * params.alpha1 / h
    b[-1] += (params.alpha1 * s * params.rho_bar1 + g1) / h

    rho_new = np.linalg.solve(M, b)

    # face mass flux at the fresh vapor field
    F = np.zeros(n + 1)
    for k in range(1, n):
        F[k] = fA[k] * rho_new[k - 1] + fB[k] * rho_new[k]
    tr_l = 1.5 * rho_new[0] - 0.5 * rho_new[1]
    tr_r = 1.5 * rho_new[-1] - 0.5 * rho_new[-2]
    F[0] = params.alpha0 * (tr_l - s * params.rho_bar0) + g0
    F[-1] = params.alpha1 * (s * params.rho_bar1 - tr_r) + g1

    kcell = params.kappa1 + params.kappa2 * mirror_smooth(rho_new, reg.eps, h) ** 2
    gt0, gt1 = forcing.theta_flux(t_new) if forcing else (0.0, 0.0)
    T = np.zeros((n, n))
    c = np.zeros(n)
    for j in range(n):
        T[j, j] += (rho_new[j] + params.sigma) / dt - s * rho_new[j] * chi_s[j]
        c[j] += ((rho_new[j] + params.sigma) * prev.theta[j] / dt
                 + s * params.lam * rho_new[j] * chi_s[j]
                 - s * (params.lam + theta_it[j]) * ps_it[j])
        if forcing is not None and forcing.theta_source is not None:
            c[j] += forcing.theta_source(grid.centers[j], t_new)
        if j < n - 1:
            kf = 0.5 * (kcell[j] + kcell[j + 1])
            um, up = donor(F[j + 1])
            T[j, j] += kf / h**2 + F[j + 1] * up / h
            T[j, j + 1] += -kf / h**2 - F[j + 1] * up / h
        if j > 0:
            kf = 0.5 * (kcell[j - 1] + kcell[j])
            um, up = donor(F[j])
            T[j, j] += kf / h**2 - F[j] * um / h
            T[j, j - 1] += -kf / h**2 + F[j] * um / h
    # conductive Robin closure plus the advected trace at the wall faces
    T[0, 0] += 1.5 * params.beta0 / h + 0.5 * F[0] / h
    T[0, 1] += -0.5 * params.beta0 / h - 0.5 * F[0] / h
    c[0] += (params.beta0 * s * params.theta_bar0 - gt0) / h
    T[-1, -1] += 1.5 * params.beta1 / h - 0.5 * F[-1] / h
    T[-1, -2] += -0.5 * params.beta1 / h + 0.5 * F[-1] / h
    c[-1] += (params.beta1 * s * params.theta_bar1 + gt1) / h

    return M, b, rho_new, F, T, c


@pytest.fixture()
def crooked_case(cubic_model):
    """Deliberately lopsided n=4 snapshot with active smoothing radii."""
    grid = Grid(4)
    params = make_params(sigma=0.7, lam=2.0, kappa2=0.4, alpha0=1.3,
                         alpha1=0.8, beta0=0.6, beta1=1.1, rho_bar0=0.9,
                         rho_bar1=1.2, theta_bar0=1.05, theta_bar1=0.95)
    prev = State(np.array([1.0, 1.4, 0.8, 1.2]), np.array([1.1, 0.9, 1.3, 1.0]), 0.0)
    rho_it = np.array([1.2, 1.0, 0.9, 1.1])
    theta_it = np.array([1.0, 1.2, 0.8, 1.05])
    reg = RegularizationParams(eps=0.3, nu=0.26, s=1.0)
    forcing = Forcing(
        rho_source=lambda x, t: 0.3 + x + 0.1 * t,
        theta_source=lambda x, t: 0.2 - 0.5 * x,
        rho_flux=lambda t: (0.02, -0.03),
        theta_flux=lambda t: (0.01, 0.04),
    )
    return grid, params, cubic_model, prev, rho_it, theta_it, reg, forcing


@pytest.mark.parametrize("scheme", ["upwind", "central"])
@pytest.mark.parametrize("s", [1.0, 0.6, 0.0])
def test_assembled_rows_match_reference(crooked_case, scheme, s):
    grid, params, model, prev, rho_it, theta_it, reg, forcing = crooked_case
    dt = 0.05
    M, b, rho_ref, F_ref, T, c = reference_dense_systems(
        prev, rho_it, theta_it, s, reg, params, model, grid, dt, scheme,
        forcing)

    values = forcing.at(grid.centers, prev.t + dt)
    system, coeffs = assemble_rho_system(
        prev, rho_it, theta_it, s, reg, params, model, grid, dt,
        scheme=scheme, forcing=values)
    np.testing.assert_allclose(dense(system), M, rtol=0, atol=1e-12)
    np.testing.assert_allclose(system.rhs, b, rtol=0, atol=1e-12)

    rho_new = solve_thomas(system)
    np.testing.assert_allclose(rho_new, rho_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rho_new, dense_solve(dense(system), system.rhs),
                               rtol=0, atol=1e-12)

    theta_sys, mass_flux = assemble_theta_system(
        prev, rho_new, theta_it, s, reg, params, model, grid, dt, coeffs,
        scheme=scheme, forcing=values)
    np.testing.assert_allclose(mass_flux, F_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dense(theta_sys), T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(theta_sys.rhs, c, rtol=0, atol=1e-12)


def test_regularization_params_validation(unit_params):
    with pytest.raises(ConfigError):
        RegularizationParams(eps=0.01, nu=0.02)
    with pytest.raises(ConfigError):
        RegularizationParams(eps=1.5, nu=0.1)
    with pytest.raises(ConfigError):
        RegularizationParams(eps=0.01, nu=0.005, s=-0.1)
    with pytest.raises(ConfigError):
        RegularizationParams(eps=0.01, nu=0.005, s=1.2)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    reg.validate_against(unit_params)
    with pytest.raises(ConfigError):
        reg.validate_against(make_params(rho_bar0=0.005))


def test_step_config_validation():
    for kwargs in (dict(dt=0.0), dict(dt=1e-3, picard_tol=0.0),
                   dict(dt=1e-3, max_picard=0),
                   dict(dt=1e-3, s_ramp_steps=0),
                   dict(dt=1e-3, advection="quick")):
        with pytest.raises(ConfigError):
            StepConfig(**kwargs)


def test_state_validation():
    with pytest.raises(ConfigError):
        State(np.array([1.0, -0.1, 1.0, 1.0]), np.ones(4), 0.0)
    with pytest.raises(ConfigError):
        State(np.ones(4), np.array([1.0, 0.0, 1.0, 1.0]), 0.0)
    with pytest.raises(ConfigError):
        State(np.ones(4), np.ones(8), 0.0)


def test_state_values_checked():
    with pytest.raises(DimensionMismatch):
        State(np.ones((2, 2)), np.ones((2, 2)), 0.0)
    with pytest.raises(ConfigError):
        State(np.array([1.0, np.inf, 1.0, 1.0]), np.ones(4), 0.0)
    with pytest.raises(ConfigError):
        State(np.ones(4), np.array([1.0, np.nan, 1.0, 1.0]), 0.0)
    state = State([1, 2, 3, 4], [1, 1, 1, 1], 0.0)
    assert state.rho.dtype == float and state.theta.dtype == float


def test_mollified_initial_data_lift():
    grid = Grid(16)
    data = InitialData(np.linspace(1.0, 2.0, 16), np.full(16, 1.5),
                       theta_floor=0.5)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    # radius below the cell width: smoothing is the identity, only the lift acts
    state = mollified_initial_data(data, reg, grid)
    np.testing.assert_array_equal(state.rho, data.rho0 + 0.01)
    np.testing.assert_array_equal(state.theta, data.theta0)
    assert state.t == 0.0
    with pytest.raises(ConfigError):
        mollified_initial_data(data, reg, Grid(8))


def test_equilibrium_is_picard_fixed_point(unit_params, cubic_model):
    grid = Grid(16)
    cfg = StepConfig(dt=0.01)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    state = equilibrium_state(grid)
    new, report, rec = picard_step(state, cfg, reg, unit_params, cubic_model,
                                   grid)
    assert report.converged and report.iterations == 1
    assert report.s_path == (1.0,)
    np.testing.assert_allclose(new.rho, 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(new.theta, 1.0, rtol=0, atol=1e-14)
    assert new.t == pytest.approx(0.01)
    assert rec.mass_flux.shape == (grid.n + 1,)
    np.testing.assert_allclose(rec.mass_flux, 0.0, atol=1e-14)


STIFF_N = 16
STIFF_LAM = 34.0


def stiff_setup():
    grid = Grid(STIFF_N)
    params = make_params(lam=STIFF_LAM)
    state = State(np.ones(STIFF_N), np.full(STIFF_N, 1.3), 0.0)
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    return grid, params, state, reg


def test_stiff_step_exceeds_direct_budget(cubic_model):
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01)
    with pytest.raises(PicardDivergence) as exc:
        picard_step(state, cfg, reg, params, cubic_model, grid)
    report = exc.value.report
    assert not report.converged
    assert report.iterations == cfg.max_picard
    assert report.s_path == (1.0,)

    # the same sweep loop does converge, just beyond the default budget
    roomy = StepConfig(dt=0.01, max_picard=500)
    _, report, _ = picard_step(state, roomy, reg, params, cubic_model, grid)
    assert report.converged
    assert 50 < report.iterations <= 60


def test_homotopy_rescues_stiff_step(cubic_model):
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01)
    new, report, rec = homotopy_solve(state, cfg, reg, params, cubic_model,
                                      grid)
    assert report.converged
    assert report.s_path == (1.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75,
                             0.875, 1.0)
    assert cfg.max_picard < report.iterations <= 9 * cfg.max_picard
    assert np.all(new.rho > 0) and np.all(new.theta > 0)
    assert rec.s == 1.0


def test_homotopy_failure_bookkeeping(cubic_model):
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01, max_picard=1)
    with pytest.raises(PicardDivergence) as exc:
        homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    report = exc.value.report
    assert not report.converged
    assert len(report.s_path) == cfg.s_ramp_steps + 1
    assert report.s_path[0] == 1.0 and report.s_path[-1] == 1.0
    assert report.iterations == cfg.s_ramp_steps + 1
    assert report.final_update > 0


def test_failed_ramp_stage_is_counted_and_skipped(monkeypatch, cubic_model):
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01)
    real_assemble = stepper.assemble_theta_system

    def nonfinite_at_half(prev, rho_new, theta_iter, s, *args, **kwargs):
        if s == 0.5:
            raise NonfiniteIterate("injected at s=0.5")
        return real_assemble(prev, rho_new, theta_iter, s, *args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_theta_system", nonfinite_at_half)
    new, report, rec = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    # the s=0.5 stage spends one sweep; s=0.625 warm-starts from s=0.375
    assert report.converged
    assert report.s_path == (1.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75,
                             0.875, 1.0)
    assert report.iterations == 226
    assert rec.s == 1.0
    assert np.all(new.rho > 0) and np.all(new.theta > 0)


def test_dominance_loss_in_direct_attempt_goes_to_ramp(monkeypatch, cubic_model):
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01)
    plain_new, plain, _ = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    real_assemble = stepper.assemble_rho_system
    calls = []

    def first_sweep_loses_dominance(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise DominanceViolation("vapor", 0, -1.0)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_rho_system", first_sweep_loses_dominance)
    new, report, _ = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    # one sweep of the direct attempt, then the same ramp as the plain step
    assert report.s_path == plain.s_path and len(report.s_path) == 9
    assert report.iterations == plain.iterations - cfg.max_picard + 1
    np.testing.assert_array_equal(new.rho, plain_new.rho)
    np.testing.assert_array_equal(new.theta, plain_new.theta)


def test_strong_drift_loses_dominance(unit_params, cubic_model):
    grid = Grid(16)
    prev = equilibrium_state(grid)
    theta_it = 1.0 + 5.0 * grid.centers
    rho_it = np.full(grid.n, 3.0)
    reg = RegularizationParams(eps=0.5, nu=0.25)
    with pytest.raises(DominanceViolation, match="vapor"):
        assemble_rho_system(prev, rho_it, theta_it, 1.0, reg, unit_params,
                            cubic_model, grid, dt=0.05)


def smooth_case():
    """A relaxing vapor bump on n=32 at dt=1e-3, with a 20-step horizon."""
    grid = Grid(32)
    cfg = StepConfig(dt=1e-3)
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    data = InitialData(1.0 + np.exp(-((grid.centers - 0.5) / 0.15) ** 2),
                       np.ones(grid.n), theta_floor=0.5)
    return grid, cfg, reg, data, 0.02


def test_run_is_deterministic(unit_params, cubic_model):
    grid, cfg, reg, data, _ = smooth_case()
    first = run(data, cfg, reg, unit_params, cubic_model, grid, t_end=0.05)
    second = run(data, cfg, reg, unit_params, cubic_model, grid, t_end=0.05)
    assert first.rho.shape == first.theta.shape == (51, grid.n)
    assert first.t.shape == (51,)
    assert all(column.shape == (51,) for column in first.series.values())
    np.testing.assert_array_equal(first.rho, second.rho)
    np.testing.assert_array_equal(first.theta, second.theta)
    np.testing.assert_array_equal(first.t, second.t)
    assert first.series.keys() == second.series.keys()
    for name, column in first.series.items():
        np.testing.assert_array_equal(column, second.series[name])


def test_predicted_start_saves_sweeps(unit_params, cubic_model):
    grid, cfg, reg, data, t_end = smooth_case()
    result = run(data, cfg, reg, unit_params, cubic_model, grid, t_end=t_end)
    predicted = plain = 0
    # from step 3 on the start extrapolates at least three accepted states
    for k in range(3, len(result.t)):
        prev = State(result.rho[k - 1], result.theta[k - 1], result.t[k - 1])
        new, report, _ = homotopy_solve(prev, cfg, reg, unit_params,
                                        cubic_model, grid)
        predicted += result.series["picard_iterations"][k]
        plain += report.iterations
        for got, ref in ((result.rho[k], new.rho), (result.theta[k], new.theta)):
            gap = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            assert np.max(gap) <= 10 * cfg.picard_tol
    assert predicted < plain


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6])
def test_predicted_start_is_exact_on_polynomials(rows):
    # Dyadic coefficients keep every sum exact; the nonnegative ones make
    # each history increase, so the clamp stays out of the way.
    rng = np.random.default_rng(rows)
    degree = min(rows - 1, 4)
    steps = np.arange(rows + 1, dtype=float)[:, None]

    def history(cells):
        coeffs = rng.integers(1, 9, (degree + 1, cells)) / 8.0
        coeffs[0] += 100.0
        return sum(c * steps**j for j, c in enumerate(coeffs))

    rho, theta = history(3), history(4)
    guess = stepper._predicted_start(rho[:-1], theta[:-1])
    for got, ref in zip(guess, (rho[-1], theta[-1])):
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6])
def test_predicted_start_clamps_a_steep_drop(rows):
    history = np.ones((rows, 3))
    history[-1] = [0.1, 0.01, 1e-8]
    rho, theta = stepper._predicted_start(history, 2.0 * history)
    # every weighted sum here lands below half the last row, so the guess
    # is that half
    np.testing.assert_array_equal(rho, 0.5 * history[-1])
    np.testing.assert_array_equal(theta, history[-1])


def test_most_smoke_steps_converge_on_first_sweep(smoke_result):
    sweeps = smoke_result.series["picard_iterations"][1:]
    assert len(sweeps) == 1000
    assert np.count_nonzero(sweeps == 1) >= 800


def test_dry_start_certifies_with_positive_vapor(smoke_config):
    data = apply_override(smoke_config, "initial.rho.base", 0.0)
    for path, value in (("grid.n", 50), ("physical.t_end", 0.1),
                        ("regularization.eps", 0.01)):
        data = apply_override(data, path, value)
    setup = build_setup(data)
    result = run(setup.initial, setup.step, setup.reg, setup.params,
                 setup.model, setup.grid)
    assert certify_run(result).passed
    assert np.min(result.series["min_rho"]) > 0


def test_failed_prediction_falls_back(monkeypatch, unit_params, cubic_model):
    grid, cfg, reg, data, t_end = smooth_case()
    with monkeypatch.context() as patch:
        patch.setattr(stepper, "_predicted_start", lambda rho, theta: None)
        plain = run(data, cfg, reg, unit_params, cubic_model, grid, t_end=t_end)

    wasted = 2
    real_picard_step = stepper.picard_step

    def starved_prediction(prev, cfg, *args, start=None, **kwargs):
        # A predicted attempt spends `wasted` real sweeps and cannot converge.
        if start is not None:
            cfg = replace(cfg, max_picard=wasted, picard_tol=1e-300)
        return real_picard_step(prev, cfg, *args, start=start, **kwargs)

    monkeypatch.setattr(stepper, "picard_step", starved_prediction)
    result = run(data, cfg, reg, unit_params, cubic_model, grid, t_end=t_end)
    assert certify_run(result).passed
    sweeps = result.series["picard_iterations"][1:].tolist()
    plain_sweeps = plain.series["picard_iterations"][1:].tolist()
    # the first step has no prediction; every later one wasted its attempt
    assert sweeps == [plain_sweeps[0]] + [k + wasted for k in plain_sweeps[1:]]
    np.testing.assert_array_equal(result.rho, plain.rho)
    np.testing.assert_array_equal(result.theta, plain.theta)


class CountingForcing:
    """Wraps a Forcing's four callables and counts the calls to each."""

    def __init__(self, forcing: Forcing):
        self.calls = dict.fromkeys(
            ("rho_source", "theta_source", "rho_flux", "theta_flux"), 0)

        def counted(name):
            inner = getattr(forcing, name)

            def call(*args):
                self.calls[name] += 1
                return inner(*args)
            return call

        self.forcing = Forcing(**{name: counted(name) for name in self.calls})


def test_forcing_evaluated_once_per_step(unit_params, cubic_model):
    grid = Grid(16)
    cfg = StepConfig(dt=0.01, picard_tol=1e-12)
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    case = make_default_mms_case(unit_params, cubic_model)
    x = grid.centers
    state0 = State(case.exact_rho(x, 0.0), case.exact_theta(x, 0.0), 0.0)
    counting = CountingForcing(case.forcing)
    result = run(None, cfg, reg, unit_params, cubic_model, grid, t_end=0.1,
                 forcing=counting.forcing, initial_state=state0)
    steps = len(result.t) - 1
    assert steps == 10
    assert result.series["picard_iterations"].sum() > steps
    assert counting.calls == dict.fromkeys(counting.calls, steps)

    # a ramped step, with a failed direct attempt and eight stages, evaluates once too
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01)
    zero = Forcing(rho_source=lambda x, t: np.zeros_like(x),
                   theta_source=lambda x, t: np.zeros_like(x),
                   rho_flux=lambda t: (0.0, 0.0), theta_flux=lambda t: (0.0, 0.0))
    counting = CountingForcing(zero)
    result = run(None, cfg, reg, params, cubic_model, grid, t_end=cfg.dt,
                 forcing=counting.forcing, initial_state=state)
    assert result.series["picard_iterations"][1] > cfg.max_picard
    assert counting.calls == dict.fromkeys(counting.calls, 1)


def test_zero_forcing_matches_no_forcing(unit_params, cubic_model):
    # NO_FORCING holds scalar zeros, a zero Forcing arrays of zeros; adding
    # either leaves every value's bits as they are
    grid = Grid(16)
    cfg = StepConfig(dt=0.01)
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    x = grid.centers
    state = State(2.0 + np.cos(np.pi * x), 1.0 + 0.5 * np.sin(np.pi * x), 0.0)
    zero = Forcing(rho_source=lambda x, t: np.zeros_like(x),
                   theta_source=lambda x, t: np.zeros_like(x),
                   rho_flux=lambda t: (0.0, 0.0), theta_flux=lambda t: (0.0, 0.0))
    forced = run(None, cfg, reg, unit_params, cubic_model, grid, t_end=0.1,
                 forcing=zero, initial_state=state)
    plain = run(None, cfg, reg, unit_params, cubic_model, grid, t_end=0.1,
                initial_state=state)
    np.testing.assert_array_equal(forced.rho, plain.rho)
    np.testing.assert_array_equal(forced.theta, plain.theta)
    for name, column in plain.series.items():
        np.testing.assert_array_equal(forced.series[name], column, err_msg=name)


def test_run_validates_horizon(unit_params, cubic_model):
    grid = Grid(8)
    cfg = StepConfig(dt=1e-3)
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    state = equilibrium_state(grid)
    with pytest.raises(ConfigError):
        run(None, cfg, reg, unit_params, cubic_model, grid, t_end=0.0015,
            initial_state=state)
    with pytest.raises(ConfigError, match="positive integer number of steps"):
        run(None, cfg, reg, unit_params, cubic_model, grid, t_end=1e-12,
            initial_state=state)
    with pytest.raises(ConfigError, match="positive integer number of steps"):
        run(None, cfg, reg, unit_params, cubic_model, grid, t_end=1e308,
            initial_state=state)           # t_end / dt overflows to inf
    still = run(None, cfg, reg, unit_params, cubic_model, grid, t_end=0.0,
                initial_state=state)
    assert still.rho.shape == (1, grid.n)
    assert all(column.shape == (1,) for column in still.series.values())
    np.testing.assert_array_equal(still.rho[0], state.rho)
    np.testing.assert_array_equal(still.theta[0], state.theta)
    assert still.t.tolist() == [state.t]
    assert certify_run(still).theta_envelope_ok


def test_run_rejects_initial_state_of_another_grid(unit_params, cubic_model):
    cfg = StepConfig(dt=1e-3)
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    with pytest.raises(DimensionMismatch, match="8 cells for an n=16 grid"):
        run(None, cfg, reg, unit_params, cubic_model, Grid(16), t_end=cfg.dt,
            initial_state=equilibrium_state(Grid(8)))



def donor_weights(face_speed, scheme):
    """Donor weights (left cell, right cell) as the assemblies first used them."""
    if scheme == "central":
        wp = np.full_like(face_speed, 0.5)
    else:
        wp = np.where(face_speed > 0, 1.0, np.where(face_speed < 0, 0.0, 0.5))
    return 1.0 - wp, wp


@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_donor_split_is_speed_times_weights(scheme):
    speed = np.array([2.5, -1.25, 0.0, -0.0, 5e-324, -5e-324, 1e300, -3.0])
    wm, wp = donor_weights(speed, scheme)
    left, right = stepper._donor_split(speed, scheme)
    np.testing.assert_array_equal(left, speed * wm)
    np.testing.assert_array_equal(right, speed * wp)


def face_case(kind):
    """A lopsided iterate with active radii, or the equilibrium, whose face
    speeds and mass fluxes are exactly zero.  h = 1/30 is not a power of
    two, so dividing by h and multiplying by 1/h round differently."""
    grid = Grid(30)
    params = make_params(sigma=0.7, lam=2.0, kappa2=0.4, alpha0=1.3, beta1=1.1)
    reg = RegularizationParams(eps=0.2, nu=0.1)
    if kind == "equilibrium":
        params = make_params()
        ones = np.ones(grid.n)
        return grid, params, reg, State(ones, ones, 0.0), ones, ones
    x = grid.centers
    prev = State(1.0 + 0.3 * x, 1.0 + 0.2 * np.cos(3 * x), 0.0)
    rho_it = 1.0 + 0.5 * np.exp(-((x - 0.3) / 0.1) ** 2)
    theta_it = np.where(x < 0.5, 1.0, 1.0 + np.sin(6 * (x - 0.5)) ** 2)
    return grid, params, reg, prev, rho_it, theta_it


@pytest.mark.parametrize("kind", ["lopsided", "equilibrium"])
@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_face_coefficients_bitwise_equal_to_donor_formulas(kind, scheme, cubic_model):
    grid, params, reg, prev, rho_it, theta_it = face_case(kind)
    h, dt, s = grid.h, 1e-3, 0.8

    dcell = mollify(rho_it * theta_it, reg.nu, h)
    dface = reg.eps + 0.5 * (dcell[:-1] + dcell[1:])
    vcell = mollify(mollify(rho_it, reg.eps, h) * cell_slopes(theta_it, h), reg.eps, h)
    vface = 0.5 * (vcell[:-1] + vcell[1:])
    wm, wp = donor_weights(vface, scheme)
    A = -dface / h + vface * wm
    B = dface / h + vface * wp

    rho_sys, coeffs = assemble_rho_system(prev, rho_it, theta_it, s, reg, params,
                                          cubic_model, grid, dt, scheme)
    np.testing.assert_array_equal(coeffs.A, A)
    np.testing.assert_array_equal(coeffs.B, B)
    np.testing.assert_array_equal(rho_sys.lower[:-1], A[:-1] / h)
    np.testing.assert_array_equal(rho_sys.upper[1:], -B[1:] / h)

    # the equilibrium vapor field, constant, makes every interior flux zero
    rho_new = rho_it if kind == "equilibrium" else solve_thomas(rho_sys)
    theta_sys, flux = assemble_theta_system(prev, rho_new, theta_it, s, reg, params,
                                            cubic_model, grid, dt, coeffs, scheme)
    kcell = conductivity(mollify(rho_new, reg.eps, h), params)
    kface = 0.5 * (kcell[:-1] + kcell[1:])
    fint = flux[1:-1]
    um, up = donor_weights(fint, scheme)
    diag = (rho_new + params.sigma) / dt - s * rho_new * coeffs.chi_sqrt
    diag[:-1] += kface / h**2 + fint * up / h
    diag[1:] += kface / h**2 - fint * um / h
    np.testing.assert_array_equal(theta_sys.diag[1:-1], diag[1:-1])
    np.testing.assert_array_equal(theta_sys.upper[1:], (-kface / h**2 - fint * up / h)[1:])
    np.testing.assert_array_equal(theta_sys.lower[:-1], (-kface / h**2 + fint * um / h)[:-1])

    if kind == "equilibrium":
        assert not vface.any() and not fint.any()
    else:
        assert (vface > 0).any() and (vface < 0).any() and (vface == 0).any()


class NanAtCell(PowerLawSaturation):
    """The cubic curve with a NaN saturation value at one cell."""

    def pressure(self, theta):
        out = super().pressure(theta)
        out[5] = np.nan
        return out


def test_nan_saturation_raises_nonfinite_from_assembly(unit_params):
    grid = Grid(16)
    model = NanAtCell(c=1.0, q=3.0, eta=1.0)
    state = equilibrium_state(grid)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    cfg = StepConfig(dt=0.01)
    system, coeffs = assemble_rho_system(state, state.rho, state.theta, 1.0, reg,
                                         unit_params, model, grid, cfg.dt)
    with pytest.raises(NonfiniteIterate, match="heat system row 5"):
        assemble_theta_system(state, solve_thomas(system), state.theta, 1.0, reg,
                              unit_params, model, grid, cfg.dt, coeffs)
    with pytest.raises(NonfiniteIterate, match="heat system row 5") as exc:
        picard_step(state, cfg, reg, unit_params, model, grid)
    assert exc.value.sweeps == 1
    # a failed attempt: the ramp is tried, and its first stage fails the same way
    with pytest.raises(NonfiniteIterate, match="heat system row 5"):
        homotopy_solve(state, cfg, reg, unit_params, model, grid)
