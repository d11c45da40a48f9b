"""Semi-implicit stepper: row-level oracles, fixed points, substep rescue."""
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
                               assemble_theta_system, homotopy_solve,
                               mollified_initial_data, picard_step, run)
from tests.conftest import equilibrium_state, make_params
from tests.oracles import dense, dense_solve, two_field_prediction
from tests.test_discretization import mirror_smooth


def cell_slopes(values: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(values)
    g[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    g[0] = (values[1] - values[0]) / h
    g[-1] = (values[-1] - values[-2]) / h
    return g


def reference_dense_systems(prev, rho_it, theta_it, reg, params, model,
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
        M[j, j] += 1.0 / dt + chi_s[j]
        b[j] += prev.rho[j] / dt + chi_p[j]
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
    b[0] += (params.alpha0 * params.rho_bar0 - g0) / h
    M[-1, -1] += 1.5 * params.alpha1 / h
    M[-1, -2] -= 0.5 * params.alpha1 / h
    b[-1] += (params.alpha1 * params.rho_bar1 + g1) / h

    rho_new = np.linalg.solve(M, b)

    # face mass flux at the fresh vapor field
    F = np.zeros(n + 1)
    for k in range(1, n):
        F[k] = fA[k] * rho_new[k - 1] + fB[k] * rho_new[k]
    tr_l = 1.5 * rho_new[0] - 0.5 * rho_new[1]
    tr_r = 1.5 * rho_new[-1] - 0.5 * rho_new[-2]
    F[0] = params.alpha0 * (tr_l - params.rho_bar0) + g0
    F[-1] = params.alpha1 * (params.rho_bar1 - tr_r) + g1

    kcell = params.kappa1 + params.kappa2 * mirror_smooth(rho_new, reg.eps, h) ** 2
    gt0, gt1 = forcing.theta_flux(t_new) if forcing else (0.0, 0.0)
    T = np.zeros((n, n))
    c = np.zeros(n)
    for j in range(n):
        T[j, j] += (rho_new[j] + params.sigma) / dt - rho_new[j] * chi_s[j]
        c[j] += ((rho_new[j] + params.sigma) * prev.theta[j] / dt
                 + params.lam * rho_new[j] * chi_s[j]
                 - (params.lam + theta_it[j]) * ps_it[j])
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
    c[0] += (params.beta0 * params.theta_bar0 - gt0) / h
    T[-1, -1] += 1.5 * params.beta1 / h - 0.5 * F[-1] / h
    T[-1, -2] += -0.5 * params.beta1 / h + 0.5 * F[-1] / h
    c[-1] += (params.beta1 * params.theta_bar1 + gt1) / h

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
    reg = RegularizationParams(eps=0.3, nu=0.26)
    forcing = Forcing(
        rho_source=lambda x, t: 0.3 + x + 0.1 * t,
        theta_source=lambda x, t: 0.2 - 0.5 * x,
        rho_flux=lambda t: (0.02, -0.03),
        theta_flux=lambda t: (0.01, 0.04),
    )
    return grid, params, cubic_model, prev, rho_it, theta_it, reg, forcing


@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_assembled_rows_match_reference(crooked_case, scheme):
    grid, params, model, prev, rho_it, theta_it, reg, forcing = crooked_case
    dt = 0.05
    M, b, rho_ref, F_ref, T, c = reference_dense_systems(
        prev, rho_it, theta_it, reg, params, model, grid, dt, scheme,
        forcing)

    values = forcing.at(grid.centers, prev.t + dt)
    system, coeffs = assemble_rho_system(
        prev, rho_it, theta_it, reg, params, model, grid, dt,
        scheme=scheme, forcing=values)
    np.testing.assert_allclose(dense(system), M, rtol=0, atol=1e-12)
    np.testing.assert_allclose(system.rhs, b, rtol=0, atol=1e-12)

    rho_new = solve_thomas(system)
    np.testing.assert_allclose(rho_new, rho_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rho_new, dense_solve(dense(system), system.rhs),
                               rtol=0, atol=1e-12)

    theta_sys, mass_flux = assemble_theta_system(
        prev, rho_new, theta_it, reg, params, model, grid, dt, coeffs,
        scheme=scheme, forcing=values)
    np.testing.assert_allclose(mass_flux, F_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dense(theta_sys), T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(theta_sys.rhs, c, rtol=0, atol=1e-12)


def test_assembled_systems_view_one_band(crooked_case):
    # Each system's four fields are views of its own (4, n) band, the one
    # _check_rows scanned; column i holds row i.
    grid, params, model, prev, rho_it, theta_it, reg, forcing = crooked_case
    dt = 0.05
    values = forcing.at(grid.centers, prev.t + dt)
    rho_sys, coeffs = assemble_rho_system(prev, rho_it, theta_it, reg, params, model,
                                          grid, dt, forcing=values)
    theta_sys, _ = assemble_theta_system(prev, solve_thomas(rho_sys), theta_it, reg,
                                         params, model, grid, dt, coeffs, forcing=values)
    assert rho_sys.diag.base is not theta_sys.diag.base
    for system in (rho_sys, theta_sys):
        band = system.diag.base
        assert band.shape == (4, grid.n) and system.n == grid.n
        fields = (system.lower, system.diag, system.upper, system.rhs)
        assert all(field.base is band for field in fields)
        for field, row in zip(fields, (band[0, 1:], band[1], band[2, :-1], band[3])):
            assert field.__array_interface__ == row.__array_interface__
        assert band[0, 0] == band[2, -1] == 0.0


def test_regularization_params_validation(unit_params):
    with pytest.raises(ConfigError):
        RegularizationParams(eps=0.01, nu=0.02)
    with pytest.raises(ConfigError):
        RegularizationParams(eps=1.5, nu=0.1)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    reg.validate_against(unit_params)
    with pytest.raises(ConfigError):
        reg.validate_against(make_params(rho_bar0=0.005))


def test_step_config_validation():
    for kwargs in (dict(dt=0.0), dict(dt=1e-3, picard_tol=0.0),
                   dict(dt=1e-3, max_picard=0),
                   dict(dt=1e-3, advection="quick")):
        with pytest.raises(ConfigError):
            StepConfig(**kwargs)


def run_from(state, params, model):
    """One step of dt = 1e-3 on a 4-cell grid from an explicit start state."""
    cfg = StepConfig(dt=1e-3)
    return run(None, cfg, RegularizationParams(eps=1e-2, nu=5e-3), params, model,
               Grid(4), t_end=cfg.dt, initial_state=state)


def test_state_validation(unit_params, cubic_model):
    for rho, theta, message in (
            (np.array([1.0, -0.1, 1.0, 1.0]), np.ones(4), "negative vapor density"),
            (np.ones(4), np.array([1.0, 0.0, 1.0, 1.0]), "nonpositive temperature"),
            (np.ones(4), np.ones(8), "4 cells but theta has 8")):
        with pytest.raises(ConfigError, match=message):
            run_from(State(rho, theta, 0.0), unit_params, cubic_model)


def test_state_values_checked(unit_params, cubic_model):
    with pytest.raises(DimensionMismatch, match="must be 1-D"):
        run_from(State(np.ones((2, 2)), np.ones((2, 2)), 0.0), unit_params, cubic_model)
    with pytest.raises(ConfigError, match="nonfinite"):
        run_from(State(np.array([1.0, np.inf, 1.0, 1.0]), np.ones(4), 0.0),
                 unit_params, cubic_model)
    with pytest.raises(ConfigError, match="nonfinite"):
        run_from(State(np.ones(4), np.array([1.0, np.nan, 1.0, 1.0]), 0.0),
                 unit_params, cubic_model)
    # lists of ints are taken as float arrays
    result = run_from(State([1, 2, 3, 4], [1, 1, 1, 1], 0.0), unit_params, cubic_model)
    assert result.rho[0].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert result.theta[0].tolist() == [1.0] * 4


def test_mollified_initial_data_lift():
    grid = Grid(16)
    data = InitialData(np.linspace(1.0, 2.0, 16), np.full(16, 1.5),
                       theta_floor=0.5)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    # radius below the cell width: smoothing is the identity, only the lift acts
    state = mollified_initial_data(data, reg, grid)
    np.testing.assert_array_equal(state.rho, data.rho0 + 0.01)
    np.testing.assert_array_equal(state.theta, data.theta0)
    assert not np.shares_memory(state.theta, data.theta0)
    assert not np.shares_memory(state.rho, data.rho0)
    assert state.t == 0.0
    with pytest.raises(ConfigError):
        mollified_initial_data(data, reg, Grid(8))


def test_equilibrium_is_picard_fixed_point(unit_params, cubic_model):
    grid = Grid(16)
    cfg = StepConfig(dt=0.01)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    state = equilibrium_state(grid)
    new, rec = picard_step(state, cfg, reg, unit_params, cubic_model, grid)
    assert rec.update < cfg.picard_tol and rec.sweeps == 1
    assert rec.dt == cfg.dt
    np.testing.assert_allclose(new.rho, 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(new.theta, 1.0, rtol=0, atol=1e-14)
    assert new.t == pytest.approx(0.01)
    assert rec.mass_flux.shape == (grid.n + 1,)
    np.testing.assert_allclose(rec.mass_flux, 0.0, atol=1e-14)


STIFF_N = 16
STIFF_LAM = 34.0
# The mixed sweeps converge directly on the STIFF_LAM step at dt=0.01; this
# step's direct attempt still fails, so homotopy_solve takes it in two halves.
SPLIT_LAM = 120.0
SPLIT_DT = 0.02


def stiff_setup(lam=STIFF_LAM):
    grid = Grid(STIFF_N)
    params = make_params(lam=lam)
    state = State(np.ones(STIFF_N), np.full(STIFF_N, 1.3), 0.0)
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    return grid, params, state, reg


def test_stiff_step_exceeds_direct_budget(cubic_model):
    grid, params, state, reg = stiff_setup(SPLIT_LAM)
    cfg = StepConfig(dt=SPLIT_DT)
    with pytest.raises(PicardDivergence) as exc:
        picard_step(state, cfg, reg, params, cubic_model, grid)
    record = exc.value.record
    assert record.update >= cfg.picard_tol
    assert exc.value.sweeps == record.sweeps == cfg.max_picard
    assert record.dt == SPLIT_DT

    # the same sweep loop does converge, just beyond the default budget
    roomy = StepConfig(dt=SPLIT_DT, max_picard=500)
    _, record = picard_step(state, roomy, reg, params, cubic_model, grid)
    assert record.update < roomy.picard_tol
    assert 50 < record.sweeps <= 60


def half_steps(state, cfg, reg, params, model, grid):
    """The step of cfg.dt from state as two direct steps of cfg.dt/2."""
    half = replace(cfg, dt=0.5 * cfg.dt)
    mid, first = picard_step(state, half, reg, params, model, grid)
    new, second = picard_step(mid, half, reg, params, model, grid)
    return new, (first, second)


def test_homotopy_rescues_stiff_step(cubic_model):
    grid, params, state, reg = stiff_setup(SPLIT_LAM)
    cfg = StepConfig(dt=SPLIT_DT)
    new, records = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    # the failed direct attempt's 50 sweeps, then the halves' 25 and 19
    assert [rec.dt for rec in records] == [0.01, 0.01]
    assert [rec.sweeps for rec in records] == [75, 19]
    assert all(rec.update < cfg.picard_tol for rec in records)
    halves_new, halves = half_steps(state, cfg, reg, params, cubic_model, grid)
    assert [rec.sweeps for rec in halves] == [25, 19]
    assert records[1].prev.t == 0.01 and new.t == SPLIT_DT
    np.testing.assert_array_equal(new.rho, halves_new.rho)
    np.testing.assert_array_equal(new.theta, halves_new.theta)
    assert np.all(new.rho > 0) and np.all(new.theta > 0)


def test_homotopy_failure_bookkeeping(monkeypatch, cubic_model):
    # With one sweep per attempt every attempt fails: the level and the
    # first substep at each depth 1..6 make one attempt each.
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01, max_picard=1)
    sweeps = log_sweeps(monkeypatch)
    with pytest.raises(PicardDivergence) as exc:
        homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    record = exc.value.record
    assert record.update >= cfg.picard_tol > 0
    assert record.dt == cfg.dt / 2**stepper.SPLIT_DEPTH
    assert exc.value.sweeps == len(sweeps) == stepper.SPLIT_DEPTH + 1
    assert [dt for _, dt, _, _ in sweeps] == [cfg.dt / 2**k for k in range(7)]

    # a predicted start replaces the level's start and adds no attempt
    del sweeps[:]
    with pytest.raises(PicardDivergence) as exc:
        homotopy_solve(state, cfg, reg, params, cubic_model, grid,
                       start=(state.rho, state.theta))
    assert exc.value.sweeps == len(sweeps) == stepper.SPLIT_DEPTH + 1
    assert [dt for _, dt, _, _ in sweeps] == [cfg.dt / 2**k for k in range(7)]


def test_failed_substep_is_counted_and_split(monkeypatch, cubic_model):
    grid, params, state, reg = stiff_setup(SPLIT_LAM)
    cfg = StepConfig(dt=SPLIT_DT)
    plain_new, plain = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    real_assemble = stepper.assemble_theta_system

    def nonfinite_in_second_half(prev, rho_new, theta_iter, reg, params, model, grid,
                                 dt, *args, **kwargs):
        if prev.t == 0.01 and dt == 0.01:
            raise NonfiniteIterate("injected in the second half")
        return real_assemble(prev, rho_new, theta_iter, reg, params, model, grid, dt,
                             *args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_theta_system", nonfinite_in_second_half)
    new, records = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    # the second half spends one sweep and is taken as two quarters
    assert [rec.dt for rec in records] == [0.01, 0.005, 0.005]
    assert records[0].sweeps == plain[0].sweeps == 75
    quarter = replace(cfg, dt=0.005)
    mid, first = picard_step(records[1].prev, quarter, reg, params, cubic_model, grid)
    last, second = picard_step(mid, quarter, reg, params, cubic_model, grid)
    assert [rec.sweeps for rec in records[1:]] == [first.sweeps + 1, second.sweeps]
    np.testing.assert_array_equal(new.rho, last.rho)
    np.testing.assert_array_equal(new.theta, last.theta)
    assert new.t == plain_new.t == SPLIT_DT


def test_dominance_loss_in_direct_attempt_goes_to_substeps(monkeypatch, cubic_model):
    grid, params, state, reg = stiff_setup(SPLIT_LAM)
    cfg = StepConfig(dt=SPLIT_DT)
    plain_new, plain = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    real_assemble = stepper.assemble_rho_system
    calls = []

    def first_sweep_loses_dominance(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise DominanceViolation("vapor", 0, -1.0)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_rho_system", first_sweep_loses_dominance)
    new, records = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    # one sweep of the direct attempt, then the same halves as the plain step
    assert [rec.dt for rec in records] == [rec.dt for rec in plain]
    assert [rec.sweeps for rec in records] == [plain[0].sweeps - cfg.max_picard + 1,
                                               plain[1].sweeps]
    np.testing.assert_array_equal(new.rho, plain_new.rho)
    np.testing.assert_array_equal(new.theta, plain_new.theta)


def test_level_is_one_homotopy_call(monkeypatch, cubic_model):
    # Substeps recurse in a private helper, so a traced homotopy_solve spans
    # exactly one output level, split or not.
    grid, params, state, reg = stiff_setup(SPLIT_LAM)
    cfg = StepConfig(dt=SPLIT_DT)
    real_solve, levels = stepper.homotopy_solve, []

    def counted(*args, **kwargs):
        new, records = real_solve(*args, **kwargs)
        levels.append(len(records))
        return new, records

    monkeypatch.setattr(stepper, "homotopy_solve", counted)
    result = run(None, cfg, reg, params, cubic_model, grid, t_end=2 * SPLIT_DT,
                 initial_state=state)
    assert len(levels) == 2 and levels[0] == 2
    assert result.t.tolist() == [0.0, SPLIT_DT, 2 * SPLIT_DT]
    assert result.series["picard_iterations"][1] == 94
    assert certify_run(result).passed


def log_sweeps(monkeypatch) -> list:
    """Log every sweep of the step kernel as [t, dt, input, output].

    A sweep assembles the vapor rows at its input (rho, theta) for the step
    of dt from the state at t, then solves the vapor system and the heat
    system; its output is the two solutions.
    """
    sweeps = []
    real_assemble, real_solve = stepper.assemble_rho_system, stepper.solve_thomas

    def assemble(prev, rho_iter, theta_iter, reg, params, model, grid, dt,
                 *args, **kwargs):
        sweeps.append([prev.t, dt, (rho_iter.copy(), theta_iter.copy()), []])
        return real_assemble(prev, rho_iter, theta_iter, reg, params, model, grid,
                             dt, *args, **kwargs)

    def solve(system):
        solution = real_solve(system)
        sweeps[-1][3].append(solution.copy())
        return solution

    monkeypatch.setattr(stepper, "assemble_rho_system", assemble)
    monkeypatch.setattr(stepper, "solve_thomas", solve)
    return sweeps


def anderson_input(inputs, outputs):
    """The mixed next input from a step's sweeps so far, by QR least squares.

    An independent route to the depth-2 rule: the last three residuals
    f = g - x give the differences dF, gamma minimizes |f_k - dF gamma|, and
    the input g_k - dG gamma is clamped to at least min(g_k, 0.5 g_k).
    """
    x = np.array([np.concatenate(pair) for pair in inputs[-3:]])
    g = np.array([np.concatenate(pair) for pair in outputs[-3:]])
    f = g - x
    q, r = np.linalg.qr((f[1:] - f[:-1]).T)
    gamma = np.linalg.solve(r, q.T @ f[-1])
    mixed = g[-1] - (g[1:] - g[:-1]).T @ gamma
    return np.maximum(mixed, np.minimum(g[-1], 0.5 * g[-1]))


def test_sweep_inputs_mix_from_the_third_sweep_on(monkeypatch, cubic_model):
    grid, params, state, reg = stiff_setup()
    cfg = StepConfig(dt=0.01)
    sweeps = log_sweeps(monkeypatch)
    new, rec = picard_step(state, cfg, reg, params, cubic_model, grid)
    # the mixed sweeps converge within the budget, where plain ones take 35
    assert rec.sweeps == len(sweeps) == 12
    inputs = [sweep[2] for sweep in sweeps]
    outputs = [tuple(sweep[3]) for sweep in sweeps]
    np.testing.assert_array_equal(np.concatenate(inputs[0]),
                                  np.concatenate((state.rho, state.theta)))
    np.testing.assert_array_equal(np.concatenate(inputs[1]), np.concatenate(outputs[0]))
    for k in range(2, len(sweeps)):
        got = np.concatenate(inputs[k])
        np.testing.assert_allclose(got, anderson_input(inputs[:k], outputs[:k]),
                                   rtol=1e-12, atol=0, err_msg=f"sweep {k + 1}")
        assert not np.array_equal(got, np.concatenate(outputs[k - 1]))
    # the accepted state is the last sweep's plain output, recorded with its input
    np.testing.assert_array_equal(new.rho, outputs[-1][0])
    np.testing.assert_array_equal(new.theta, outputs[-1][1])
    np.testing.assert_array_equal(rec.theta_iter, inputs[-1][1])
    gap = np.concatenate(outputs[-1]) - np.concatenate(inputs[-1])
    assert rec.update == pytest.approx(
        np.linalg.norm(gap) / np.linalg.norm(np.concatenate(inputs[-1])), rel=1e-12)
    assert rec.update < cfg.picard_tol


def test_each_substep_starts_without_history(monkeypatch, cubic_model):
    grid, params, state, reg = stiff_setup(SPLIT_LAM)
    cfg = StepConfig(dt=SPLIT_DT)
    sweeps = log_sweeps(monkeypatch)
    new, records = homotopy_solve(state, cfg, reg, params, cubic_model, grid)
    assert sum(rec.sweeps for rec in records) == len(sweeps)
    # consecutive sweeps of one (t, dt): the direct attempt, then the halves
    attempts = []
    for t, dt, x, g in sweeps:
        if not attempts or attempts[-1][0] != (t, dt):
            attempts.append(((t, dt), []))
        attempts[-1][1].append((x, tuple(g)))
    assert [key for key, _ in attempts] == [(0.0, 0.02), (0.0, 0.01), (0.01, 0.01)]
    first_half_end = attempts[1][1][-1][1]
    starts = [(state.rho, state.theta)] * 2 + [first_half_end]
    for (key, attempt), start in zip(attempts, starts):
        assert len(attempt) >= 3, key
        (x1, g1), (x2, g2), (x3, _) = attempt[:3]
        # the substep's own previous state, one plain sweep, and mixing only
        # once the attempt has two residuals of its own
        np.testing.assert_array_equal(np.concatenate(x1), np.concatenate(start))
        np.testing.assert_array_equal(np.concatenate(x2), np.concatenate(g1))
        assert not np.array_equal(np.concatenate(x3), np.concatenate(g2))
    np.testing.assert_array_equal(np.concatenate((new.rho, new.theta)),
                                  np.concatenate(attempts[-1][1][-1][1]))


def test_strong_drift_loses_dominance(unit_params, cubic_model):
    grid = Grid(16)
    prev = equilibrium_state(grid)
    theta_it = 1.0 + 5.0 * grid.centers
    rho_it = np.full(grid.n, 3.0)
    reg = RegularizationParams(eps=0.5, nu=0.25)
    with pytest.raises(DominanceViolation, match="vapor"):
        assemble_rho_system(prev, rho_it, theta_it, reg, unit_params,
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
        new, records = homotopy_solve(prev, cfg, reg, unit_params, cubic_model, grid)
        predicted += result.series["picard_iterations"][k]
        plain += sum(rec.sweeps for rec in records)
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

    rho, theta = history(3), history(3)
    guess = stepper._predicted_start(np.hstack((rho[:-1], theta[:-1])))
    for got, ref in zip(guess, (rho[-1], theta[-1])):
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6])
def test_predicted_start_clamps_a_steep_drop(rows):
    history = np.ones((rows, 3))
    history[-1] = [0.1, 0.01, 1e-8]
    rho, theta = stepper._predicted_start(np.hstack((history, 2.0 * history)))
    # every weighted sum here lands below half the last row, so the guess
    # is that half
    np.testing.assert_array_equal(rho, 0.5 * history[-1])
    np.testing.assert_array_equal(theta, history[-1])


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("drop", [False, True])
def test_stacked_prediction_equals_two_field_prediction(rows, drop):
    # The same weights in the same order and the same clamp, to the bit;
    # the steep drop of test_predicted_start_clamps_a_steep_drop clamps every cell.
    if drop:
        rho = np.ones((rows, 3))
        rho[-1] = [0.1, 0.01, 1e-8]
        theta = 2.0 * rho
    else:
        rho, theta = np.random.default_rng(rows).uniform(0.5, 2.0, (2, rows, 7))
    got = stepper._predicted_start(np.hstack((rho, theta)))
    expected = two_field_prediction(rho, theta)
    if expected is None:
        assert got is None
        return
    for field, ref in zip(got, expected):
        assert field.tobytes() == ref.tobytes()
    if drop and rows > 1:
        assert np.array_equal(got[0], 0.5 * rho[-1])


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
    # A failed predicted attempt is not retried from the previous state: the
    # level goes straight to two halves, and each span gets one direct attempt.
    grid, cfg, reg, data, t_end = smooth_case()
    wasted = 2
    real_picard_step = stepper.picard_step
    attempts = []

    def starved_prediction(prev, cfg, *args, start=None, **kwargs):
        # A predicted attempt spends `wasted` real sweeps and cannot converge.
        attempts.append((prev.t, cfg.dt, start is not None))
        if start is not None:
            cfg = replace(cfg, max_picard=wasted, picard_tol=1e-300)
        return real_picard_step(prev, cfg, *args, start=start, **kwargs)

    monkeypatch.setattr(stepper, "picard_step", starved_prediction)
    result = run(data, cfg, reg, unit_params, cubic_model, grid, t_end=t_end)
    assert certify_run(result).passed
    steps, half = len(result.t) - 1, 0.5 * cfg.dt
    # the first level has no prediction; every later one wastes its attempt
    expected = [(0.0, cfg.dt, False)]
    for t in result.t[1:-1].tolist():
        expected += [(t, cfg.dt, True), (t, half, False), (t + half, half, False)]
    assert attempts == expected

    sweeps = result.series["picard_iterations"]
    for k in range(2, steps + 1):
        prev = State(result.rho[k - 1], result.theta[k - 1], result.t[k - 1])
        new, halves = half_steps(prev, cfg, reg, unit_params, cubic_model, grid)
        assert sweeps[k] == wasted + sum(rec.sweeps for rec in halves)
        np.testing.assert_array_equal(result.rho[k], new.rho)
        np.testing.assert_array_equal(result.theta[k], new.theta)


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

    # a split step, with a failed direct attempt and two halves, evaluates once
    # per time a substep ends: t = dt, shared by the attempt and the second
    # half, then t = dt/2
    grid, params, state, reg = stiff_setup(SPLIT_LAM)
    cfg = StepConfig(dt=SPLIT_DT)
    times = []
    zero = Forcing(rho_source=lambda x, t: times.append(t) or np.zeros_like(x),
                   theta_source=lambda x, t: np.zeros_like(x),
                   rho_flux=lambda t: (0.0, 0.0), theta_flux=lambda t: (0.0, 0.0))
    counting = CountingForcing(zero)
    result = run(None, cfg, reg, params, cubic_model, grid, t_end=cfg.dt,
                 forcing=counting.forcing, initial_state=state)
    assert result.series["picard_iterations"][1] == 94
    assert counting.calls == dict.fromkeys(counting.calls, 2)
    assert times == [SPLIT_DT, SPLIT_DT / 2]


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
    h, dt = grid.h, 1e-3

    dcell = mollify(rho_it * theta_it, reg.nu, h)
    dface = reg.eps + 0.5 * (dcell[:-1] + dcell[1:])
    vcell = mollify(mollify(rho_it, reg.eps, h) * cell_slopes(theta_it, h), reg.eps, h)
    vface = 0.5 * (vcell[:-1] + vcell[1:])
    wm, wp = donor_weights(vface, scheme)
    A = -dface / h + vface * wm
    B = dface / h + vface * wp

    rho_sys, coeffs = assemble_rho_system(prev, rho_it, theta_it, reg, params,
                                          cubic_model, grid, dt, scheme)
    np.testing.assert_array_equal(coeffs.A, A)
    np.testing.assert_array_equal(coeffs.B, B)
    np.testing.assert_array_equal(rho_sys.lower[:-1], A[:-1] / h)
    np.testing.assert_array_equal(rho_sys.upper[1:], -B[1:] / h)

    # the equilibrium vapor field, constant, makes every interior flux zero
    rho_new = rho_it if kind == "equilibrium" else solve_thomas(rho_sys)
    theta_sys, flux = assemble_theta_system(prev, rho_new, theta_it, reg, params,
                                            cubic_model, grid, dt, coeffs, scheme)
    kcell = conductivity(mollify(rho_new, reg.eps, h), params)
    kface = 0.5 * (kcell[:-1] + kcell[1:])
    fint = flux[1:-1]
    um, up = donor_weights(fint, scheme)
    diag = (rho_new + params.sigma) / dt - rho_new * coeffs.chi_sqrt
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
    system, coeffs = assemble_rho_system(state, state.rho, state.theta, reg,
                                         unit_params, model, grid, cfg.dt)
    with pytest.raises(NonfiniteIterate, match="heat system row 5"):
        assemble_theta_system(state, solve_thomas(system), state.theta, reg,
                              unit_params, model, grid, cfg.dt, coeffs)
    with pytest.raises(NonfiniteIterate, match="heat system row 5") as exc:
        picard_step(state, cfg, reg, unit_params, model, grid)
    assert exc.value.sweeps == 1
    # a failed attempt: the step splits down to the deepest substep, whose
    # attempt fails the same way, one sweep at each depth
    with pytest.raises(NonfiniteIterate, match="heat system row 5") as exc:
        homotopy_solve(state, cfg, reg, unit_params, model, grid)
    assert exc.value.sweeps == stepper.SPLIT_DEPTH + 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value,raised", [(np.inf, NonfiniteIterate),
                                          (np.nan, NonfiniteIterate),
                                          (1e200, PicardDivergence)])
def test_nonfinite_heat_solution_fails_its_sweep(value, raised, monkeypatch,
                                                 unit_params, cubic_model):
    # An infinite or NaN solution fails the sweep that produced it.  A finite
    # one whose squared update overflows does not: the sweep goes on, and
    # here, with one sweep allowed, fails to converge.  (A poisoned vapor
    # solution fails earlier, in the heat assembly.)
    grid = Grid(16)
    state = equilibrium_state(grid)
    reg = RegularizationParams(eps=0.01, nu=0.005)
    cfg = StepConfig(dt=0.01, max_picard=1)
    solves = []

    def poisoned(system):
        x = solve_thomas(system)
        if solves:
            x[5] = value
        solves.append(x)
        return x

    monkeypatch.setattr(stepper, "solve_thomas", poisoned)
    with pytest.raises(raised, match="nonfinite iterate at sweep 1"
                       if raised is NonfiniteIterate else "no convergence") as exc:
        picard_step(state, cfg, reg, unit_params, cubic_model, grid)
    assert exc.value.sweeps == len(solves) // 2 == 1
