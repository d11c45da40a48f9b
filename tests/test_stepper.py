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
from poromoist.model import PowerLawSaturation, conductivity, saturation_pressure
from poromoist.stepper import (RegularizationParams, Setup, State,
                               StepConfig, assemble_rho_system,
                               assemble_theta_system, homotopy_solve,
                               mollified_initial_data, picard_step, run)
from tests.conftest import equilibrium_state, make_params, make_setup
from tests.oracles import TermForcing, dense, dense_solve, two_field_prediction
from tests.test_discretization import mirror_smooth

# The shipped configs' picard_tol, the gate of the predictor's candidates.
TOL = 1e-10


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
    forcing = TermForcing(
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

    values = forcing(grid.centers, prev.t + dt)
    setup = Setup(params, model, reg, StepConfig(dt=dt, advection=scheme), grid, prev)
    system, coeffs = assemble_rho_system(prev, rho_it, theta_it, setup, dt,
                                         forcing=values)
    np.testing.assert_allclose(dense(system), M, rtol=0, atol=1e-12)
    np.testing.assert_allclose(system.rhs, b, rtol=0, atol=1e-12)

    rho_new = solve_thomas(system)
    np.testing.assert_allclose(rho_new, rho_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rho_new, dense_solve(dense(system), system.rhs),
                               rtol=0, atol=1e-12)

    theta_sys, mass_flux = assemble_theta_system(prev, rho_new, theta_it, setup, dt,
                                                 coeffs, forcing=values)
    np.testing.assert_allclose(mass_flux, F_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dense(theta_sys), T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(theta_sys.rhs, c, rtol=0, atol=1e-12)


def test_assembled_systems_view_one_band(crooked_case):
    # Each system's four fields are views of its own (4, n) band, the one
    # _check_rows scanned; column i holds row i.
    grid, params, model, prev, rho_it, theta_it, reg, forcing = crooked_case
    dt = 0.05
    values = forcing(grid.centers, prev.t + dt)
    setup = Setup(params, model, reg, StepConfig(dt=dt), grid, prev)
    rho_sys, coeffs = assemble_rho_system(prev, rho_it, theta_it, setup, dt, values)
    theta_sys, _ = assemble_theta_system(prev, solve_thomas(rho_sys), theta_it, setup, dt,
                                         coeffs, values)
    assert rho_sys.diag.base is not theta_sys.diag.base
    for system in (rho_sys, theta_sys):
        band = system.diag.base
        assert band.shape == (4, grid.n) and system.n == grid.n
        fields = (system.lower, system.diag, system.upper, system.rhs)
        assert all(field.base is band for field in fields)
        for field, row in zip(fields, (band[0, 1:], band[1], band[2, :-1], band[3])):
            assert field.__array_interface__ == row.__array_interface__
        assert band[0, 0] == band[2, -1] == 0.0


def test_regularization_params_validation(unit_params, cubic_model):
    with pytest.raises(ConfigError):
        RegularizationParams(eps=0.01, nu=0.02)
    with pytest.raises(ConfigError):
        RegularizationParams(eps=1.5, nu=0.1)
    # eps is checked against the ambients where it meets them, in a Setup
    setup = make_setup(unit_params, cubic_model, Grid(4), eps=0.01, nu=0.005)
    message = (r"^eps=0\.01 exceeds min\(ambient values, 1\) = 0\.005; "
               r"the cutoff would clip ambient data$")
    with pytest.raises(ConfigError, match=message):
        replace(setup, params=make_params(rho_bar0=0.005))
    with pytest.raises(ConfigError, match=message):
        make_setup(make_params(rho_bar0=0.005), cubic_model, Grid(4), eps=0.01, nu=0.005)


def test_step_config_validation():
    # As the config schema does, a bool or a float is no sweep budget, even
    # where it equals a whole number.
    budget = "max_picard must be an integer"
    for kwargs, message in ((dict(dt=0.0), "dt must be positive"),
                            (dict(dt=1e-3, picard_tol=0.0), "picard_tol must be positive"),
                            (dict(dt=1e-3, max_picard=0), "max_picard must be at least 1"),
                            (dict(dt=1e-3, max_picard=2.5), budget),
                            (dict(dt=1e-3, max_picard=50.0), budget),
                            (dict(dt=1e-3, max_picard="50"), budget),
                            (dict(dt=1e-3, max_picard=True), budget),
                            (dict(dt=1e-3, max_picard=None), budget),
                            (dict(dt=1e-3, advection="quick"), "advection must be")):
        with pytest.raises(ConfigError, match=message):
            StepConfig(**kwargs)
    # an integral numpy value is stored as a Python int
    cfg = StepConfig(dt=1e-3, max_picard=np.int64(7))
    assert type(cfg.max_picard) is int and cfg.max_picard == 7


def run_from(state, params, model):
    """One step of dt = 1e-3 on a 4-cell grid from an explicit start state."""
    return run(make_setup(params, model, Grid(4), state, t_end=1e-3), state)


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


def test_mollified_initial_data_lift(unit_params, cubic_model):
    data = State(np.linspace(1.0, 2.0, 16), np.full(16, 1.5), 0.0)
    # radius below the cell width: smoothing is the identity, only the lift acts
    state = mollified_initial_data(make_setup(unit_params, cubic_model, Grid(16), data,
                                              eps=0.01, nu=0.005))
    np.testing.assert_array_equal(state.rho, data.rho + 0.01)
    np.testing.assert_array_equal(state.theta, data.theta)
    assert not np.shares_memory(state.theta, data.theta)
    assert not np.shares_memory(state.rho, data.rho)
    assert state.t == 0.0


def test_mollified_initial_data_rejects_raw_samples(unit_params, cubic_model):
    # Raw samples from a library caller get the checks of run's start
    # before any smoothing, whatever the mollifier would make of them.
    for rho, theta, error, message in (
            ([-0.1, 1, 1, 1], [1, 1, 1, 1], ConfigError, "negative vapor density"),
            ([1, 1, 1, 1], [1, 0.0, 1, 1], ConfigError, "nonpositive temperature"),
            ([1, 1, 1, 1], [1, -0.4, 1, 1], ConfigError, "nonpositive temperature"),
            ([1, np.nan, 1, 1], [1, 1, 1, 1], ConfigError, "nonfinite"),
            ([1, 1, 1, 1], [1, np.inf, 1, 1], ConfigError, "nonfinite"),
            ([1, 1, 1], [1, 1, 1, 1], ConfigError, "3 cells but theta has 4"),
            ([1] * 5, [1] * 5, DimensionMismatch, "5 cells for an n=4 grid"),
            ([[1, 1], [1, 1]], [[1, 1], [1, 1]], DimensionMismatch, "must be 1-D")):
        with pytest.raises(error, match=message):
            mollified_initial_data(make_setup(unit_params, cubic_model, Grid(4),
                                              State(rho, theta, 0.0), eps=0.01, nu=0.005))


def test_equilibrium_is_picard_fixed_point(unit_params, cubic_model):
    grid = Grid(16)
    setup = make_setup(unit_params, cubic_model, grid, dt=0.01)
    state = setup.initial
    new, rec = picard_step(state, setup, 0.01)
    assert rec.update < setup.step.picard_tol and rec.sweeps == 1
    assert rec.dt == 0.01
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


def stiff_setup(model, lam=STIFF_LAM, dt=SPLIT_DT, **step):
    """The superheated start at rho = 1, theta = 1.3 on STIFF_N cells; it is setup.initial."""
    state = State(np.ones(STIFF_N), np.full(STIFF_N, 1.3), 0.0)
    return make_setup(make_params(lam=lam), model, Grid(STIFF_N), state, dt=dt, **step)


def test_stiff_step_exceeds_direct_budget(cubic_model):
    setup = stiff_setup(cubic_model, SPLIT_LAM)
    cfg = setup.step
    with pytest.raises(PicardDivergence) as exc:
        picard_step(setup.initial, setup, SPLIT_DT)
    record = exc.value.record
    assert record.update >= cfg.picard_tol
    assert exc.value.sweeps == record.sweeps == cfg.max_picard
    assert record.dt == SPLIT_DT

    # the same sweep loop does converge, just beyond the default budget
    roomy = stiff_setup(cubic_model, SPLIT_LAM, max_picard=500)
    _, record = picard_step(roomy.initial, roomy, SPLIT_DT)
    assert record.update < roomy.step.picard_tol
    assert 50 < record.sweeps <= 60


def half_steps(state, setup, dt):
    """The step of dt from state as two direct steps of dt/2."""
    mid, first = picard_step(state, setup, 0.5 * dt)
    new, second = picard_step(mid, setup, 0.5 * dt)
    return new, (first, second)


def test_homotopy_rescues_stiff_step(cubic_model):
    setup = stiff_setup(cubic_model, SPLIT_LAM)
    state, cfg = setup.initial, setup.step
    new, records = homotopy_solve(state, setup)
    # the failed direct attempt's 50 sweeps, then the halves' 25 and 19
    assert [rec.dt for rec in records] == [0.01, 0.01]
    assert [rec.sweeps for rec in records] == [75, 19]
    assert all(rec.update < cfg.picard_tol for rec in records)
    halves_new, halves = half_steps(state, setup, SPLIT_DT)
    assert [rec.sweeps for rec in halves] == [25, 19]
    assert records[1].prev.t == 0.01 and new.t == SPLIT_DT
    np.testing.assert_array_equal(new.rho, halves_new.rho)
    np.testing.assert_array_equal(new.theta, halves_new.theta)
    assert np.all(new.rho > 0) and np.all(new.theta > 0)


def test_homotopy_failure_bookkeeping(monkeypatch, cubic_model):
    # With one sweep per attempt every attempt fails: the level and the
    # first substep at each depth 1..6 make one attempt each.
    setup = stiff_setup(cubic_model, dt=0.01, max_picard=1)
    state, cfg = setup.initial, setup.step
    sweeps = log_sweeps(monkeypatch)
    with pytest.raises(PicardDivergence) as exc:
        homotopy_solve(state, setup)
    record = exc.value.record
    assert record.update >= cfg.picard_tol > 0
    assert record.dt == cfg.dt / 2**stepper.SPLIT_DEPTH
    assert exc.value.sweeps == len(sweeps) == stepper.SPLIT_DEPTH + 1
    assert [dt for _, dt, _, _ in sweeps] == [cfg.dt / 2**k for k in range(7)]

    # a predicted start replaces the level's start and adds no attempt
    del sweeps[:]
    with pytest.raises(PicardDivergence) as exc:
        homotopy_solve(state, setup, start=(state.rho, state.theta))
    assert exc.value.sweeps == len(sweeps) == stepper.SPLIT_DEPTH + 1
    assert [dt for _, dt, _, _ in sweeps] == [cfg.dt / 2**k for k in range(7)]


def test_failed_substep_is_counted_and_split(monkeypatch, cubic_model):
    setup = stiff_setup(cubic_model, SPLIT_LAM)
    state = setup.initial
    plain_new, plain = homotopy_solve(state, setup)
    real_assemble = stepper.assemble_theta_system

    def nonfinite_in_second_half(prev, rho_new, theta_iter, setup, dt, *args, **kwargs):
        if prev.t == 0.01 and dt == 0.01:
            raise NonfiniteIterate("injected in the second half")
        return real_assemble(prev, rho_new, theta_iter, setup, dt, *args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_theta_system", nonfinite_in_second_half)
    new, records = homotopy_solve(state, setup)
    # the second half spends one sweep and is taken as two quarters
    assert [rec.dt for rec in records] == [0.01, 0.005, 0.005]
    assert records[0].sweeps == plain[0].sweeps == 75
    last, (first, second) = half_steps(records[1].prev, setup, 0.01)
    assert [rec.sweeps for rec in records[1:]] == [first.sweeps + 1, second.sweeps]
    np.testing.assert_array_equal(new.rho, last.rho)
    np.testing.assert_array_equal(new.theta, last.theta)
    assert new.t == plain_new.t == SPLIT_DT


def test_failed_second_half_counts_the_first_half(monkeypatch, cubic_model):
    # The direct attempt fails, the first half converges, and every attempt
    # at a span from its end on fails: the error counts every sweep.
    setup = stiff_setup(cubic_model, SPLIT_LAM)
    sweeps = log_sweeps(monkeypatch)
    real_assemble = stepper.assemble_theta_system

    def nonfinite_from_the_midpoint(prev, *args, **kwargs):
        if prev.t == 0.01:
            raise NonfiniteIterate("injected from the midpoint on")
        return real_assemble(prev, *args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_theta_system", nonfinite_from_the_midpoint)
    with pytest.raises(NonfiniteIterate) as exc:
        homotopy_solve(setup.initial, setup)
    # the direct attempt's 50 sweeps and the first half's 25, then one sweep
    # at each depth 1 .. SPLIT_DEPTH from t = 0.01
    assert exc.value.sweeps == len(sweeps) == 75 + stepper.SPLIT_DEPTH
    assert [(t, dt) for t, dt, _, _ in sweeps[75:]] == [
        (0.01, 0.01 / 2**k) for k in range(stepper.SPLIT_DEPTH)]


def test_dominance_loss_in_direct_attempt_goes_to_substeps(monkeypatch, cubic_model):
    setup = stiff_setup(cubic_model, SPLIT_LAM)
    state, cfg = setup.initial, setup.step
    plain_new, plain = homotopy_solve(state, setup)
    real_assemble = stepper.assemble_rho_system
    calls = []

    def first_sweep_loses_dominance(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise DominanceViolation("vapor", 0, -1.0)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(stepper, "assemble_rho_system", first_sweep_loses_dominance)
    new, records = homotopy_solve(state, setup)
    # one sweep of the direct attempt, then the same halves as the plain step
    assert [rec.dt for rec in records] == [rec.dt for rec in plain]
    assert [rec.sweeps for rec in records] == [plain[0].sweeps - cfg.max_picard + 1,
                                               plain[1].sweeps]
    np.testing.assert_array_equal(new.rho, plain_new.rho)
    np.testing.assert_array_equal(new.theta, plain_new.theta)


def test_level_is_one_homotopy_call(monkeypatch, cubic_model):
    # Substeps recurse in a private helper, so a traced homotopy_solve spans
    # exactly one output level, split or not.
    setup = stiff_setup(cubic_model, SPLIT_LAM, t_end=2 * SPLIT_DT)
    real_solve, levels = stepper.homotopy_solve, []

    def counted(*args, **kwargs):
        new, records = real_solve(*args, **kwargs)
        levels.append(len(records))
        return new, records

    monkeypatch.setattr(stepper, "homotopy_solve", counted)
    result = run(setup, setup.initial)
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

    def assemble(prev, rho_iter, theta_iter, setup, dt, *args, **kwargs):
        sweeps.append([prev.t, dt, (rho_iter.copy(), theta_iter.copy()), []])
        return real_assemble(prev, rho_iter, theta_iter, setup, dt, *args, **kwargs)

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
    setup = stiff_setup(cubic_model, dt=0.01)
    state, cfg = setup.initial, setup.step
    sweeps = log_sweeps(monkeypatch)
    new, rec = picard_step(state, setup, 0.01)
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
    setup = stiff_setup(cubic_model, SPLIT_LAM)
    state = setup.initial
    sweeps = log_sweeps(monkeypatch)
    new, records = homotopy_solve(state, setup)
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
    setup = make_setup(unit_params, cubic_model, grid, prev, dt=0.05, eps=0.5, nu=0.25)
    with pytest.raises(DominanceViolation, match="vapor"):
        assemble_rho_system(prev, rho_it, theta_it, setup, dt=0.05)


def smooth_case(params, model, t_end=0.02):
    """A relaxing vapor bump on n=32 at dt=1e-3 to a horizon of t_end, and its smoothed start."""
    grid = Grid(32)
    data = State(1.0 + np.exp(-((grid.centers - 0.5) / 0.15) ** 2), np.ones(grid.n), 0.0)
    setup = make_setup(params, model, grid, data, t_end=t_end)
    return setup, mollified_initial_data(setup)


def test_run_is_deterministic(unit_params, cubic_model):
    setup, start = smooth_case(unit_params, cubic_model, 0.05)
    first = run(setup, start)
    second = run(setup, start)
    assert first.rho.shape == first.theta.shape == (51, setup.grid.n)
    assert first.t.shape == (51,)
    assert all(column.shape == (51,) for column in first.series.values())
    np.testing.assert_array_equal(first.rho, second.rho)
    np.testing.assert_array_equal(first.theta, second.theta)
    np.testing.assert_array_equal(first.t, second.t)
    assert first.series.keys() == second.series.keys()
    for name, column in first.series.items():
        np.testing.assert_array_equal(column, second.series[name])


def test_predicted_start_saves_sweeps(unit_params, cubic_model):
    setup, start = smooth_case(unit_params, cubic_model)
    cfg = setup.step
    result = run(setup, start)
    predicted = plain = 0
    # from step 3 on the start extrapolates at least three accepted states
    for k in range(3, len(result.t)):
        prev = State(result.rho[k - 1], result.theta[k - 1], result.t[k - 1])
        new, records = homotopy_solve(prev, setup)
        predicted += result.series["picard_iterations"][k]
        plain += sum(rec.sweeps for rec in records)
        for got, ref in ((result.rho[k], new.rho), (result.theta[k], new.theta)):
            gap = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            assert np.max(gap) <= 10 * cfg.picard_tol
    assert predicted < plain


# (rows, degree): the polynomial through every row below six rows, and from
# six on each degree d <= 6 with d + 2 <= rows <= 8, so that the error of
# degree d on the newest row is zero and the chosen degree is d.
POLYNOMIAL_CASES = (
    [pytest.param(rows, min(rows - 1, 4), id=str(rows)) for rows in range(2, 7)]
    + [pytest.param(rows, degree, id=f"degree{degree}-rows{rows}")
       for degree in range(7) for rows in range(max(degree + 2, 6), 9)])


@pytest.mark.parametrize("rows, degree", POLYNOMIAL_CASES)
def test_predicted_start_is_exact_on_polynomials(rows, degree):
    # Dyadic coefficients keep every sum exact; the nonnegative ones make
    # each history increase, so the clamp stays out of the way.
    rng = np.random.default_rng(rows)
    steps = np.arange(rows + 1, dtype=float)[:, None]

    def history(cells):
        coeffs = rng.integers(1, 9, (degree + 1, cells)) / 8.0
        coeffs[0] += 100.0
        return sum(c * steps**j for j, c in enumerate(coeffs))

    rho, theta = history(3), history(3)
    guess = stepper._predicted_start(np.hstack((rho[:-1], theta[:-1])), TOL)
    for got, ref in zip(guess, (rho[-1], theta[-1])):
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))


def test_predicted_start_chooses_the_line_under_alternating_noise():
    # The error of degree p on the newest row, |nabla^(p+1)| of the noise,
    # is 4e-6 for p = 1 and grows with p (8e-6, 15e-6, ... 64e-6), so degree
    # 1 is chosen, and its guess 2 x_k - x_(k-1) is off the clean line by
    # 3e-6.  A tol above 4e-6 / max |x_k| keeps the candidates out.
    steps = np.arange(9, dtype=float)[:, None]
    clean = 1.0 + 0.01 * steps * np.array([1.0, 2.0, 3.0, -1.0])
    noisy = clean[:-1].copy()
    noisy[-4:] += 1e-6 * np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    rho, theta = stepper._predicted_start(noisy, 1e-5)
    guess = np.concatenate((rho, theta))
    assert np.array_equal(guess, 2.0 * noisy[-1] - noisy[-2])
    assert np.max(np.abs(guess - clean[-1])) <= 3e-6 * (1 + 1e-6)


def test_linear_prediction_is_exact_on_decaying_geometric_modes():
    # Three decaying modes over a constant: the differences obey
    # d_t = 1.63 d_(t-1) - 0.814 d_(t-2) + 0.1245 d_(t-3) exactly, the
    # order-3 recurrence of the ratios 0.83, 0.5 and 0.3, so with seven
    # states (order 6 needs eight) the order-3 candidate predicts the next
    # state to roundoff, where the best polynomial misses by 1e-4 and more.
    rng = np.random.default_rng(5)
    k = np.arange(8, dtype=float)[:, None]
    states = 1.0 + sum(rng.uniform(-0.3, 0.3, 10) * ratio ** k
                       for ratio in (0.83, 0.5, 0.3))
    history, newest = states[:-1], states[-1]
    rho, theta = stepper._predicted_start(history, TOL)
    miss = np.max(np.abs(np.concatenate((rho, theta)) - newest))
    assert miss <= 1e-12 * np.max(np.abs(newest))
    weighted = stepper._SELECTION_WEIGHTS[7] @ history
    polynomial_misses = [np.max(np.abs(weighted[7 - 1 + degree] - newest))
                         for degree in range(5)]
    assert min(polynomial_misses) > 1e-4
    # seven states fit three coefficients: order 3's, and no order 6
    assert stepper._LINEAR_PREDICTION[7][2].shape[1] == 3


def test_predicted_start_fits_nothing_where_a_polynomial_predicts(monkeypatch,
                                                                  smoke_config):
    # Replay every start of a smoke run with the fitter patched to raise.
    # Each start whose best polynomial error was within picard_tol max|x_k|
    # is returned again, to the bit, without a fit; the starts that raise
    # are the ones the run fitted candidates for, about 5%.
    setup = build_setup(smoke_config)
    starts, fitted = [], []
    predict, fit = stepper._predicted_start, stepper._linear_prediction

    def recording(history, tol):
        guess = predict(history, tol)
        starts.append((history.copy(), tol, guess))
        return guess

    def counting(history, bound):
        fitted.append(bound > setup.step.picard_tol * np.abs(history[-1]).max())
        return fit(history, bound)

    monkeypatch.setattr(stepper, "_predicted_start", recording)
    monkeypatch.setattr(stepper, "_linear_prediction", counting)
    run(setup, mollified_initial_data(setup))
    assert len(starts) == 1000 and all(fitted) and 0 < len(fitted) <= 60

    def refuse(history, bound):
        raise AssertionError("a candidate was fitted")

    monkeypatch.setattr(stepper, "_linear_prediction", refuse)
    raised = 0
    for history, tol, guess in starts:
        try:
            again = predict(history, tol)
        except AssertionError:
            raised += 1
            continue
        if guess is None:
            assert again is None
        else:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(again, guess))
    assert raised == len(fitted)


def test_predicted_start_of_a_constant_history_is_the_constant():
    # Every degree's error is zero, so no candidate is fitted, and the tie
    # goes to degree 1, whose guess 2c - c is exactly c, which a higher
    # degree's weights need not give.
    history = np.full((8, 6), 0.7)
    rho, theta = stepper._predicted_start(history, TOL)
    assert np.array_equal(rho, history[-1, :3]) and np.array_equal(theta, history[-1, 3:])


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6, 7, 8])
def test_predicted_start_clamps_a_steep_drop(rows):
    history = np.ones((rows, 3))
    history[-1] = [0.1, 0.01, 1e-8]
    rho, theta = stepper._predicted_start(np.hstack((history, 2.0 * history)), TOL)
    # every weighted sum here lands below half the last row, so the guess
    # is that half; the candidates' normal equations are singular, because
    # every difference but the newest is zero
    np.testing.assert_array_equal(rho, 0.5 * history[-1])
    np.testing.assert_array_equal(theta, history[-1])


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("drop", [False, True])
def test_stacked_prediction_equals_two_field_prediction(rows, drop):
    # Below six rows, the same weights in the same order and the same clamp,
    # to the bit.  From six on, the degree chosen from the differences and
    # the extrapolation of the one weight product, within 4 ulps, where no
    # candidate is chosen; a chosen candidate's normal equations against
    # the oracle's np.linalg.lstsq, within 1e-12 relative.  The random
    # histories are far from any polynomial, and a candidate replaces the
    # polynomial on each of them.  The steep drop of
    # test_predicted_start_clamps_a_steep_drop clamps every cell and
    # chooses no candidate.
    if drop:
        rho = np.ones((rows, 3))
        rho[-1] = [0.1, 0.01, 1e-8]
        theta = 2.0 * rho
    else:
        rho, theta = np.random.default_rng(rows).uniform(0.5, 2.0, (2, rows, 7))
    got = stepper._predicted_start(np.hstack((rho, theta)), TOL)
    expected = two_field_prediction(rho, theta, TOL)
    if expected is None:
        assert got is None
        return
    polynomial = two_field_prediction(rho, theta, np.inf)
    chosen = not all(np.array_equal(a, b) for a, b in zip(expected, polynomial))
    assert chosen == (rows >= 6 and not drop)
    for field, ref in zip(got, expected):
        if rows < 6:
            assert field.tobytes() == ref.tobytes()
        elif chosen:
            np.testing.assert_allclose(field, ref, rtol=1e-12, atol=0)
        else:
            assert np.all(np.abs(field - ref) <= 4 * np.spacing(np.abs(ref)))
    if drop and rows > 1:
        assert np.array_equal(got[0], 0.5 * rho[-1])


def test_most_smoke_steps_converge_on_first_sweep(smoke_result):
    sweeps = smoke_result.series["picard_iterations"][1:]
    assert len(sweeps) == 1000
    assert np.count_nonzero(sweeps == 1) >= 940


def test_dry_start_certifies_with_positive_vapor(smoke_config):
    data = apply_override(smoke_config, "initial.rho.base", 0.0)
    for path, value in (("grid.n", 50), ("physical.t_end", 0.1),
                        ("regularization.eps", 0.01)):
        data = apply_override(data, path, value)
    setup = build_setup(data)
    result = run(setup, mollified_initial_data(setup))
    assert certify_run(result).passed
    assert np.min(result.series["min_rho"]) > 0


def test_failed_prediction_falls_back(monkeypatch, unit_params, cubic_model):
    # A failed predicted attempt is not retried from the previous state: the
    # level goes straight to two halves, and each span gets one direct attempt.
    setup, start = smooth_case(unit_params, cubic_model)
    cfg = setup.step
    wasted = 2
    starved = replace(setup, step=replace(cfg, max_picard=wasted, picard_tol=1e-300))
    real_picard_step = stepper.picard_step
    attempts = []

    def starved_prediction(prev, setup, dt, forcing, start):
        # A predicted attempt spends `wasted` real sweeps and cannot converge.
        attempts.append((prev.t, dt, start is not None))
        return real_picard_step(prev, setup if start is None else starved, dt, forcing,
                                start)

    monkeypatch.setattr(stepper, "picard_step", starved_prediction)
    result = run(setup, start)
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
        new, halves = half_steps(prev, setup, cfg.dt)
        assert sweeps[k] == wasted + sum(rec.sweeps for rec in halves)
        np.testing.assert_array_equal(result.rho[k], new.rho)
        np.testing.assert_array_equal(result.theta[k], new.theta)


# Arrays of zeros for every term at every time.
ZERO_FORCING = TermForcing(rho_source=lambda x, t: np.zeros_like(x),
                           theta_source=lambda x, t: np.zeros_like(x),
                           rho_flux=lambda t: (0.0, 0.0), theta_flux=lambda t: (0.0, 0.0))


class CountingForcing:
    """Wraps a forcing and keeps the time of each call."""

    def __init__(self, forcing):
        self.forcing = forcing
        self.times = []

    def __call__(self, x, t):
        self.times.append(t)
        return self.forcing(x, t)


def test_forcing_evaluated_once_per_step(unit_params, cubic_model):
    grid = Grid(16)
    case = make_default_mms_case(unit_params, cubic_model)
    x = grid.centers
    state0 = State(case.exact_rho(x, 0.0), case.exact_theta(x, 0.0), 0.0)
    counting = CountingForcing(case.forcing)
    setup = make_setup(unit_params, cubic_model, grid, state0, dt=0.01, t_end=0.1,
                       forcing=counting, picard_tol=1e-12)
    result = run(setup, state0)
    steps = len(result.t) - 1
    assert steps == 10
    assert result.series["picard_iterations"].sum() > steps
    assert len(counting.times) == steps

    # a split step, with a failed direct attempt and two halves, evaluates once
    # per time a substep ends: t = dt, shared by the attempt and the second
    # half, then t = dt/2
    counting = CountingForcing(ZERO_FORCING)
    setup = stiff_setup(cubic_model, SPLIT_LAM, t_end=SPLIT_DT, forcing=counting)
    result = run(setup, setup.initial)
    assert result.series["picard_iterations"][1] == 94
    assert counting.times == [SPLIT_DT, SPLIT_DT / 2]


def test_zero_forcing_matches_no_forcing(unit_params, cubic_model):
    # NO_FORCING holds scalar zeros, ZERO_FORCING arrays of zeros; adding
    # either leaves every value's bits as they are
    grid = Grid(16)
    x = grid.centers
    state = State(2.0 + np.cos(np.pi * x), 1.0 + 0.5 * np.sin(np.pi * x), 0.0)
    setup = make_setup(unit_params, cubic_model, grid, state, dt=0.01, t_end=0.1)
    forced = run(replace(setup, forcing=ZERO_FORCING), state)
    plain = run(setup, state)
    np.testing.assert_array_equal(forced.rho, plain.rho)
    np.testing.assert_array_equal(forced.theta, plain.theta)
    for name, column in plain.series.items():
        np.testing.assert_array_equal(forced.series[name], column, err_msg=name)


def test_run_validates_horizon(unit_params, cubic_model):
    # 1.5 steps, a count that rounds to zero, and t_end / dt overflowing to inf
    for t_end in (0.0015, 1e-12, 1e308):
        setup = make_setup(unit_params, cubic_model, Grid(8), t_end=t_end)
        with pytest.raises(ConfigError, match="positive integer number of steps"):
            run(setup, setup.initial)
    # a horizon is positive: no problem is made without one
    for t_end in (0.0, -1e-3):
        with pytest.raises(ConfigError, match="offending: t_end"):
            make_params(t_end=t_end)


def test_run_rejects_a_nonfinite_start_time(unit_params, cubic_model):
    setup = make_setup(unit_params, cubic_model, Grid(4), t_end=1e-2)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="nonfinite start time"):
            run(setup, State(np.ones(4), np.ones(4), t))


def test_run_rejects_initial_state_of_another_grid(unit_params, cubic_model):
    setup = make_setup(unit_params, cubic_model, Grid(16))
    with pytest.raises(DimensionMismatch, match="8 cells for an n=16 grid"):
        run(setup, equilibrium_state(Grid(8)))
    # raw samples of another grid are rejected before they are mollified
    data = State(np.ones(8), np.ones(8), 0.0)
    with pytest.raises(DimensionMismatch, match="8 cells for an n=16 grid"):
        run(setup, mollified_initial_data(replace(setup, initial=data)))



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

    setup = Setup(params, cubic_model, reg, StepConfig(dt=dt, advection=scheme), grid,
                  prev)
    rho_sys, coeffs = assemble_rho_system(prev, rho_it, theta_it, setup, dt)
    np.testing.assert_array_equal(coeffs.A, A)
    np.testing.assert_array_equal(coeffs.B, B)
    np.testing.assert_array_equal(rho_sys.lower[:-1], A[:-1] / h)
    np.testing.assert_array_equal(rho_sys.upper[1:], -B[1:] / h)

    # the equilibrium vapor field, constant, makes every interior flux zero
    rho_new = rho_it if kind == "equilibrium" else solve_thomas(rho_sys)
    theta_sys, flux = assemble_theta_system(prev, rho_new, theta_it, setup, dt, coeffs)
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
    setup = make_setup(unit_params, model, grid, dt=0.01)
    state = setup.initial
    system, coeffs = assemble_rho_system(state, state.rho, state.theta, setup, 0.01)
    with pytest.raises(NonfiniteIterate, match="heat system row 5"):
        assemble_theta_system(state, solve_thomas(system), state.theta, setup, 0.01,
                              coeffs)
    with pytest.raises(NonfiniteIterate, match="heat system row 5") as exc:
        picard_step(state, setup, 0.01)
    assert exc.value.sweeps == 1
    # a failed attempt: the step splits down to the deepest substep, whose
    # attempt fails the same way, one sweep at each depth
    with pytest.raises(NonfiniteIterate, match="heat system row 5") as exc:
        homotopy_solve(state, setup)
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
    setup = make_setup(unit_params, cubic_model, Grid(16), dt=0.01, max_picard=1)
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
        picard_step(setup.initial, setup, 0.01)
    assert exc.value.sweeps == len(solves) // 2 == 1
