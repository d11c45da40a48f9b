"""Balance residuals, envelopes, monitors, and the weak-form audit."""
from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from poromoist import stepper
from poromoist.config import apply_override, build_setup
from poromoist.diagnostics import (CertificationReport, certify_run, default_test_functions,
                                   start_series, step_record, weak_residual)
from poromoist.discretization import NO_FORCING, Grid
from poromoist.harness import make_default_mms_case
from poromoist.stepper import State, homotopy_solve, mollified_initial_data, run
from tests.conftest import make_params, make_setup, run_equilibrium
from tests.oracles import (energy_balance_residual, level_row, mass_balance_residual,
                           sequential_dissipation)


@pytest.fixture(scope="module")
def equilibrium_run(unit_params, cubic_model):
    return run_equilibrium(unit_params, cubic_model, n=64, dt=1e-3, steps=200)


def bump_run(n, dt, t_end, eps=1e-4, nu=5e-5, params=None, model=None):
    grid = Grid(n)
    data = State(1.0 + np.exp(-((grid.centers - 0.5) / 0.15) ** 2), np.ones(n), 0.0)
    setup = make_setup(params, model, grid, data, dt=dt, eps=eps, nu=nu, t_end=t_end)
    return run(setup, mollified_initial_data(setup))


def start_row(state, params, model):
    """Row 0 of the series of a one-step run from state, by name."""
    result = run(make_setup(params, model, Grid(len(state.rho)), state, t_end=1e-3), state)
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
    """The seven state and fourth-power columns, one time level at a time.

    The fourth-power accumulator is the left-rule recurrence
    l4[k] = l4[k-1] + dt h sum(rho[k-1]^4).
    """
    h, p, dt = result.setup.grid.h, result.setup.params, result.setup.step.dt
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
    assert l4[-1] == pytest.approx((len(l4) - 1) * equilibrium_run.setup.step.dt, abs=1e-12)


def test_energy_defect_integral_refines(unit_params, cubic_model):
    coarse = bump_run(64, 2e-3, 0.2, params=unit_params, model=cubic_model)
    fine = bump_run(128, 1e-3, 0.2, params=unit_params, model=cubic_model)

    def integrated(result):
        return result.setup.step.dt * sum(result.series["energy_balance_residual"][1:])

    ratio = integrated(coarse) / integrated(fine)
    assert ratio >= 1.8


def test_envelope_passes_on_smoke(smoke_result):
    report = certify_run(smoke_result)
    assert report.envelope_ok
    assert report.envelope_min_slack > 0


def test_envelope_flags_doctored_record(smoke_result):
    column = smoke_result.series["mass_energy"]
    captured = column[[400, 600]]
    column[[400, 600]] = 1e9
    try:
        report = certify_run(smoke_result)
        assert not report.envelope_ok
        assert report.envelope_min_slack < 0
        # the message names the first violating level's time
        assert report.failures == (
            f"mass/heat envelope violated at t={float(smoke_result.t[400])} "
            f"(excess {-report.envelope_min_slack:.3e})",)
    finally:
        column[[400, 600]] = captured


def test_entropy_monitor_smoke(smoke_result):
    report = certify_run(smoke_result)
    assert np.all(np.isfinite(smoke_result.series["entropy"]))
    assert report.entropy_dissipation > 0
    assert report.max_entropy == np.max(smoke_result.series["entropy"])


def test_entropy_monitor_equilibrium_is_silent(equilibrium_run):
    report = certify_run(equilibrium_run)
    np.testing.assert_allclose(equilibrium_run.series["entropy"], 0.0, atol=1e-13)
    assert report.entropy_dissipation <= 1e-20


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
    series, p = smoke_result.series, smoke_result.setup.params
    maxes, lift, gain = (series[name] for name in ("max_theta", "envelope_lift",
                                                   "envelope_gain"))
    env = [max(maxes[0], p.theta_bar0, p.theta_bar1)]
    for k in range(1, len(maxes)):
        env.append(max((env[-1] + lift[k]) * gain[k], p.theta_bar0, p.theta_bar1))
    assert certify_run(smoke_result).theta_envelope_ok
    assert np.all(maxes <= np.array(env) + 1e-9)
    assert lift[0] == 0.0 and np.all(lift[1:] > 0)
    assert gain[0] == 1.0 and np.all(gain[1:] > 1)
    # certify_run rebuilds the same envelope: max theta may exceed it by 1e-9
    k = 500
    captured = maxes[k]
    try:
        for excess, ok in ((0.5e-9, True), (2e-9, False)):
            maxes[k] = env[k] + excess
            report = certify_run(smoke_result)
            assert report.theta_envelope_ok is ok, excess
            assert ("max-temperature envelope violated" in report.failures) is not ok
    finally:
        maxes[k] = captured


def heating_rate(srec, params):
    return float((srec.rho * srec.coeffs.chi_sqrt / (srec.rho + params.sigma)).max())


def test_step_record_of_one_step_keeps_the_level_map(smoke_result):
    # One substep of dt at rate r maps env to (env + dt lam r)(1 + dt r):
    # lift and gain hold those two factors to the bit.
    setup = smoke_result.setup
    params, cfg = setup.params, setup.step
    prev = State(smoke_result.rho[9], smoke_result.theta[9], smoke_result.t[9])
    _, records = homotopy_solve(prev, setup)
    assert len(records) == 1
    series = start_series(1, prev, setup)
    step_record(series, 1, [records], setup)
    rate = heating_rate(records[0], params)
    assert series["envelope_lift"][1] == cfg.dt * params.lam * rate
    assert series["envelope_gain"][1] == 1.0 + cfg.dt * rate


def test_step_record_folds_substeps(cubic_model):
    # The stiff step that homotopy_solve takes as two halves (see test_stepper).
    grid, params = Grid(16), make_params(lam=120.0)
    prev = State(np.ones(16), np.full(16, 1.3), 0.0)
    setup = make_setup(params, cubic_model, grid, prev, dt=0.02)
    _, records = homotopy_solve(prev, setup)
    assert [srec.dt for srec in records] == [0.01, 0.01]
    series = start_series(1, prev, setup)
    step_record(series, 1, [records], setup)

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
    setup = smoke_result.setup
    params, grid = setup.params, setup.grid
    prev = State(smoke_result.rho[9], smoke_result.theta[9], smoke_result.t[9])
    _, records = homotopy_solve(prev, setup)
    nan_first = (replace(records[0], forcing=replace(
        records[0].forcing, rho_source=np.nan, theta_source=np.nan)),)
    series = start_series(2, prev, setup)
    step_record(series, 1, [nan_first + records, records], setup)
    assert math.isnan(series["mass_balance_residual"][1])
    assert math.isnan(series["energy_balance_residual"][1])
    # the NaN stays in its own level's row
    assert series["mass_balance_residual"][2] == mass_balance_residual(records[0], grid)
    assert series["energy_balance_residual"][2] == energy_balance_residual(
        records[0], grid, params)


def traced_run(monkeypatch, *args):
    """run, keeping each level's records and the rows of each step_record call."""
    levels, calls = [], []
    solve, record = stepper.homotopy_solve, stepper.step_record

    def keep(*solve_args, **solve_kwargs):
        new, records = solve(*solve_args, **solve_kwargs)
        levels.append(records)
        return new, records

    def count(series, first, block, *record_args):
        calls.append((first, len(block)))
        record(series, first, block, *record_args)

    monkeypatch.setattr(stepper, "homotopy_solve", keep)
    monkeypatch.setattr(stepper, "step_record", count)
    return run(*args), levels, calls


def smoke_run(smoke_config, t_end, advection="upwind"):
    setup = build_setup(apply_override(smoke_config, "physical.t_end", t_end))
    setup = replace(setup, step=replace(setup.step, advection=advection))
    return setup, mollified_initial_data(setup)


def mms_run(unit_params, cubic_model):
    case = make_default_mms_case(unit_params, cubic_model)
    grid = Grid(32)
    state = State(case.exact_rho(grid.centers, 0.0), case.exact_theta(grid.centers, 0.0),
                  0.0)
    setup = make_setup(unit_params, cubic_model, grid, state, dt=0.0025, eps=1e-8,
                       nu=5e-9, t_end=0.1, forcing=case.forcing, picard_tol=1e-12,
                       advection="central")
    return setup, state


def split_run(cubic_model):
    state = State(np.ones(16), np.full(16, 1.3), 0.0)
    setup = make_setup(make_params(lam=120.0), cubic_model, Grid(16), state, dt=0.02,
                       t_end=0.1)
    return setup, state


def blocked_case(case, monkeypatch, smoke_config, unit_params, cubic_model):
    """run's arguments for one case of the blocked series.

    smoke runs to t = 0.123, so its last block is partial; central advects
    by central differences; mms is forced; split halves its first level;
    one_level_blocks sets the block size to one level here, before the run.
    """
    if case == "smoke":
        return smoke_run(smoke_config, 0.123)
    if case == "central":
        return smoke_run(smoke_config, 0.2, "central")
    if case == "mms":
        return mms_run(unit_params, cubic_model)
    if case == "split":
        return split_run(cubic_model)
    monkeypatch.setattr(stepper, "_STEP_BLOCK_CELLS", 1)
    return smoke_run(smoke_config, 0.05)


@pytest.mark.parametrize("case", ["smoke", "central", "mms", "split", "one_level_blocks"])
def test_step_columns_match_record_at_a_time(case, monkeypatch, smoke_config,
                                             unit_params, cubic_model):
    args = blocked_case(case, monkeypatch, smoke_config, unit_params, cubic_model)
    result, levels, calls = traced_run(monkeypatch, *args)
    grid, params = result.setup.grid, result.setup.params

    block = max(1, stepper._STEP_BLOCK_CELLS // grid.n)
    assert [first for first, _ in calls] == list(range(1, len(levels) + 1, block))
    if case == "smoke":
        assert calls[-1][1] < block       # the last block is partial
    if case == "one_level_blocks":
        assert block == 1
    if case == "mms":
        assert all(srec.forcing is not NO_FORCING for srec in levels[0])
    if case == "split":
        assert len(levels[0]) == 2
    rows = [level_row(records, grid, params) for records in levels]
    for name in ("mass_balance_residual", "energy_balance_residual", "picard_iterations",
                 "envelope_lift", "envelope_gain"):
        column = result.series[name]
        expected = np.array([column[0]] + [row[name] for row in rows], dtype=column.dtype)
        assert column.tobytes() == expected.tobytes(), name


@pytest.fixture(scope="module")
def central_result(smoke_config):
    return run(*smoke_run(smoke_config, 0.2, "central"))


@pytest.mark.parametrize("which", ["smoke_result", "central_result", "smoke", "mms",
                                   "split", "one_level_blocks"])
def test_trajectory_columns_match_row_at_a_time(which, request, monkeypatch,
                                                smoke_config, unit_params, cubic_model):
    if which.endswith("_result"):
        result = request.getfixturevalue(which)
    else:
        result = run(*blocked_case(which, monkeypatch, smoke_config, unit_params,
                                   cubic_model))
    for name, expected in row_at_a_time(result).items():
        assert result.series[name].tobytes() == expected.tobytes(), name
    assert result.series["dissipation"][-1] == sequential_dissipation(result)


def test_step_record_calls_stay_bounded(monkeypatch, smoke_config):
    # No buffer grows with the step count: a 1000-step run holds at most
    # one block of levels at a time.
    result, levels, calls = traced_run(monkeypatch, *smoke_run(smoke_config, 1.0))
    steps, block = len(levels), stepper._STEP_BLOCK_CELLS // result.setup.grid.n
    assert steps == 1000
    assert len(calls) == math.ceil(steps / block)
    assert max(size for _, size in calls) <= block
    assert sum(size for _, size in calls) == steps


@pytest.mark.parametrize("case", ["smoke", "block_of_eight", "equilibrium", "one_step"])
def test_blocked_dissipation_matches_sequential(case, request, monkeypatch,
                                                unit_params, cubic_model):
    if case == "one_step":
        setup = make_setup(unit_params, cubic_model, Grid(8), t_end=1e-3)
        result = run(setup, setup.initial)
    elif case == "equilibrium":
        result = request.getfixturevalue("equilibrium_run")
    elif case == "smoke":
        result = request.getfixturevalue("smoke_result")
    else:
        # the march writes the series, so the block size is set before the run
        smoke_config = request.getfixturevalue("smoke_config")
        monkeypatch.setattr(stepper, "_STEP_BLOCK_CELLS", 8 * smoke_config["grid"]["n"])
        result = run(*smoke_run(smoke_config, 0.199))
    steps, block = (len(result.t) - 1,
                    max(1, stepper._STEP_BLOCK_CELLS // result.setup.grid.n))
    if case == "block_of_eight":
        assert steps == 199 and block == 8
    # smoke fills 25 blocks of 40 levels; the others end in a partial block
    assert bool(steps % block) == (case != "smoke")
    dissipation = certify_run(result).entropy_dissipation
    assert dissipation == sequential_dissipation(result)
    assert math.copysign(1.0, dissipation) == math.copysign(
        1.0, sequential_dissipation(result))


def test_certify_run_passes_smoke(smoke_result):
    report = certify_run(smoke_result)
    assert report.passed
    assert report.failures == ()
    summary = report.summary()
    assert list(summary) == [field.name for field in fields(CertificationReport)]
    assert summary["failures"] == []
    assert summary["passed"] is True
    assert summary["max_mass_residual"] <= 1e-10
    assert summary["min_rho"] > 0 and summary["min_theta"] > 0


def test_certify_run_reports_failures(smoke_result):
    doctored = {"mass_balance_residual": 1.0, "min_rho": -1.0, "min_theta": 0.0,
                "max_theta": 1e9}
    captured = {name: smoke_result.series[name][10] for name in doctored}
    for name, value in doctored.items():
        smoke_result.series[name][10] = value
    try:
        report = certify_run(smoke_result)
        assert not report.passed
        text = " ".join(report.failures)
        assert "mass balance" in text
        assert "vapor density" in text
        assert "nonpositive temperature 0.000e+00" in report.failures
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
        if name in ("max_theta", "envelope_lift", "envelope_gain"):
            assert not report.theta_envelope_ok
    finally:
        column[row] = captured


def test_certify_run_fails_on_nonfinite_dissipation(smoke_result):
    column = smoke_result.series["dissipation"]
    captured = column[-1]
    column[-1] = math.nan
    try:
        report = certify_run(smoke_result)
        assert not report.passed
        assert report.failures == ("entropy dissipation is not finite",)
        assert math.isnan(report.entropy_dissipation)
    finally:
        column[-1] = captured
