"""stepper.march: members marched in lockstep end as their own runs, bit for bit."""
from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from poromoist import harness, stepper
from poromoist.config import apply_override, build_setup
from poromoist.diagnostics import certify_run
from poromoist.discretization import Grid
from poromoist.errors import PoromoistError
from poromoist.model import PowerLawSaturation
from poromoist.stepper import State, march, mollified_initial_data, run

from tests.conftest import make_params, make_setup


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def logged(monkeypatch) -> tuple[dict, list]:
    """The records of every level that reaches step_record, per setup, and the group sweeps.

    Each level is the tuple of its substeps' StepRecords.  The group sweeps
    count the vapor assemblies whose iterate has a member axis.
    """
    records, grouped = {}, []
    step_record, assemble = stepper.step_record, stepper.assemble_rho_system

    def recording(series, first, levels, setup):
        records.setdefault(id(setup), []).extend(levels)
        return step_record(series, first, levels, setup)

    def assembling(prev, rho_it, *args, **kwargs):
        if rho_it.ndim > 1:
            grouped.append(rho_it.shape[1])
        return assemble(prev, rho_it, *args, **kwargs)

    monkeypatch.setattr(stepper, "step_record", recording)
    monkeypatch.setattr(stepper, "assemble_rho_system", assembling)
    return records, grouped


def sweeps(levels) -> list:
    """The sweeps of each level's substeps."""
    return [tuple(record.sweeps for record in level) for level in levels]


def assert_same_records(got, want):
    """Every field of every record, bit for bit, level by level."""
    assert [len(level) for level in got] == [len(level) for level in want]
    for mine, theirs in zip((r for level in got for r in level),
                            (r for level in want for r in level)):
        for name in ("rho", "theta", "theta_iter", "mass_flux", "dt", "update"):
            assert same_bits(getattr(mine, name), getattr(theirs, name)), name
        for name, values in vars(theirs.coeffs).items():
            assert same_bits(getattr(mine.coeffs, name), values), f"coeffs.{name}"
        assert same_bits(mine.prev.t, theirs.prev.t)
        assert mine.sweeps == theirs.sweeps
        assert mine.forcing is theirs.forcing


def outcome(setup, start, t_end=None):
    try:
        return run(setup, start, t_end)
    except PoromoistError as exc:
        return exc


def assert_same_run(got, want):
    assert same_bits(got.rho, want.rho)
    assert same_bits(got.theta, want.theta)
    assert same_bits(got.t, want.t)
    assert got.t_end == want.t_end and got.setup is want.setup
    assert set(got.series) == set(want.series)
    for name, values in want.series.items():
        assert same_bits(got.series[name], values), name


def assert_same_outcome(got, want):
    if isinstance(want, PoromoistError):
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert got.sweeps == want.sweeps
        if hasattr(want, "record"):
            assert_same_records([(got.record,)], [(want.record,)])
    else:
        assert_same_run(got, want)


def mixed_group(cubic_model):
    """Upwind and central, two eps (one kernel the identity), two lambda, two
    curves and two left exchange coefficients, on one grid and step."""
    grid = Grid(32)
    bump = State(1.0 + np.exp(-((grid.centers - 0.5) / 0.15) ** 2), np.ones(grid.n), 0.0)
    other_curve = PowerLawSaturation(c=1.5, q=3.0, eta=1.0)
    members = [
        (make_params(lam=0.5), cubic_model, 0.05, "upwind"),
        (make_params(lam=2.0), cubic_model, 0.05, "central"),
        (make_params(lam=2.0), other_curve, 0.02, "upwind"),
        (make_params(lam=0.5, alpha0=2.0), cubic_model, 0.02, "central"),
    ]
    return [make_setup(params, model, grid, bump, dt=2e-3, eps=eps, nu=0.5 * eps,
                       advection=scheme)
            for params, model, eps, scheme in members]


def test_mixed_group_marches_as_its_runs(monkeypatch, cubic_model):
    setups = mixed_group(cubic_model)
    starts = [mollified_initial_data(setup) for setup in setups]
    records, grouped = logged(monkeypatch)
    want = [run(setup, start, 0.06) for setup, start in zip(setups, starts)]
    assert not grouped
    alone = {id(setup): records.pop(id(setup)) for setup in setups}
    got = march(setups, starts, 0.06)
    for result, expected in zip(got, want):
        assert_same_run(result, expected)
    for setup in setups:
        assert_same_records(records[id(setup)], alone[id(setup)])
    # the members swept together: fewer group sweeps than member sweeps
    member_sweeps = sum(sum(map(sum, sweeps(levels))) for levels in alone.values())
    assert grouped[0] == 4 and 30 <= len(grouped) < member_sweeps


def test_kernel_error_in_a_group_sends_its_members_through_the_level_alone(
        monkeypatch, cubic_model):
    # The member with alpha0 = 2 has its second vapor assembly of level 25
    # raise, in its own run and in the group alike; there member 1 has
    # already converged, on its first sweep, and members 0 and 2 are still
    # sweeping.
    setups = mixed_group(cubic_model)
    starts = [mollified_initial_data(setup) for setup in setups]
    level, failing = 25, 3
    prior = run(setups[failing], starts[failing], 0.06).rho[level - 1]
    records, _ = logged(monkeypatch)
    assemble, firsts, events = stepper.assemble_rho_system, [], []

    def injecting(prev, rho_it, theta_it, setup, dt, *args):
        iterates = rho_it.reshape(len(rho_it), -1)
        previous = prev.rho.reshape(len(rho_it), -1)
        keyed = np.broadcast_to(setup.params.alpha0, iterates.shape[1:]) == 2.0
        for c in np.flatnonzero(keyed):
            if dt == setups[failing].step.dt and np.array_equal(previous[:, c], prior):
                if firsts and not np.array_equal(iterates[:, c], firsts[0]):
                    events.append("raised in group" if rho_it.ndim > 1 else "raised alone")
                    raise stepper.NonfiniteIterate("injected")
                firsts[:] = [iterates[:, c].copy()]
        events.append(iterates.shape[1] if rho_it.ndim > 1 else 0)
        return assemble(prev, rho_it, theta_it, setup, dt, *args)

    monkeypatch.setattr(stepper, "assemble_rho_system", injecting)
    want = [run(setup, start, 0.06) for setup, start in zip(setups, starts)]
    alone = {id(setup): records.pop(id(setup)) for setup in setups}
    levels = [sweeps(alone[id(setup)])[level - 1] for setup in setups]
    assert levels[1] == (1,) and min(levels[0] + levels[2]) > 1
    assert len(levels[failing]) > 1 and events.count("raised alone") == 1    # it split
    del events[:]
    got = march(setups, starts, 0.06)
    for result, expected in zip(got, want):
        assert_same_run(result, expected)
    for setup in setups:
        assert_same_records(records[id(setup)], alone[id(setup)])
    assert events.count("raised in group") == 1 and events.count("raised alone") == 1
    # members 0, 2 and 3 take level 25 alone, then all four sweep together
    after = events[events.index("raised in group") + 1:]
    together = after.index(4)
    assert set(after[:together]) == {0, "raised alone"}
    assert together == sum(levels[0]) + sum(levels[2]) + sum(levels[failing])


def harder_cells(smoke_config) -> list:
    """Cells of the harder grid at dt = 0.08: the lambda = 250 cell loses dominance
    in lockstep and splits, and with a budget of one sweep it fails."""
    data = copy.deepcopy(smoke_config)
    for path, value in (("physical.t_end", 0.4), ("output.cadence", 0.4),
                        ("stepping.dt", 0.08), ("initial.theta.value", 1.3)):
        data = apply_override(data, path, value)
    return [build_setup(apply_override(apply_override(data, "physical.lambda", lam),
                                       "stepping.max_picard", budget))
            for lam, budget in ((60.0, 50), (250.0, 50), (250.0, 1), (120.0, 50))]


def test_failing_member_leaves_the_others_marching(monkeypatch, smoke_config):
    setups = harder_cells(smoke_config)
    starts = [mollified_initial_data(setup) for setup in setups]
    records, grouped = logged(monkeypatch)
    want = [outcome(setup, start) for setup, start in zip(setups, starts)]
    alone = {id(setup): records.pop(id(setup), []) for setup in setups}
    failures = []
    check_rows = stepper._check_rows

    def checking(name, band):
        try:
            check_rows(name, band)
        except PoromoistError as exc:
            failures.append(band.ndim > 2)
            raise

    monkeypatch.setattr(stepper, "_check_rows", checking)
    got = march(setups, starts)
    assert [type(w).__name__ for w in want] == ["RunResult", "RunResult",
                                                 "PicardDivergence", "RunResult"]
    assert any(failures)    # a kernel error inside a group
    for result, expected, setup in zip(got, want, setups):
        assert_same_outcome(result, expected)
        assert_same_records(records.get(id(setup), []), alone[id(setup)])
    assert max(map(len, records[id(setups[1])])) > 1    # it split
    assert grouped


def test_a_march_whose_members_all_fail_ends_with_their_errors(smoke_config):
    failing = harder_cells(smoke_config)[2]
    setups = [failing, replace(failing, params=replace(failing.params, lam=240.0))]
    starts = [mollified_initial_data(setup) for setup in setups]
    want = [outcome(setup, start) for setup, start in zip(setups, starts)]
    # both fail before the last level, so the march outlives its members
    last = failing.params.t_end - failing.step.dt
    assert all(error.record.prev.t < last for error in want)
    for got, expected in zip(march(setups, starts), want):
        assert_same_outcome(got, expected)


def test_sweep_cells_of_a_group_report_their_own_runs(smoke_config):
    data = copy.deepcopy(smoke_config)
    for path, value in (("physical.t_end", 0.4), ("output.cadence", 0.4),
                        ("stepping.dt", 0.08), ("initial.theta.value", 1.3),
                        ("physical.lambda", 250.0)):
        data = apply_override(data, path, value)
    report = harness.sweep(data, {"stepping.max_picard": [50, 1],
                                  "grid.n": [100, 3]})
    # grid.n = 3 fails before a march; the other two cells march as one group
    assert [cell.status for cell in report.cells] == [
        "ok", "PicardDivergence", "ValidationError", "ValidationError"]
    for cell in report.cells:
        config = data
        for path, value in cell.overrides.items():
            config = apply_override(config, path, value)
        try:
            setup = build_setup(config)
            want = outcome(setup, mollified_initial_data(setup))
        except PoromoistError as exc:
            want = exc
        if isinstance(want, PoromoistError):
            assert (cell.status, cell.detail) == (type(want).__name__, str(want))
            assert cell.certification is None
        else:
            assert (cell.status, cell.detail) == ("ok", "")
            assert cell.certification == certify_run(want)


def test_members_that_cannot_start_fail_alone(unit_params, cubic_model):
    grid = Grid(16)
    setup = make_setup(unit_params, cubic_model, grid, dt=1e-3)
    other = replace(setup, reg=stepper.RegularizationParams(eps=0.02, nu=0.01))
    bad = State(-np.ones(grid.n), np.ones(grid.n), 0.0)
    got = march([setup, other, setup], [setup.initial, bad, setup.initial], 0.01)
    assert type(got[1]).__name__ == "ConfigError"
    assert str(got[1]) == "negative vapor density at t=0.0"
    for result in (got[0], got[2]):
        assert_same_run(result, run(setup, setup.initial, 0.01))
    assert march([setup], [bad], 0.01)[0].args == got[1].args
    assert march([], [], 0.01) == []


def test_members_must_share_grid_step_and_count(unit_params, cubic_model):
    setup = make_setup(unit_params, cubic_model, Grid(16), dt=1e-3)
    coarse = replace(setup, step=replace(setup.step, dt=2e-3))
    with pytest.raises(ValueError, match="share grid.n, dt and the step count"):
        march([setup, coarse], [setup.initial, setup.initial], 0.01)


def test_each_member_needs_one_start(unit_params, cubic_model):
    setup = make_setup(unit_params, cubic_model, Grid(16), dt=1e-3)
    for starts in ([setup.initial], [setup.initial] * 3):
        with pytest.raises(ValueError, match="one start per setup"):
            march([setup, setup], starts, 0.01)
