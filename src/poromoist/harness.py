"""Verification studies built on top of the stepper.

Three instruments:

* manufactured-solution studies (mms_study) that measure observed
  convergence orders against a known smooth solution, with forcing terms
  and boundary corrections derived in closed form;
* a regularization ladder (regularization_ladder) that shrinks the
  cutoff/mollifier parameters along a geometric schedule and checks that
  the trajectories form a Cauchy sequence while the a priori monitors
  stay level;
* a cartesian parameter sweep (sweep) of certified runs with per-cell
  fault isolation.

Every study marches Setups whole, each holding its own horizon and
forcing: the MMS study sets its horizon t_end and the case's forcing on
each level's Setup, and the ladder its t_end on every rung.  An MMS level
is one run, which is a march of one; the ladder's rungs, and the sweep's
cells of one grid size, step and step count, march as one group
(stepper.march), whose results are bit for bit those of their runs.

Each study judges itself: its report's passed field is its verdict, and
its fields are the keys of its report.json apart from the command and the
MMS case name, so the CLI only writes them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import apply_override, build_setup
from .diagnostics import CertificationReport, certify_run
from .discretization import ForcingValues, Grid, robin_fluxes
from .errors import ConfigError, PoromoistError
from .model import PhysicalParams, SaturationModel, conductivity, saturation_pressure
from .stepper import (
    Forcing,
    RegularizationParams,
    RunResult,
    Setup,
    State,
    StepConfig,
    march,
    mollified_initial_data,
    run,
    step_count,
)

__all__ = [
    "MMS_ORDER_FLOOR",
    "LADDER_VARIATION_CAP",
    "MMSCase",
    "make_default_mms_case",
    "MMSReport",
    "mms_study",
    "LadderReport",
    "regularization_ladder",
    "SweepCell",
    "SweepReport",
    "sweep",
]

# The least observed order, on the finest pair of grids, that passes an MMS
# study of each advection scheme.
MMS_ORDER_FLOOR = {"central": 1.9, "upwind": 0.9}
# The largest relative change of a monitor between a ladder's last two rungs.
LADDER_VARIATION_CAP = 0.10


@dataclass(frozen=True)
class MMSCase:
    """A manufactured exact solution with its matching forcing terms."""

    name: str
    exact_rho: Callable
    exact_theta: Callable
    forcing: Forcing


class _ExactFields(NamedTuple):
    """The manufactured rho and theta at some (x, t) with the derivatives the sources use.

    p_x and p_xx are those of the pressure P = rho theta.  Each field is an
    array on an array of points x and a float at one point.
    """

    r: np.ndarray | float
    r_t: np.ndarray | float
    r_x: np.ndarray | float
    th: np.ndarray | float
    th_t: np.ndarray | float
    th_x: np.ndarray | float
    th_xx: np.ndarray | float
    p_x: np.ndarray | float
    p_xx: np.ndarray | float


def make_default_mms_case(params: PhysicalParams, model: SaturationModel) -> MMSCase:
    """Smooth decaying profiles that stay well inside the admissible cone.

    rho = 2 + cos(pi x) e^-t in [1, 3], theta = 1 + sin(pi x) e^-t / 2 in
    [1/2, 3/2].  The sources are composed from the closed-form partial
    derivatives; the boundary corrections are the gap between the exact
    fluxes and the Robin exchange expressions.  The forcing, terms(x, t),
    evaluates the exact fields once on the cells, for both sources, and
    once at each wall, as a scalar, for both corrections and the Robin
    traces.
    """
    pi = np.pi

    def rho(x, t):
        return 2.0 + np.cos(pi * x) * np.exp(-t)

    def theta(x, t):
        return 1.0 + 0.5 * np.sin(pi * x) * np.exp(-t)

    def solution(x, t) -> _ExactFields:
        """The exact fields at (x, t), with cos(pi x), sin(pi x) and exp(-t) evaluated once.

        Every other expression is the closed form, term for term; r and th
        keep the bits of rho and theta.
        """
        c, s, e = np.cos(pi * x), np.sin(pi * x), np.exp(-t)
        r, r_x, th, th_x = 2.0 + c * e, -pi * s * e, 1.0 + 0.5 * s * e, 0.5 * pi * c * e
        r_xx, th_xx = -pi * pi * c * e, -0.5 * pi * pi * s * e
        return _ExactFields(r, -c * e, r_x, th, -0.5 * s * e, th_x, th_xx,
                            r_x * th + r * th_x,
                            r_xx * th + 2.0 * r_x * th_x + r * th_xx)

    def vapor_source(f: _ExactFields):
        """rho_t - (rho P_x)_x + gamma, and the phase change gamma."""
        gamma = f.r * np.sqrt(f.th) - saturation_pressure(model, f.th)
        return f.r_t - (f.p_xx * f.r + f.p_x * f.r_x) + gamma, gamma

    def heat_source(f: _ExactFields, source, gamma):
        """The conservative heat source minus theta times the vapor source."""
        r, th = f.r, f.th
        kappa = conductivity(r, params)
        conservative = (f.r_t * th + r * f.th_t + params.sigma * f.th_t
                        - (f.p_xx * r * th + f.p_x * f.p_x)
                        - (2.0 * params.kappa2 * r * f.r_x * f.th_x + kappa * f.th_xx)
                        - params.lam * gamma)
        return conservative - th * source

    def rho_corrections(left: _ExactFields, right: _ExactFields):
        """Exact mass flux minus the Robin exchange, at x = 0 and x = 1."""
        f0, f1 = robin_fluxes(float(left.r), float(right.r), params.alpha0,
                              params.alpha1, params.rho_bar0, params.rho_bar1)
        return float(left.r * left.p_x) - f0, float(right.r * right.p_x) - f1

    def theta_corrections(left: _ExactFields, right: _ExactFields):
        """Exact conduction flux minus the Robin exchange, at x = 0 and x = 1."""
        g0, g1 = robin_fluxes(float(left.th), float(right.th), params.beta0,
                              params.beta1, params.theta_bar0, params.theta_bar1)
        return (float(conductivity(left.r, params) * left.th_x) - g0,
                float(conductivity(right.r, params) * right.th_x) - g1)

    def terms(x, t) -> ForcingValues:
        # The walls stay scalar evaluations: numpy's SIMD loops need not give
        # an array element the bits of a scalar call.
        f = solution(x, t)
        source, gamma = vapor_source(f)
        left, right = solution(0.0, t), solution(1.0, t)
        return ForcingValues(np.asarray(source, dtype=float),
                             np.asarray(heat_source(f, source, gamma), dtype=float),
                             rho_corrections(left, right), theta_corrections(left, right))

    return MMSCase("decaying-wave", rho, theta, terms)


@dataclass(frozen=True)
class MMSReport:
    """Observed orders and the verdict: both finest-pair orders reach order_floor."""

    advection: str
    order_floor: float
    grid_sizes: tuple
    dts: tuple
    rho_errors: np.ndarray
    theta_errors: np.ndarray
    rho_orders: np.ndarray
    theta_orders: np.ndarray
    passed: bool


def mms_study(case: MMSCase, params: PhysicalParams, model: SaturationModel,
              grid_sizes: Sequence[int] = (16, 32, 64, 128),
              t_end: float = 0.1, steps_coarse: int | None = None,
              advection: str = "central", eps: float = 1e-8,
              nu: float = 5e-9) -> MMSReport:
    """Observed convergence orders against a manufactured solution.

    Each refinement doubles n (other grid_sizes, or fewer than two, raise
    ConfigError before the first run); the step count grows quadratically for the
    central scheme (so the implicit first-order time error tracks h^2) and
    linearly for upwind.  Each level is one Setup of params with horizon
    t_end, model and the case's forcing on its own grid and step.  Runs
    start from the exact initial profile with a regularization small
    enough that cutoff and mollifier are inert, so the measured error is
    pure discretization error.  Orders are base-2 logs of successive
    final-time L2 error ratios.

    steps_coarse must keep dt below h/drift on the coarsest grid or the
    boundary rows lose diagonal dominance; for the default case the drift
    peaks near 4.7, so the default of 10 steps (central; 20 for upwind)
    over t_end=0.1 at n=16 leaves a comfortable margin (and refinement
    only widens it).
    """
    if len(grid_sizes) < 2 or any(fine != 2 * coarse
                                  for coarse, fine in zip(grid_sizes, grid_sizes[1:])):
        raise ConfigError(f"grid_sizes must hold two or more sizes, each twice the "
                          f"one before, got {list(grid_sizes)}")
    if steps_coarse is None:
        steps_coarse = 10 if advection == "central" else 20
    n0, params = grid_sizes[0], replace(params, t_end=t_end)
    rho_errors, theta_errors, dts = [], [], []
    for n in grid_sizes:
        ratio = n // n0
        steps = steps_coarse * (ratio**2 if advection == "central" else ratio)
        dt = t_end / steps
        grid = Grid(n)
        x = grid.centers
        state0 = State(case.exact_rho(x, 0.0), case.exact_theta(x, 0.0), 0.0)
        step = StepConfig(dt=dt, picard_tol=1e-12, advection=advection)
        setup = Setup(params, model, RegularizationParams(eps=eps, nu=nu), step, grid,
                      state0, case.forcing)
        result = run(setup, setup.initial)
        t_final = float(result.t[-1])
        h = grid.h
        err_r = np.sqrt(h * np.sum((result.rho[-1] - case.exact_rho(x, t_final))**2))
        err_t = np.sqrt(h * np.sum((result.theta[-1] - case.exact_theta(x, t_final))**2))
        rho_errors.append(float(err_r))
        theta_errors.append(float(err_t))
        dts.append(dt)
    rho_errors = np.array(rho_errors)
    theta_errors = np.array(theta_errors)
    rho_orders = np.log2(rho_errors[:-1] / rho_errors[1:])
    theta_orders = np.log2(theta_errors[:-1] / theta_errors[1:])
    floor = MMS_ORDER_FLOOR[advection]
    return MMSReport(advection, floor, tuple(grid_sizes), tuple(dts), rho_errors,
                     theta_errors, rho_orders, theta_orders,
                     bool(rho_orders[-1] >= floor and theta_orders[-1] >= floor))


@dataclass(frozen=True)
class LadderReport:
    """Cauchy-in-regularization evidence from a rung-by-rung comparison.

    passed: the distances fall strictly (monotone) and every monitor's
    variation is at most variation_cap.
    """

    eps_values: tuple
    nu_values: tuple
    differences: np.ndarray
    entropy_monitors: np.ndarray
    l4_monitors: np.ndarray
    monotone: bool
    monitor_variation: dict
    variation_cap: float
    passed: bool


def _trajectory_difference(a: RunResult, b: RunResult) -> float:
    """Left-rule space-time L2 distance between two same-shape trajectories.

    The row sums along axis 1 add in the order of a one-row sum, and the
    levels' terms are accumulated in order, so the value is the level-by-
    level loop's to the bit (tests/oracles.py).
    """
    h = a.setup.grid.h
    dt = a.setup.step.dt
    levels = (((a.rho[:-1] - b.rho[:-1])**2).sum(axis=1)
              + ((a.theta[:-1] - b.theta[:-1])**2).sum(axis=1))
    total = 0.0
    for level in levels.tolist():
        total += dt * h * level
    return float(np.sqrt(total))


def regularization_ladder(setup: Setup, t_end: float | None = None,
                          eps0: float = 0.1, rungs: int = 4,
                          factor: float = 2.0, nu_ratio: float = 0.5) -> LadderReport:
    """Shrink (eps, nu) of setup geometrically and compare successive trajectories.

    Convergence of the regularized family shows up as strictly decreasing
    successive space-time distances, while the entropy and fourth-power
    monitors level off: their relative change between the last two rungs
    may not exceed LADDER_VARIATION_CAP.  Each rung is setup with its own
    (eps, nu) and the horizon t_end, setup's own where None, and starts
    from setup's raw samples mollified at its own radius; the rungs march
    as one group, and the first rung that fails raises its error.  Fewer
    than 3 rungs (two distances) raise ConfigError before any run.
    """
    if rungs < 3:
        raise ConfigError(f"rungs must be at least 3, got {rungs}")
    eps_values = [eps0 * factor**(-j) for j in range(rungs)]
    nu_values = [nu_ratio * eps_j for eps_j in eps_values]
    setup = setup if t_end is None else replace(setup, params=replace(setup.params, t_end=t_end))
    ladder = [replace(setup, reg=RegularizationParams(eps=eps_j, nu=nu_j))
              for eps_j, nu_j in zip(eps_values, nu_values)]
    results = march(ladder, [mollified_initial_data(rung) for rung in ladder])
    for result in results:
        if isinstance(result, PoromoistError):
            raise result

    differences = np.array([
        _trajectory_difference(results[j], results[j - 1])
        for j in range(1, rungs)])
    monotone = bool(np.all(np.diff(differences) < 0))

    entropy = np.array([np.max(res.series["entropy"]) for res in results])
    l4 = np.array([res.series["l4_accumulator"][-1] for res in results])
    variation = {}
    for name, series in (("entropy", entropy), ("l4", l4)):
        coarse, fine = series[-2], series[-1]
        scale = max(abs(coarse), 1e-300)
        variation[name] = float(abs(fine - coarse) / scale)
    settled = all(v <= LADDER_VARIATION_CAP for v in variation.values())
    return LadderReport(tuple(eps_values), tuple(nu_values), differences,
                        entropy, l4, monotone, variation, LADDER_VARIATION_CAP,
                        monotone and settled)


@dataclass(frozen=True)
class SweepCell:
    """One point of a sweep: its overrides and how its run ended.

    status is "ok" for a run that finished, with its certification, and
    otherwise the class name of the library error it raised, with the
    message as detail and no certification.
    """

    overrides: dict
    status: str
    detail: str
    certification: CertificationReport | None

    @property
    def certified(self) -> bool:
        return self.certification is not None and self.certification.passed


@dataclass(frozen=True)
class SweepReport:
    """Every cell of a sweep; passed when every cell certified."""

    axes: dict
    cells: tuple
    passed: bool

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.cells if c.status != "ok")


def sweep(data: dict, axes: dict) -> SweepReport:
    """Run and certify the config data at every point of a cartesian grid.

    Axes are keyed by dotted override paths; cells are visited in sorted
    key order with each axis in its given order, so the report layout is
    deterministic.  Each cell applies its overrides to data, runs
    build_setup, marches from the mollified initial data to the configured
    t_end and calls certify_run; the cells that share a grid size, step and
    step count march as one group, whose runs are certified as it ends, so
    one group's runs are held at a time.  A cell that raises any library
    error is recorded with the exception's class name and message instead
    of aborting the sweep.
    """
    keys = sorted(axes)
    combos = [dict(zip(keys, combo)) for combo in itertools.product(*(axes[k] for k in keys))]
    outcomes, groups = [], {}
    for overrides in combos:
        try:
            config = data
            for path, value in overrides.items():
                config = apply_override(config, path, value)
            setup = build_setup(config)
            outcomes.append((setup, mollified_initial_data(setup)))
        except PoromoistError as exc:
            outcomes.append(exc)
        else:
            shape = (setup.grid.n, setup.step.dt,
                     step_count(setup.params.t_end, setup.step.dt))
            groups.setdefault(shape, []).append(len(outcomes) - 1)
    for members in groups.values():
        setups, starts = zip(*(outcomes[i] for i in members))
        for i, result in zip(members, march(setups, starts)):
            outcomes[i] = (result if isinstance(result, PoromoistError)
                           else certify_run(result))
    cells = tuple(SweepCell(overrides, type(outcome).__name__, str(outcome), None)
                  if isinstance(outcome, PoromoistError)
                  else SweepCell(overrides, "ok", "", outcome)
                  for overrides, outcome in zip(combos, outcomes))
    return SweepReport(dict(axes), cells, all(c.certified for c in cells))
