"""Verification studies built on top of the stepper.

Three instruments:

* manufactured-solution studies (mms_study) that measure observed
  convergence orders against a known smooth solution, with forcing terms
  and boundary corrections derived in closed form;
* a regularization ladder (regularization_ladder) that shrinks the
  cutoff/mollifier parameters along a geometric schedule and checks that
  the trajectories form a Cauchy sequence while the a priori monitors
  stay level;
* a cartesian parameter sweep (sweep) with per-cell fault isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .discretization import Grid, robin_fluxes
from .errors import ConfigError, PoromoistError
from .model import (
    InitialData,
    PhysicalParams,
    SaturationModel,
    conductivity,
    saturation_pressure,
)
from .stepper import (
    Forcing,
    RegularizationParams,
    RunResult,
    State,
    StepConfig,
    run,
)

__all__ = [
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


@dataclass(frozen=True)
class MMSCase:
    """A manufactured exact solution with its matching forcing terms."""

    name: str
    exact_rho: Callable
    exact_theta: Callable
    forcing: Forcing


def make_default_mms_case(params: PhysicalParams, model: SaturationModel) -> MMSCase:
    """Smooth decaying profiles that stay well inside the admissible cone.

    rho = 2 + cos(pi x) e^-t in [1, 3], theta = 1 + sin(pi x) e^-t / 2 in
    [1/2, 3/2].  The sources are composed from the closed-form partial
    derivatives; the boundary corrections are the gap between the exact
    fluxes and the Robin exchange expressions at full coupling s = 1,
    the coupling mms_study runs at.
    """
    pi = np.pi

    def rho(x, t):
        return 2.0 + np.cos(pi * x) * np.exp(-t)

    def rho_t(x, t):
        return -np.cos(pi * x) * np.exp(-t)

    def rho_x(x, t):
        return -pi * np.sin(pi * x) * np.exp(-t)

    def rho_xx(x, t):
        return -pi * pi * np.cos(pi * x) * np.exp(-t)

    def theta(x, t):
        return 1.0 + 0.5 * np.sin(pi * x) * np.exp(-t)

    def theta_t(x, t):
        return -0.5 * np.sin(pi * x) * np.exp(-t)

    def theta_x(x, t):
        return 0.5 * pi * np.cos(pi * x) * np.exp(-t)

    def theta_xx(x, t):
        return -0.5 * pi * pi * np.sin(pi * x) * np.exp(-t)

    def gamma(x, t):
        th = theta(x, t)
        return rho(x, t) * np.sqrt(th) - saturation_pressure(model, th)

    def pressure_x(x, t):
        return rho_x(x, t) * theta(x, t) + rho(x, t) * theta_x(x, t)

    def pressure_xx(x, t):
        return (rho_xx(x, t) * theta(x, t) + 2.0 * rho_x(x, t) * theta_x(x, t)
                + rho(x, t) * theta_xx(x, t))

    def rho_source(x, t):
        # rho_t - (rho P_x)_x + gamma, with P = rho theta
        return (rho_t(x, t)
                - (pressure_xx(x, t) * rho(x, t) + pressure_x(x, t) * rho_x(x, t))
                + gamma(x, t))

    def theta_source_cons(x, t):
        r, th = rho(x, t), theta(x, t)
        px = pressure_x(x, t)
        kappa = conductivity(r, params)
        return (rho_t(x, t) * th + r * theta_t(x, t) + params.sigma * theta_t(x, t)
                - (pressure_xx(x, t) * r * th + px * px)
                - (2.0 * params.kappa2 * r * rho_x(x, t) * theta_x(x, t)
                   + kappa * theta_xx(x, t))
                - params.lam * gamma(x, t))

    def theta_source(x, t):
        return theta_source_cons(x, t) - theta(x, t) * rho_source(x, t)

    def mass_flux(xv, t):
        return float(rho(xv, t) * pressure_x(xv, t))

    def cond_flux(xv, t):
        return float(conductivity(rho(xv, t), params) * theta_x(xv, t))

    def rho_flux(t):
        f0, f1 = robin_fluxes(float(rho(0.0, t)), float(rho(1.0, t)), 1.0,
                              params.alpha0, params.alpha1,
                              params.rho_bar0, params.rho_bar1)
        return mass_flux(0.0, t) - f0, mass_flux(1.0, t) - f1

    def theta_flux(t):
        g0, g1 = robin_fluxes(float(theta(0.0, t)), float(theta(1.0, t)), 1.0,
                              params.beta0, params.beta1,
                              params.theta_bar0, params.theta_bar1)
        return cond_flux(0.0, t) - g0, cond_flux(1.0, t) - g1

    case_forcing = Forcing(rho_source=rho_source, theta_source=theta_source,
                           rho_flux=rho_flux, theta_flux=theta_flux)
    return MMSCase("decaying-wave", rho, theta, case_forcing)


@dataclass(frozen=True)
class MMSReport:
    advection: str
    grid_sizes: tuple
    dts: tuple
    rho_errors: np.ndarray
    theta_errors: np.ndarray
    rho_orders: np.ndarray
    theta_orders: np.ndarray


def mms_study(case: MMSCase, params: PhysicalParams, model: SaturationModel,
              grid_sizes: Sequence[int] = (16, 32, 64, 128),
              t_end: float = 0.1, steps_coarse: int | None = None,
              advection: str = "central", eps: float = 1e-8,
              nu: float = 5e-9) -> MMSReport:
    """Observed convergence orders against a manufactured solution.

    Each refinement doubles n (other grid_sizes, or fewer than two, raise
    ConfigError before the first run); the step count grows quadratically for the
    central scheme (so the implicit first-order time error tracks h^2) and
    linearly for upwind.  Runs start from the exact initial profile with a
    regularization small enough that cutoff and mollifier are inert, so
    the measured error is pure discretization error.  Orders are base-2
    logs of successive final-time L2 error ratios.

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
    n0 = grid_sizes[0]
    rho_errors, theta_errors, dts = [], [], []
    for n in grid_sizes:
        ratio = n // n0
        steps = steps_coarse * (ratio**2 if advection == "central" else ratio)
        dt = t_end / steps
        grid = Grid(n)
        x = grid.centers
        state0 = State(case.exact_rho(x, 0.0), case.exact_theta(x, 0.0), 0.0)
        cfg = StepConfig(dt=dt, picard_tol=1e-12, advection=advection)
        reg = RegularizationParams(eps=eps, nu=nu, s=1.0)
        result = run(None, cfg, reg, params, model, grid, t_end=t_end,
                     forcing=case.forcing, initial_state=state0)
        t_final = float(result.t[-1])
        h = grid.h
        err_r = np.sqrt(h * np.sum((result.rho[-1] - case.exact_rho(x, t_final))**2))
        err_t = np.sqrt(h * np.sum((result.theta[-1] - case.exact_theta(x, t_final))**2))
        rho_errors.append(float(err_r))
        theta_errors.append(float(err_t))
        dts.append(dt)
    rho_errors = np.array(rho_errors)
    theta_errors = np.array(theta_errors)
    return MMSReport(advection, tuple(grid_sizes), tuple(dts), rho_errors, theta_errors,
                     np.log2(rho_errors[:-1] / rho_errors[1:]),
                     np.log2(theta_errors[:-1] / theta_errors[1:]))


@dataclass(frozen=True)
class LadderReport:
    """Cauchy-in-regularization evidence from a rung-by-rung comparison."""

    eps_values: tuple
    nu_values: tuple
    differences: np.ndarray
    entropy_monitors: np.ndarray
    l4_monitors: np.ndarray
    monotone: bool
    monitor_variation: dict


def _trajectory_difference(a: RunResult, b: RunResult) -> float:
    """Left-rule space-time L2 distance between two same-shape trajectories."""
    h = a.grid.h
    dt = a.cfg.dt
    total = 0.0
    for k in range(len(a.t) - 1):
        total += dt * h * float(
            np.sum((a.rho[k] - b.rho[k])**2)
            + np.sum((a.theta[k] - b.theta[k])**2))
    return float(np.sqrt(total))


def regularization_ladder(initial: InitialData | None, cfg: StepConfig,
                          params: PhysicalParams, model: SaturationModel,
                          grid: Grid, t_end: float | None = None,
                          eps0: float = 0.1, rungs: int = 4,
                          factor: float = 2.0, nu_ratio: float = 0.5,
                          initial_state: State | None = None) -> LadderReport:
    """Shrink (eps, nu) geometrically and compare successive trajectories.

    Convergence of the regularized family shows up as strictly decreasing
    successive space-time distances, while the entropy and fourth-power
    monitors must level off.  Passing initial_state pins the start point
    so it does not move with the mollifier radius.  Fewer than 3 rungs (two
    distances) raise ConfigError before any run.
    """
    if rungs < 3:
        raise ConfigError(f"rungs must be at least 3, got {rungs}")
    eps_values, nu_values, results = [], [], []
    for j in range(rungs):
        eps_j = eps0 * factor**(-j)
        nu_j = nu_ratio * eps_j
        reg = RegularizationParams(eps=eps_j, nu=nu_j, s=1.0)
        results.append(run(initial, cfg, reg, params, model, grid, t_end=t_end,
                           initial_state=initial_state))
        eps_values.append(eps_j)
        nu_values.append(nu_j)

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
    return LadderReport(tuple(eps_values), tuple(nu_values), differences,
                        entropy, l4, monotone, variation)


@dataclass(frozen=True)
class SweepCell:
    overrides: dict
    status: str
    detail: str
    payload: object


@dataclass(frozen=True)
class SweepReport:
    cells: tuple

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.cells if c.status != "ok")


def sweep(axes: dict, run_cell: Callable[[dict], object]) -> SweepReport:
    """Run every point of a cartesian parameter grid, isolating failures.

    Axes are keyed by dotted override paths; cells are visited in sorted
    key order with each axis in its given order, so the report layout is
    deterministic.  A cell that raises any library error is recorded with
    the exception's class name and message instead of aborting the sweep.
    """
    keys = sorted(axes)
    cells = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        try:
            payload = run_cell(dict(overrides))
        except PoromoistError as exc:
            cells.append(SweepCell(overrides, type(exc).__name__, str(exc), None))
        else:
            cells.append(SweepCell(overrides, "ok", "", payload))
    return SweepReport(tuple(cells))
