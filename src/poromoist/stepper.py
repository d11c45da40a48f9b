"""Implicit time stepping for the coupled vapor/heat system.

Each backward-Euler step solves the regularized coupled system

    rho_t - ((eps + m_nu(rho theta)) rho_x)_x - (rho * m_eps(m_eps(rho) theta_x))_x
          + s rho X(sqrt(theta)) = s X(p_s(theta))

    (rho + sigma) theta_t - ((kappa1 + kappa2 m_eps(rho)^2) theta_x)_x
          - F theta_x - s rho X(sqrt(theta)) theta + s (lam + theta) p_s(theta)
          = s lam rho X(sqrt(theta))

where m_mu is the mollifier, X the cutoff at level 1/eps, F the total mass
flux (the expression under the divergence of the vapor equation), and
s in [0, 1] the coupling strength used for continuation.  Robin exchange
conditions close both equations, with ambient values scaled by s.

The two equations are solved alternately inside a per-step fixed-point
loop: coefficients and the lagged saturation term are frozen at the
sweep's input, each sweep solves two tridiagonal systems, and the loop
ends when the combined relative update of a sweep's output from its own
input falls below picard_tol.  From the third sweep of an attempt on, the
input is not the last output but an Anderson mix of the attempt's last
ANDERSON_DEPTH + 1 inputs and outputs (a least-squares combination,
Walker & Ni 2011), clamped elementwise to at least min(g, 0.5 g) of the
last output g, so rho and theta stay positive wherever g is; on the stiff
benchmark config no step then takes more than 12 sweeps, against 35 with
plain sweeps.  Each attempt and each ramp stage starts without history,
and a step that converges within two sweeps is never mixed.  run starts
each step's sweeps from an extrapolation of the accepted states (the
previous state on the first step, then a polynomial through the last
states, of degree 4 from the fifth step on, clamped to at least half the
previous state), which on the smoke config lets 874 of 1000 steps
converge on their first sweep.  homotopy_solve then makes
its attempts in one order: the predicted start, the previous state, and
a ramp of s values that warm-starts each stage from the last one that
produced an iterate.  One failure rule covers every attempt: a
StepFailure (divergence, a nonfinite iterate or lost diagonal dominance)
adds the attempt's sweeps to the step's count and moves on to the next
attempt, and the step fails only with the final ramp stage's error.
Every accepted iterate is a plain sweep output of the assembled rows,
whatever it started from (a mixed input is never accepted), and each step
leaves one StepRecord: its sweeps and what its last sweep froze.
diagnostics.step_record writes the step's row of the columns that need it,
and after the march diagnostics.run_series adds the functionals of the
trajectory alone, once per run.  Only the start state is checked for the
cone rho >= 0, theta > 0; certify_run judges the march.  Forcing terms
are evaluated once per step, at the new time, and shared by every sweep;
an unforced run shares NO_FORCING, whose zero terms change no value.

Spatial discretization is a conservative finite-volume scheme: the heat
equation's convective face coefficients are literally the vapor
equation's mass fluxes evaluated at the fresh vapor solution, so the
energy carried by convection is consistent with the mass actually moving.
The wall traces and the Robin exchange fluxes come from
discretization.boundary_traces and discretization.robin_fluxes.

The sweep kernel (compute_flux_coefficients, the two assemblies and
solve_thomas) is most of a run's time, so it is kept lean.  The face
coefficients are frozen once per sweep, with dface/h formed once; the
donor products are min(V, 0) and max(V, 0) of the face speed V for upwind
and 0.5 V for central (_donor_split).  Each assembly writes its rows into
one (4, n) band (lower shifted by one cell, diag, upper, rhs), scans the
band once for nonfinite entries (NonfiniteIterate, naming the system and
row), then checks strict diagonal dominance (DominanceViolation), and
hands the band to the solver as views, with no copy and no second scan.
solve_thomas copies the band into its own buffer and solves it with
numpy's LAPACK, falling back to its Python loop with the same bits (see
linalg).  The in-place updates apply the same operations in the same order
as the plain expressions they stand for, so every entry keeps its value
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diagnostics import run_series, start_series, step_record
from .discretization import Grid, boundary_traces, cutoff, mollify, robin_fluxes
from .errors import (
    ConfigError,
    DimensionMismatch,
    DominanceViolation,
    NonfiniteIterate,
    PicardDivergence,
    StepFailure,
)
from .linalg import TridiagonalSystem, solve_thomas
from .model import (
    InitialData,
    PhysicalParams,
    SaturationModel,
    conductivity,
    saturation_pressure,
)

__all__ = [
    "RegularizationParams",
    "State",
    "StepConfig",
    "Forcing",
    "ForcingValues",
    "NO_FORCING",
    "StepRecord",
    "RunResult",
    "mollified_initial_data",
    "assemble_rho_system",
    "assemble_theta_system",
    "picard_step",
    "homotopy_solve",
    "step_count",
    "run",
]

UPDATE_FLOOR = 1e-30
# Residual differences that mix each sweep input from the third on (see _picard_sweeps).
ANDERSON_DEPTH = 2


@dataclass(frozen=True)
class RegularizationParams:
    """Cutoff level 1/eps, mollifier radii (eps outer, nu inner), coupling s."""

    eps: float
    nu: float
    s: float = 1.0

    def __post_init__(self):
        if not (0 < self.nu < self.eps <= 1):
            raise ConfigError(
                f"regularization requires 0 < nu < eps <= 1, got eps={self.eps}, nu={self.nu}"
            )
        if not (0 <= self.s <= 1):
            raise ConfigError(f"coupling strength must lie in [0, 1], got {self.s}")

    def validate_against(self, params: PhysicalParams) -> None:
        limit = min(params.ambient_min, 1.0)
        if self.eps > limit:
            raise ConfigError(
                f"eps={self.eps} exceeds min(ambient values, 1) = {limit}; "
                "the cutoff would clip ambient data"
            )


@dataclass(frozen=True)
class State:
    """Vapor density and temperature at one time.

    rho and theta are the cell values on one grid: finite 1-D float arrays
    of equal length, with rho >= 0 and theta > 0.  A State checks none of
    this; run checks its start, and certify_run the states it marched.
    """

    rho: np.ndarray
    theta: np.ndarray
    t: float


@dataclass(frozen=True)
class StepConfig:
    dt: float
    picard_tol: float = 1e-10
    max_picard: int = 50
    s_ramp_steps: int = 8
    advection: str = "upwind"

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.picard_tol > 0:
            raise ConfigError("picard_tol must be positive")
        if self.max_picard < 1 or self.s_ramp_steps < 1:
            raise ConfigError("max_picard and s_ramp_steps must be at least 1")
        if self.advection not in ("upwind", "central"):
            raise ConfigError(
                f"advection must be 'upwind' or 'central', got {self.advection!r}"
            )


@dataclass(frozen=True)
class ForcingValues:
    """A Forcing evaluated at one time: cell sources and wall corrections."""

    rho_source: np.ndarray | float
    theta_source: np.ndarray | float
    rho_flux: tuple[float, float]
    theta_flux: tuple[float, float]


# An unforced run's terms: x + 0.0 is x, so unforced runs need no own path.
NO_FORCING = ForcingValues(0.0, 0.0, (0.0, 0.0), (0.0, 0.0))


@dataclass(frozen=True)
class Forcing:
    """Manufactured sources and boundary-flux corrections.

    Sources source(x, t) are added to the right-hand sides.  The flux
    corrections rho_flux(t) and theta_flux(t) return the pair (g0, g1)
    added to the Robin face fluxes at the left and right walls.  Used by
    the manufactured-solution studies; production runs get NO_FORCING.
    """

    rho_source: Callable
    theta_source: Callable
    rho_flux: Callable[[float], tuple[float, float]]
    theta_flux: Callable[[float], tuple[float, float]]

    def at(self, x: np.ndarray, t: float) -> ForcingValues:
        """Evaluate every term once, at time t on the cell centers x."""
        return ForcingValues(np.asarray(self.rho_source(x, t), dtype=float),
                             np.asarray(self.theta_source(x, t), dtype=float),
                             self.rho_flux(t), self.theta_flux(t))


@dataclass
class FluxCoefficients:
    """Frozen face data shared by both assemblies within one sweep.

    Interior face j (j = 1..n-1) of the vapor flux is
    F_j = A[j-1] rho[j-1] + B[j-1] rho[j].
    """

    A: np.ndarray
    B: np.ndarray
    chi_sqrt: np.ndarray
    chi_ps: np.ndarray
    ps_iter: np.ndarray


@dataclass
class StepRecord:
    """One step's solve: its sweeps and what its last sweep froze.

    sweeps counts the step's sweeps, failed attempts included; update is the
    last sweep's relative update, and s_path the couplings solved at (the
    target, then any ramp stages).  rho and theta are the last sweep's
    solution, theta_iter the iterate its coefficients were frozen at, and
    forcing the terms it was given.
    """

    prev: State
    rho: np.ndarray
    theta: np.ndarray
    s: float
    dt: float
    theta_iter: np.ndarray
    coeffs: FluxCoefficients
    mass_flux: np.ndarray          # n+1 face values at the solution
    forcing: ForcingValues
    sweeps: int
    update: float
    s_path: tuple


@dataclass
class RunResult:
    """Trajectory plus per-step diagnostics for one simulation.

    Row k of rho and theta holds the cell values at time t[k]; row 0 is the
    start state.  series maps each diagnostic's name (see
    diagnostics.SERIES_COLUMNS, plus heating_rate) to a steps+1 array whose
    entry k describes the same time level.
    """

    rho: np.ndarray                # (steps+1, n)
    theta: np.ndarray              # (steps+1, n)
    t: np.ndarray                  # steps+1
    series: dict                   # name -> steps+1
    params: PhysicalParams
    reg: RegularizationParams
    cfg: StepConfig
    grid: Grid
    model: SaturationModel
    t_end: float


def mollified_initial_data(data: InitialData, reg: RegularizationParams,
                           grid: Grid) -> State:
    """Smooth the initial samples over radius eps and lift rho by eps.

    The lift keeps the vapor density strictly positive so the degenerate
    diffusion coefficient starts away from zero.
    """
    if data.rho0.shape != (grid.n,):
        raise ConfigError(
            f"initial data has {data.rho0.shape[0]} samples for an n={grid.n} grid"
        )
    rho = mollify(data.rho0, reg.eps, grid.h) + reg.eps
    theta = mollify(data.theta0, reg.eps, grid.h)
    return State(rho, theta, 0.0)


def _cell_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Centered interior differences with one-sided closures at the walls."""
    g = np.empty_like(values)
    g[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    g[0] = (values[1] - values[0]) / h
    g[-1] = (values[-1] - values[-2]) / h
    return g


def _donor_split(speed: np.ndarray, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """The face speed times its donor weights (left cell, right cell).

    The flux term +V q transports q toward decreasing x when V > 0, so the
    donor cell sits on the right of the face: upwind gives (min(V, 0),
    max(V, 0)), each entry the speed times a weight 0 or 1 (0.5 each where
    V = 0); central gives 0.5 V to both cells, as one shared array.
    """
    if scheme == "central":
        half = 0.5 * speed
        return half, half
    return np.minimum(speed, 0.0), np.maximum(speed, 0.0)


def _new_band(n: int) -> tuple[np.ndarray, ...]:
    """A (4, n) row buffer for TridiagonalSystem.from_band and its four views."""
    band = np.empty((4, n))
    band[0, 0] = band[2, -1] = 0.0
    return band, band[0, 1:], band[1], band[2, :-1], band[3]


def _check_rows(name: str, band: np.ndarray) -> None:
    """Finite entries first, then strict diagonal dominance of every row.

    The finiteness scan must come first: a NaN margin passes the dominance
    test, because it compares false with <= 0.
    """
    if not np.isfinite(band).all():
        row = int(np.argmin(np.isfinite(band).all(axis=0)))
        raise NonfiniteIterate(f"nonfinite entries in {name} system row {row}")
    mag = np.abs(band[:3])
    margin = mag[1] - (mag[0] + mag[2])
    worst = int(margin.argmin())
    if margin[worst] <= 0:
        raise DominanceViolation(name, worst, float(margin[worst]))


def compute_flux_coefficients(rho_iter: np.ndarray, theta_iter: np.ndarray,
                              reg: RegularizationParams, grid: Grid,
                              model: SaturationModel,
                              scheme: str) -> FluxCoefficients:
    """Freeze the face coefficients and reaction factors at one iterate."""
    h = grid.h
    dcell = mollify(rho_iter * theta_iter, reg.nu, h)
    dface_h = (reg.eps + 0.5 * (dcell[:-1] + dcell[1:])) / h
    rho_sm = mollify(rho_iter, reg.eps, h)
    vcell = mollify(rho_sm * _cell_gradient(theta_iter, h), reg.eps, h)
    vm, vp = _donor_split(0.5 * (vcell[:-1] + vcell[1:]), scheme)
    A = vm - dface_h
    B = vp + dface_h
    chi_sqrt = cutoff(np.sqrt(np.maximum(theta_iter, 0.0)), reg.eps)
    ps_iter = saturation_pressure(model, theta_iter)
    chi_ps = cutoff(ps_iter, reg.eps)
    return FluxCoefficients(A, B, chi_sqrt, chi_ps, ps_iter)


def assemble_rho_system(prev: State, rho_iter: np.ndarray, theta_iter: np.ndarray,
                        s: float, reg: RegularizationParams, params: PhysicalParams,
                        model: SaturationModel, grid: Grid, dt: float,
                        scheme: str = "upwind", forcing: ForcingValues = NO_FORCING,
                        ) -> tuple[TridiagonalSystem, FluxCoefficients]:
    """Backward-Euler rows for the vapor density with frozen coefficients.

    Interior rows are exact flux differences, so summing the equations
    telescopes to the two wall fluxes; the mass-balance diagnostic relies
    on this.  Wall rows replace the face flux with the Robin exchange
    expression evaluated at the extrapolated trace.
    """
    n, h = grid.n, grid.h
    coeffs = compute_flux_coefficients(rho_iter, theta_iter, reg, grid, model, scheme)
    band, lower, diag, upper, rhs = _new_band(n)

    np.divide(coeffs.A, h, out=lower)
    np.divide(coeffs.B, h, out=upper)     # B/h until negated below
    np.multiply(s, coeffs.chi_sqrt, out=diag)
    diag += 1.0 / dt
    diag[:-1] -= lower
    diag[1:] += upper
    np.negative(upper, out=upper)

    np.divide(prev.rho, dt, out=rhs)
    rhs += s * coeffs.chi_ps
    rhs += forcing.rho_source
    g0, g1 = forcing.rho_flux

    diag[0] += 1.5 * params.alpha0 / h
    upper[0] -= 0.5 * params.alpha0 / h
    diag[-1] += 1.5 * params.alpha1 / h
    lower[-1] -= 0.5 * params.alpha1 / h
    rhs[0] += (params.alpha0 * s * params.rho_bar0 - g0) / h
    rhs[-1] += (params.alpha1 * s * params.rho_bar1 + g1) / h

    _check_rows("vapor", band)
    return TridiagonalSystem.from_band(band), coeffs


def evaluate_mass_flux(rho_new: np.ndarray, coeffs: FluxCoefficients, s: float,
                       params: PhysicalParams, grid: Grid,
                       forcing: ForcingValues) -> np.ndarray:
    """All n+1 face values of the vapor flux at the fresh solution.

    Uses exactly the assembled coefficient arrays, so these numbers are the
    fluxes the solved rows actually contained.
    """
    flux = np.empty(grid.n + 1)
    np.multiply(coeffs.A, rho_new[:-1], out=flux[1:-1])
    flux[1:-1] += coeffs.B * rho_new[1:]
    f0, f1 = robin_fluxes(*boundary_traces(rho_new), s, params.alpha0,
                          params.alpha1, params.rho_bar0, params.rho_bar1)
    g0, g1 = forcing.rho_flux
    flux[0] = f0 + g0
    flux[-1] = f1 + g1
    return flux


def assemble_theta_system(prev: State, rho_new: np.ndarray, theta_iter: np.ndarray,
                          s: float, reg: RegularizationParams, params: PhysicalParams,
                          model: SaturationModel, grid: Grid, dt: float,
                          coeffs: FluxCoefficients, scheme: str = "upwind",
                          forcing: ForcingValues = NO_FORCING,
                          ) -> tuple[TridiagonalSystem, np.ndarray]:
    """Backward-Euler rows for the temperature given the fresh vapor field.

    The convective term -F theta_x is assembled face by face in the
    product-rule form -(1/h)[F_{j+1}(that_{j+1} - th_i) - F_j(that_j - th_i)]
    so each face carries exactly the vapor mass flux F as its convective
    coefficient; that_j is the donor-weighted face temperature.  The
    saturation sink s (lam + theta) p_s(theta) is lagged at the iterate and
    sits on the right-hand side.

    Returns the system and the face mass-flux array.
    """
    n, h = grid.n, grid.h

    kcell = conductivity(mollify(rho_new, reg.eps, h), params)
    kface_h2 = 0.5 * (kcell[:-1] + kcell[1:]) / h**2
    mass_flux = evaluate_mass_flux(rho_new, coeffs, s, params, grid, forcing)
    fm, fp = _donor_split(mass_flux[1:-1], scheme)
    fm_h, fp_h = fm / h, fp / h
    band, lower, diag, upper, rhs = _new_band(n)

    heat_cap = rho_new + params.sigma
    np.divide(heat_cap, dt, out=diag)
    diag -= s * rho_new * coeffs.chi_sqrt
    diag[:-1] += kface_h2 + fp_h
    diag[1:] += kface_h2 - fm_h
    np.negative(kface_h2, out=upper)
    upper -= fp_h
    np.negative(kface_h2, out=lower)
    lower += fm_h

    np.multiply(heat_cap, prev.theta, out=rhs)
    rhs /= dt
    rhs += s * params.lam * rho_new * coeffs.chi_sqrt
    rhs -= s * (params.lam + theta_iter) * coeffs.ps_iter
    rhs += forcing.theta_source

    g0, g1 = forcing.theta_flux
    diag[0] += 1.5 * params.beta0 / h + 0.5 * mass_flux[0] / h
    upper[0] += -0.5 * params.beta0 / h - 0.5 * mass_flux[0] / h
    diag[-1] += 1.5 * params.beta1 / h - 0.5 * mass_flux[-1] / h
    lower[-1] += -0.5 * params.beta1 / h + 0.5 * mass_flux[-1] / h
    rhs[0] += (params.beta0 * s * params.theta_bar0 - g0) / h
    rhs[-1] += (params.beta1 * s * params.theta_bar1 + g1) / h

    _check_rows("heat", band)
    return TridiagonalSystem.from_band(band), mass_flux


def _picard_sweeps(prev: State, cfg: StepConfig, reg: RegularizationParams,
                   params: PhysicalParams, model: SaturationModel, grid: Grid,
                   s: float, forcing: ForcingValues,
                   start: tuple[np.ndarray, np.ndarray]) -> StepRecord:
    """Run fixed-point sweeps at fixed s until converged or budget spent.

    Sweep k freezes its coefficients at the input x_k and returns the plain
    output g_k; f_k = g_k - x_k is its residual.  Sweep 2's input is sweep
    1's output.  From sweep 3 on, the input is Anderson-mixed (Walker & Ni,
    SIAM J. Numer. Anal. 49 (2011)) from the last ANDERSON_DEPTH + 1 pairs
    (f, g) of this call: gamma solves min |f_k - dF gamma| by least squares
    over the differences of successive residuals, the next input is
    g_k - dG gamma, clamped elementwise to at least min(g_k, 0.5 g_k), which
    keeps rho >= 0 and theta > 0 wherever the output is positive.  Every
    call starts without history.

    Returns the record of the last sweep, converged when its update (the
    plain output's relative distance from its own input) is below
    picard_tol; a mixed iterate is never accepted.  Never raises on
    nonconvergence; a StepFailure raised by a sweep (NonfiniteIterate,
    DominanceViolation) carries the sweeps spent, that one included.
    """
    rho_it, theta_it = start
    residuals, outputs = [], []
    for k in range(1, cfg.max_picard + 1):
        try:
            rho_sys, coeffs = assemble_rho_system(
                prev, rho_it, theta_it, s, reg, params, model, grid, cfg.dt,
                cfg.advection, forcing)
            rho_new = solve_thomas(rho_sys)
            theta_sys, mass_flux = assemble_theta_system(
                prev, rho_new, theta_it, s, reg, params, model, grid, cfg.dt,
                coeffs, cfg.advection, forcing)
            theta_new = solve_thomas(theta_sys)
            if not (np.isfinite(rho_new).all() and np.isfinite(theta_new).all()):
                raise NonfiniteIterate(
                    f"nonfinite iterate at s={s}, sweep {k}, t={prev.t + cfg.dt}")
        except StepFailure as exc:
            exc.sweeps = k
            raise
        dn2 = float(((rho_new - rho_it) ** 2).sum() + ((theta_new - theta_it) ** 2).sum())
        base = float((rho_it**2).sum() + (theta_it**2).sum())
        update = np.sqrt(dn2) / max(np.sqrt(base), UPDATE_FLOOR)
        if update < cfg.picard_tol or k == cfg.max_picard:
            break
        output = np.concatenate((rho_new, theta_new))
        residuals.append(output - np.concatenate((rho_it, theta_it)))
        outputs.append(output)
        if len(residuals) > 1:
            del residuals[:-ANDERSON_DEPTH - 1], outputs[:-ANDERSON_DEPTH - 1]
            gamma = np.linalg.lstsq(np.diff(residuals, axis=0).T, residuals[-1],
                                    rcond=None)[0]
            mixed = output - np.diff(outputs, axis=0).T @ gamma
            np.maximum(mixed, np.minimum(output, 0.5 * output), out=mixed)
            rho_it, theta_it = mixed[:grid.n], mixed[grid.n:]
        else:
            rho_it, theta_it = rho_new, theta_new
    return StepRecord(prev, rho_new, theta_new, s, cfg.dt, theta_it, coeffs,
                      mass_flux, forcing, k, update, (s,))


def picard_step(prev: State, cfg: StepConfig, reg: RegularizationParams,
                params: PhysicalParams, model: SaturationModel, grid: Grid,
                forcing: ForcingValues = NO_FORCING,
                start: tuple[np.ndarray, np.ndarray] | None = None,
                ) -> tuple[State, StepRecord]:
    """Advance one step by fixed-point iteration at the coupling reg.s.

    The sweeps start from ``start`` (a (rho, theta) pair) when given, and
    from the previous state otherwise.  ``forcing`` holds the forcing
    terms evaluated at the new time.  Raises PicardDivergence when the
    sweeps do not converge within max_picard.
    """
    if start is None:
        start = (prev.rho, prev.theta)
    record = _picard_sweeps(prev, cfg, reg, params, model, grid, reg.s, forcing, start)
    if not record.update < cfg.picard_tol:
        raise PicardDivergence(
            f"no convergence in {cfg.max_picard} sweeps at s={reg.s}", record)
    return State(record.rho, record.theta, prev.t + cfg.dt), record


def homotopy_solve(prev: State, cfg: StepConfig, reg: RegularizationParams,
                   params: PhysicalParams, model: SaturationModel, grid: Grid,
                   forcing: ForcingValues = NO_FORCING,
                   start: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> tuple[State, StepRecord]:
    """Advance one step, falling back to an s-ramp when the direct solve fails.

    The attempts, in order: the direct solve from the predicted first
    iterate ``start``, when there is one; the direct solve from the
    previous state; and the ramp stages s = k/s_ramp_steps * s_target,
    k = 1..s_ramp_steps.  One rule covers them all: an attempt that
    raises a StepFailure (it diverges, turns nonfinite or loses diagonal
    dominance) adds its sweeps to the step's count, and the next attempt
    runs.  The first direct attempt that converges is the step.  Every
    attempt mixes its sweep inputs from the third sweep on (see
    _picard_sweeps), from its own sweeps only, and accepts only a plain
    sweep output whose update from its own input is below picard_tol.

    Each ramp stage warm-starts from the last stage that produced an
    iterate (the previous state before any did), with no mixing history.
    Intermediate stages are best-effort and need not converge; only the
    final full-strength stage must, and a failing step raises that stage's
    error.  The accepted ramp record carries s = s_target.
    """
    spent = 0
    for guess in ([start] if start is not None else []) + [None]:
        try:
            new, record = picard_step(prev, cfg, reg, params, model, grid,
                                      forcing, start=guess)
        except StepFailure as exc:
            spent += exc.sweeps
            continue
        record.sweeps += spent
        return new, record

    s_path = [reg.s]
    iterate = (prev.rho, prev.theta)
    for k in range(1, cfg.s_ramp_steps + 1):
        s_k = reg.s * k / cfg.s_ramp_steps
        s_path.append(s_k)
        try:
            record = _picard_sweeps(prev, cfg, reg, params, model, grid,
                                    s_k, forcing, iterate)
        except StepFailure as exc:
            spent += exc.sweeps
            if k == cfg.s_ramp_steps:
                exc.sweeps = spent
                raise
            continue
        spent += record.sweeps
        iterate = (record.rho, record.theta)
    record = replace(record, s=reg.s, sweeps=spent, s_path=tuple(s_path))
    if not record.update < cfg.picard_tol:
        raise PicardDivergence(
            f"ramp exhausted: final stage s={s_k} not converged", record)
    return State(record.rho, record.theta, prev.t + cfg.dt), record


# Extrapolation weights by history length, oldest state first: with p+1
# states, the degree-p polynomial through them at the next step index,
# (-1)^(p-j) C(p+1, j) for the state j steps from the oldest.
_EXTRAPOLATION_WEIGHTS = {
    2: (-1.0, 2.0),
    3: (1.0, -3.0, 3.0),
    4: (-1.0, 4.0, -6.0, 4.0),
    5: (1.0, -5.0, 10.0, -10.0, 5.0),
}


def _predicted_start(rho: np.ndarray, theta: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray] | None:
    """First iterate for the next step, extrapolated from the accepted rows.

    rho and theta hold the accepted states so far, one row per time level.
    None (start from the previous state) after one row; then the
    polynomial in the step index through the last rows, of degree 4 from
    five rows on and one less than the row count before that: the standard
    starting values for implicit steps (Hairer & Wanner, Solving ODEs II,
    IV.8), off by O(dt^5) on a smooth trajectory.  The sum runs term by
    term in the weights' order, so the guess is deterministic.  It is
    clamped elementwise to at least half the last state, which keeps rho
    nonnegative and theta positive.
    """
    if len(rho) < 2:
        return None
    weights = _EXTRAPOLATION_WEIGHTS[min(len(rho), max(_EXTRAPOLATION_WEIGHTS))]

    def extrapolate(history):
        rows = history[-len(weights):]
        guess = weights[0] * rows[0]
        for weight, row in zip(weights[1:], rows[1:]):
            guess += weight * row
        return np.maximum(guess, 0.5 * rows[-1])

    return extrapolate(rho), extrapolate(theta)


def step_count(span: float, dt: float) -> int:
    """How many steps of dt make up span: 0 unless a whole, positive number.

    The count may miss a whole number by 1e-9 of itself, which absorbs the
    rounding of span / dt.
    """
    count = span / dt
    if not math.isfinite(count):
        return 0
    steps = round(count)
    whole = steps >= 1 and abs(count - steps) <= 1e-9 * max(1.0, count)
    return steps if whole else 0


def run(initial: InitialData | None, cfg: StepConfig, reg: RegularizationParams,
        params: PhysicalParams, model: SaturationModel, grid: Grid,
        t_end: float | None = None, forcing: Forcing | None = None,
        initial_state: State | None = None) -> RunResult:
    """March the coupled system from t=0 to t_end with per-step diagnostics.

    The start state is the mollified initial data unless an explicit
    initial_state is supplied (equilibrium studies need a start that does
    not depend on the mollifier radius).  It is taken as float arrays and
    checked once, here: DimensionMismatch unless 1-D with grid.n cells,
    ConfigError for unequal lengths, nonfinite values, rho < 0 or theta <= 0.
    The marched states are not checked again; certify_run judges them.  The
    forcing is evaluated once per step, at the new time (NO_FORCING if None).
    Deterministic: identical inputs produce bit-identical trajectories.
    """
    reg.validate_against(params)
    if t_end is None:
        t_end = params.t_end
    if t_end < 0:
        raise ConfigError(f"t_end must be nonnegative, got {t_end}")
    steps = step_count(t_end, cfg.dt)
    if t_end > 0 and not steps:
        raise ConfigError(
            f"t_end={t_end} is not a positive integer number of steps of dt={cfg.dt}")

    if initial_state is None:
        if initial is None:
            raise ConfigError("either initial data or an initial state is required")
        initial_state = mollified_initial_data(initial, reg, grid)
    t0 = initial_state.t
    rho0 = np.asarray(initial_state.rho, dtype=float)
    theta0 = np.asarray(initial_state.theta, dtype=float)
    if rho0.ndim != 1 or theta0.ndim != 1:
        raise DimensionMismatch(
            f"state values must be 1-D, got shapes {rho0.shape} and {theta0.shape}")
    if rho0.shape != theta0.shape:
        raise ConfigError(f"rho has {rho0.shape[0]} cells but theta has {theta0.shape[0]}")
    if not (np.isfinite(rho0).all() and np.isfinite(theta0).all()):
        raise ConfigError(f"nonfinite state values at t={t0}")
    if (rho0 < 0).any():
        raise ConfigError(f"negative vapor density at t={t0}")
    if (theta0 <= 0).any():
        raise ConfigError(f"nonpositive temperature at t={t0}")
    if rho0.shape != (grid.n,):
        raise DimensionMismatch(
            f"initial state has {rho0.shape[0]} cells for an n={grid.n} grid")
    state = State(rho0, theta0, t0)

    rho = np.empty((steps + 1, grid.n))
    theta = np.empty((steps + 1, grid.n))
    t = np.empty(steps + 1)
    rho[0], theta[0], t[0] = state.rho, state.theta, state.t
    step_columns = start_series(steps)
    for k in range(1, steps + 1):
        values = NO_FORCING if forcing is None else forcing.at(grid.centers, state.t + cfg.dt)
        state, srec = homotopy_solve(state, cfg, reg, params, model, grid,
                                     values, _predicted_start(rho[:k], theta[:k]))
        step_record(step_columns, k, srec, grid, params)
        rho[k], theta[k], t[k] = state.rho, state.theta, state.t

    series = run_series(step_columns, rho, theta, cfg.dt, grid, params)
    return RunResult(rho, theta, t, series, params, reg, cfg, grid, model, t_end)
