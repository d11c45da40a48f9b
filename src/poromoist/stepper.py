"""Implicit time stepping for the coupled vapor/heat system.

Each backward-Euler step solves the regularized coupled system

    rho_t - ((eps + m_nu(rho theta)) rho_x)_x - (rho * m_eps(m_eps(rho) theta_x))_x
          + rho X(sqrt(theta)) = X(p_s(theta))

    (rho + sigma) theta_t - ((kappa1 + kappa2 m_eps(rho)^2) theta_x)_x
          - F theta_x - rho X(sqrt(theta)) theta + (lam + theta) p_s(theta)
          = lam rho X(sqrt(theta))

where m_mu is the mollifier, X the cutoff at level 1/eps and F the total
mass flux (the expression under the divergence of the vapor equation).
Robin exchange conditions with the ambient values close both equations.

The two equations are solved alternately inside a per-step fixed-point
loop: coefficients and the lagged saturation term are frozen at the
sweep's input, each sweep solves two tridiagonal systems, and the loop
ends when the combined relative update of a sweep's output from its own
input falls below picard_tol.  From the third sweep of an attempt on, the
input is Anderson-mixed from the attempt's own sweeps (see
picard_step), which on the stiff benchmark config keeps every step
within 12 sweeps, against 35 with plain sweeps.  run starts each step's
sweeps from an extrapolation of the last five accepted states, which it
keeps as one (5, 2n) history of (rho, theta) rows (see _predicted_start);
on the smoke config this lets 874 of 1000 steps converge on their first
sweep.  homotopy_solve advances one output level of dt by one direct
attempt from that start and, where it fails, retakes the level in halved
substeps (Hairer & Wanner, Solving ODEs II, IV.8).  Every accepted
iterate is a plain sweep output of the assembled rows (a mixed input is
never accepted), and each substep leaves one StepRecord: its sweeps and
what its last sweep froze.  diagnostics.start_series writes the series
row of the start state; then run holds the records of a block of levels
of about _STEP_BLOCK_CELLS cells and hands each block to one
diagnostics.step_record call, which writes every series column of those
levels from their records; so the step loop does little besides the
solve, and no buffer grows with the step count.  Only the start state is
checked for the cone rho >= 0, theta > 0; certify_run judges the march.
Forcing terms are evaluated once per time a substep ends and shared by
its sweeps; an unforced run shares discretization.NO_FORCING, whose zero
terms change no value.

Spatial discretization is a conservative finite-volume scheme: the heat
equation's convective face coefficients are literally the vapor
equation's mass fluxes evaluated at the fresh vapor solution, so the
energy carried by convection is consistent with the mass actually moving.
The wall traces, the Robin exchange fluxes and the Robin wall rows of
both assemblies come from discretization.boundary_traces, robin_fluxes
and add_robin_rows.

The sweep kernel (compute_flux_coefficients, the two assemblies and
solve_thomas) is most of a run's time, so it is kept lean: a sweep pays
for its arithmetic and little else.  The face coefficients are frozen once
per sweep, with dface/h formed once; the donor products are min(V, 0) and
max(V, 0) of the face speed V for upwind and 0.5 V for central
(_donor_split).  What a run fixes is not redone per sweep: mollify makes
each radius's kernel, and checks the radius, once per run, and where the
kernel is the identity (every radius at most one cell, as on the smoke
config) it hands back its input instead of a copy; cutoff is one np.fmin
whose smallest entry shows whether the rare negative branch is needed;
saturation_pressure returns the curve as it is where every temperature is
positive.  Each assembly writes its rows into one (4, n) band (lower
shifted by one cell, diag, upper, rhs), scans the band once for nonfinite
entries (NonfiniteIterate, naming the system and row), then checks strict
diagonal dominance (DominanceViolation), and hands the band to the solver
as views, with no copy and no second scan.  solve_thomas copies the band
into the LAPACK buffer it keeps for each system size and solves it with
numpy's LAPACK, falling back to its Python loop with the same bits (see
linalg).  picard_step scans a sweep's outputs for nonfinite entries only
where its squared update is not finite.  The in-place updates apply the
same operations in the same order as the plain expressions they stand
for, so every entry keeps its value bit for bit.  At n = 100 on the smoke
state, the freeze takes about 29 us, the vapor assembly (the freeze
included) 54 us and the heat assembly 51 us (BENCH_ab.json, written by
scripts/bench_ab.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diagnostics import start_series, step_record
from .discretization import (NO_FORCING, ForcingValues, Grid, add_robin_rows,
                             boundary_traces, cutoff, mollify, robin_fluxes)
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
# Residual differences that mix each sweep input from the third on (see picard_step).
ANDERSON_DEPTH = 2
SPLIT_DEPTH = 6  # halvings of a level's step that homotopy_solve may make: dt/64
# Cells of the levels whose records run holds for one step_record call:
# 40 levels at n = 100.  Larger blocks cost more per level from n = 400 on,
# where the stacked arrays outgrow the data caches.
_STEP_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class RegularizationParams:
    """Cutoff level 1/eps and mollifier radii (eps outer, nu inner)."""

    eps: float
    nu: float

    def __post_init__(self):
        if not (0 < self.nu < self.eps <= 1):
            raise ConfigError(
                f"regularization requires 0 < nu < eps <= 1, got eps={self.eps}, nu={self.nu}"
            )

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
    advection: str = "upwind"

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.picard_tol > 0:
            raise ConfigError("picard_tol must be positive")
        if self.max_picard < 1:
            raise ConfigError("max_picard must be at least 1")
        if self.advection not in ("upwind", "central"):
            raise ConfigError(
                f"advection must be 'upwind' or 'central', got {self.advection!r}"
            )


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
    """One (sub)step's solve over dt from prev: its sweeps and what its last sweep froze.

    sweeps counts the failed attempts at the spans it starts too (see
    _substeps); update is the last sweep's relative update, rho and theta
    its solution, theta_iter the iterate its coefficients were frozen at,
    and forcing its terms.
    """

    prev: State
    rho: np.ndarray
    theta: np.ndarray
    dt: float
    theta_iter: np.ndarray
    coeffs: FluxCoefficients
    mass_flux: np.ndarray          # n+1 face values at the solution
    forcing: ForcingValues
    sweeps: int
    update: float


@dataclass
class RunResult:
    """Trajectory plus per-step diagnostics for one simulation.

    Row k of rho and theta holds the cell values at time t[k]; row 0 is the
    start state.  series maps each diagnostic's name (see
    diagnostics.SERIES_COLUMNS, _ENVELOPE_COLUMNS and "dissipation") to a
    steps+1 array whose entry k describes the same time level; the
    fourth-power accumulator and "dissipation" are running time integrals
    up to t[k].
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
    diffusion coefficient starts away from zero.  Both returned arrays are
    new: where the kernel is the identity, mollify returns its input, so
    theta is copied and never aliases data.theta0.
    """
    if data.rho0.shape != (grid.n,):
        raise ConfigError(
            f"initial data has {data.rho0.shape[0]} samples for an n={grid.n} grid"
        )
    rho = mollify(data.rho0, reg.eps, grid.h) + reg.eps
    theta = np.array(mollify(data.theta0, reg.eps, grid.h), dtype=float)
    return State(rho, theta, 0.0)


def _cell_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Centered interior differences with one-sided closures at the walls."""
    g = np.empty_like(values)
    interior = g[1:-1]
    np.subtract(values[2:], values[:-2], out=interior)
    interior /= 2.0 * h
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
    """A (4, n) row buffer and its views lower, diag, upper and rhs.

    Column i holds row i: band[0, i] = lower[i-1], band[1, i] = diag[i],
    band[2, i] = upper[i] and band[3, i] = rhs[i]; band[0, 0] and
    band[2, -1] are unused and zero, so _check_rows scans the whole band.
    """
    band = np.empty((4, n))
    band[0, 0] = band[2, -1] = 0.0
    return band, band[0, 1:], band[1], band[2, :-1], band[3]


def _check_rows(name: str, band: np.ndarray) -> None:
    """Finite entries first, then strict diagonal dominance of every row.

    The finiteness scan must come first: a NaN margin passes the dominance
    test, because it compares false with <= 0.  argmin of the finiteness
    mask finds its first False, if it holds one.
    """
    finite = np.isfinite(band).ravel()
    if not finite[finite.argmin()]:
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
                        reg: RegularizationParams, params: PhysicalParams,
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
    np.add(coeffs.chi_sqrt, 1.0 / dt, out=diag)
    diag[:-1] -= lower
    diag[1:] += upper
    np.negative(upper, out=upper)

    np.divide(prev.rho, dt, out=rhs)
    rhs += coeffs.chi_ps
    rhs += forcing.rho_source
    add_robin_rows(lower, diag, upper, rhs, h, params.alpha0, params.alpha1,
                   params.rho_bar0, params.rho_bar1, forcing.rho_flux, (0.0, 0.0))

    _check_rows("vapor", band)
    return TridiagonalSystem(lower, diag, upper, rhs), coeffs


def evaluate_mass_flux(rho_new: np.ndarray, coeffs: FluxCoefficients,
                       params: PhysicalParams, grid: Grid,
                       forcing: ForcingValues) -> np.ndarray:
    """All n+1 face values of the vapor flux at the fresh solution.

    Uses exactly the assembled coefficient arrays, so these numbers are the
    fluxes the solved rows actually contained.
    """
    flux = np.empty(grid.n + 1)
    interior = flux[1:-1]
    np.multiply(coeffs.A, rho_new[:-1], out=interior)
    interior += coeffs.B * rho_new[1:]
    f0, f1 = robin_fluxes(*boundary_traces(rho_new), params.alpha0,
                          params.alpha1, params.rho_bar0, params.rho_bar1)
    g0, g1 = forcing.rho_flux
    flux[0] = f0 + g0
    flux[-1] = f1 + g1
    return flux


def assemble_theta_system(prev: State, rho_new: np.ndarray, theta_iter: np.ndarray,
                          reg: RegularizationParams, params: PhysicalParams,
                          model: SaturationModel, grid: Grid, dt: float,
                          coeffs: FluxCoefficients, scheme: str = "upwind",
                          forcing: ForcingValues = NO_FORCING,
                          ) -> tuple[TridiagonalSystem, np.ndarray]:
    """Backward-Euler rows for the temperature given the fresh vapor field.

    The convective term -F theta_x is assembled face by face in the
    product-rule form -(1/h)[F_{j+1}(that_{j+1} - th_i) - F_j(that_j - th_i)]
    so each face carries exactly the vapor mass flux F as its convective
    coefficient; that_j is the donor-weighted face temperature.  The
    saturation sink (lam + theta) p_s(theta) is lagged at the iterate and
    sits on the right-hand side.

    Returns the system and the face mass-flux array.
    """
    n, h = grid.n, grid.h

    kcell = conductivity(mollify(rho_new, reg.eps, h), params)
    kface_h2 = 0.5 * (kcell[:-1] + kcell[1:]) / h**2
    mass_flux = evaluate_mass_flux(rho_new, coeffs, params, grid, forcing)
    fm, fp = _donor_split(mass_flux[1:-1], scheme)
    fm_h, fp_h = fm / h, fp / h
    band, lower, diag, upper, rhs = _new_band(n)

    heat_cap = rho_new + params.sigma
    np.divide(heat_cap, dt, out=diag)
    diag -= rho_new * coeffs.chi_sqrt
    diag[:-1] += kface_h2 + fp_h
    diag[1:] += kface_h2 - fm_h
    np.negative(kface_h2, out=upper)
    np.add(upper, fm_h, out=lower)
    upper -= fp_h

    np.multiply(heat_cap, prev.theta, out=rhs)
    rhs /= dt
    rhs += params.lam * rho_new * coeffs.chi_sqrt
    rhs -= (params.lam + theta_iter) * coeffs.ps_iter
    rhs += forcing.theta_source
    add_robin_rows(lower, diag, upper, rhs, h, params.beta0, params.beta1,
                   params.theta_bar0, params.theta_bar1, forcing.theta_flux,
                   (mass_flux.item(0), mass_flux.item(-1)))

    _check_rows("heat", band)
    return TridiagonalSystem(lower, diag, upper, rhs), mass_flux


def picard_step(prev: State, cfg: StepConfig, reg: RegularizationParams,
                params: PhysicalParams, model: SaturationModel, grid: Grid,
                forcing: ForcingValues = NO_FORCING,
                start: tuple[np.ndarray, np.ndarray] | None = None,
                ) -> tuple[State, StepRecord]:
    """Advance one step of cfg.dt by fixed-point sweeps.

    The sweeps start from ``start`` (a (rho, theta) pair) when given, and
    from the previous state otherwise.  ``forcing`` holds the forcing
    terms evaluated at the new time.

    Sweep k freezes its coefficients at the input x_k and returns the plain
    output g_k; f_k = g_k - x_k is its residual.  Sweep 2's input is sweep
    1's output.  From sweep 3 on, the input is Anderson-mixed (Walker & Ni,
    SIAM J. Numer. Anal. 49 (2011)) from the last ANDERSON_DEPTH + 1 pairs
    (f, g) of this call: gamma solves min |f_k - dF gamma| by least squares
    over the differences of successive residuals, the next input is
    g_k - dG gamma, clamped elementwise to at least min(g_k, 0.5 g_k), which
    keeps rho >= 0 and theta > 0 wherever the output is positive.  Every
    call starts without history.

    Returns the new state and the record of the last sweep, converged when
    its update (the plain output's relative distance from its own input) is
    below picard_tol; a mixed iterate is never accepted.  Raises
    PicardDivergence, holding that record, when max_picard sweeps do not
    converge.  A StepFailure raised by a sweep (NonfiniteIterate,
    DominanceViolation) carries the sweeps spent, that one included.
    """
    rho_it, theta_it = (prev.rho, prev.theta) if start is None else start
    residuals, outputs = [], []
    for k in range(1, cfg.max_picard + 1):
        try:
            rho_sys, coeffs = assemble_rho_system(
                prev, rho_it, theta_it, reg, params, model, grid, cfg.dt,
                cfg.advection, forcing)
            rho_new = solve_thomas(rho_sys)
            theta_sys, mass_flux = assemble_theta_system(
                prev, rho_new, theta_it, reg, params, model, grid, cfg.dt,
                coeffs, cfg.advection, forcing)
            theta_new = solve_thomas(theta_sys)
            # A nonfinite output makes dn2 nonfinite, so the outputs are
            # scanned only then (finite ones can overflow it too).
            dn2 = float(((rho_new - rho_it) ** 2).sum()
                        + ((theta_new - theta_it) ** 2).sum())
            if not (math.isfinite(dn2) or np.isfinite(rho_new).all()
                    and np.isfinite(theta_new).all()):
                raise NonfiniteIterate(
                    f"nonfinite iterate at sweep {k}, t={prev.t + cfg.dt}")
        except StepFailure as exc:
            exc.sweeps = k
            raise
        base = float((rho_it**2).sum() + (theta_it**2).sum())
        update = math.sqrt(dn2) / max(math.sqrt(base), UPDATE_FLOOR)
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
    record = StepRecord(prev, rho_new, theta_new, cfg.dt, theta_it, coeffs,
                        mass_flux, forcing, k, update)
    if not update < cfg.picard_tol:
        raise PicardDivergence(
            f"no convergence in {cfg.max_picard} sweeps at dt={cfg.dt}", record)
    return State(rho_new, theta_new, prev.t + cfg.dt), record


def homotopy_solve(prev: State, cfg: StepConfig, reg: RegularizationParams,
                   params: PhysicalParams, model: SaturationModel, grid: Grid,
                   forcing: Forcing | None = None,
                   start: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> tuple[State, tuple[StepRecord, ...]]:
    """Advance one output level of cfg.dt, in substeps where a direct solve fails.

    The direct attempt starts from the predicted iterate ``start`` when
    given, and from the previous state otherwise; if it raises a
    StepFailure, its sweeps count toward the level and the level is
    retaken as two steps of dt/2 (see _substeps).  ``forcing`` is evaluated
    once at each time a substep ends.  Returns the state at prev.t + cfg.dt
    and one StepRecord per substep, in order.  A failing level raises the
    error of an attempt at depth SPLIT_DEPTH, whose sweeps count every
    attempt.
    """
    def at(t):
        return NO_FORCING if forcing is None else forcing.at(grid.centers, t)

    t = prev.t + cfg.dt
    new, records = _substeps(prev, cfg, reg, params, model, grid, at, at(t), start, 0)
    return State(new.rho, new.theta, t), records


def _substeps(prev: State, cfg: StepConfig, reg: RegularizationParams,
              params: PhysicalParams, model: SaturationModel, grid: Grid,
              at: Callable[[float], ForcingValues], forcing: ForcingValues,
              start: tuple[np.ndarray, np.ndarray] | None, depth: int, spent: int = 0,
              ) -> tuple[State, tuple[StepRecord, ...]]:
    """Step from prev over cfg.dt directly, or as two halves that may split again.

    The direct attempt starts from start, or from prev where start is None.
    forcing holds the terms at the span's end, at(t) those at time t.  The
    sweeps of failed attempts at spans this one starts, spent, are counted
    in its first record or in the error it raises.
    """
    try:
        new, record = picard_step(prev, cfg, reg, params, model, grid, forcing,
                                  start=start)
    except StepFailure as exc:
        spent += exc.sweeps
        if depth == SPLIT_DEPTH:
            exc.sweeps = spent
            raise
    else:
        record.sweeps += spent
        return new, (record,)

    half = replace(cfg, dt=0.5 * cfg.dt)
    mid, first = _substeps(prev, half, reg, params, model, grid, at,
                           at(prev.t + half.dt), None, depth + 1, spent)
    try:
        new, second = _substeps(mid, half, reg, params, model, grid, at, forcing,
                                None, depth + 1)
    except StepFailure as exc:
        exc.sweeps += sum(record.sweeps for record in first)
        raise
    return new, first + second


# Extrapolation weights by history length, oldest state first: with p+1
# states, the degree-p polynomial through them at the next step index,
# (-1)^(p-j) C(p+1, j) for the state j steps from the oldest.  One column
# each, to scale the rows of a history.
_EXTRAPOLATION_WEIGHTS = {len(weights): np.array(weights)[:, None] for weights in (
    (-1.0, 2.0),
    (1.0, -3.0, 3.0),
    (-1.0, 4.0, -6.0, 4.0),
    (1.0, -5.0, 10.0, -10.0, 5.0),
)}


def _predicted_start(history: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """First iterate for the next step, extrapolated from the accepted states.

    history holds the last accepted states, oldest first, one (rho, theta)
    row of 2n values per time level.  None (start from the previous state)
    after one row; then the polynomial in the step index through the last
    rows, of degree 4 from five rows on and one less than the row count
    before that: the standard starting values for implicit steps (Hairer &
    Wanner, Solving ODEs II, IV.8), off by O(dt^5) on a smooth trajectory.
    The weighted rows are added one at a time in the weights' order, so
    the guess is deterministic.  It is clamped elementwise to at least half
    the last state, which keeps rho nonnegative and theta positive.
    Returns the (rho, theta) halves of the guess.
    """
    if len(history) < 2:
        return None
    weights = _EXTRAPOLATION_WEIGHTS[min(len(history), max(_EXTRAPOLATION_WEIGHTS))]
    rows = history[-len(weights):]
    terms = weights * rows
    guess = terms[0]
    for term in terms[1:]:
        guess += term
    np.maximum(guess, 0.5 * rows[-1], out=guess)
    n = history.shape[1] // 2
    return guess[:n], guess[n:]


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
    forcing is evaluated once per (sub)step, at its new time.  The series
    is written a block of levels at a time (see step_record).
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
    # The last accepted states for _predicted_start, one (rho, theta) row each.
    history = np.empty((max(_EXTRAPOLATION_WEIGHTS), 2 * grid.n))
    history[0, :grid.n], history[0, grid.n:] = state.rho, state.theta
    kept = 1
    series = start_series(steps, state, grid, params)
    block = max(1, _STEP_BLOCK_CELLS // grid.n)
    pending = []
    for k in range(1, steps + 1):
        state, records = homotopy_solve(state, cfg, reg, params, model, grid,
                                        forcing, _predicted_start(history[:kept]))
        rho[k], theta[k], t[k] = state.rho, state.theta, state.t
        if kept == len(history):
            history[:-1] = history[1:]
        else:
            kept += 1
        history[kept - 1, :grid.n], history[kept - 1, grid.n:] = state.rho, state.theta
        pending.append(records)
        if len(pending) == block or k == steps:
            step_record(series, k + 1 - len(pending), pending, cfg.dt, grid, params)
            pending = []

    return RunResult(rho, theta, t, series, params, reg, cfg, grid, model, t_end)
