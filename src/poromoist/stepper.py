"""Implicit time stepping for the coupled vapor/heat system.

A Setup is one regularized problem: the physics, the saturation curve,
(eps, nu), the step settings, the grid and the raw initial samples.  It is
passed whole, from build_setup to the sweep kernel, and it checks eps
against the ambients once, where it is made.  Each backward-Euler step
solves the regularized coupled system

    rho_t - ((eps + m_nu(rho theta)) rho_x)_x - (rho * m_eps(m_eps(rho) theta_x))_x
          + rho X(sqrt(theta)) = X(p_s(theta))

    (rho + sigma) theta_t - ((kappa1 + kappa2 m_eps(rho)^2) theta_x)_x
          - F theta_x - rho X(sqrt(theta)) theta + (lam + theta) p_s(theta)
          = lam rho X(sqrt(theta))

where m_mu is the mollifier, X the cutoff at level 1/eps and F the total
mass flux (the expression under the divergence of the vapor equation).
Robin exchange conditions with the ambient values close both equations.

The two equations are solved alternately inside a per-step fixed-point
loop, written once (_sweeps): coefficients and the lagged saturation term
are frozen at the sweep's input, each sweep solves two tridiagonal
systems, and the loop ends when the combined relative update of a sweep's
output from its own input falls below picard_tol.  From the third sweep
of an attempt on, the input is Anderson-mixed from the attempt's own
sweeps, which on the stiff benchmark config keeps every step within 12
sweeps, against 35 with plain sweeps.  picard_step is that loop for one
step of one problem, and every step of a run, every substep and every
retaken level goes through it.  run starts each step's sweeps from an
extrapolation of the last HISTORY_DEPTH = 8 accepted states, the newest
rows of the one (steps + 1, 2n) array of (rho, theta) rows that holds
the trajectory; from six states on, the extrapolation's
degree is the one that best predicted the newest state, and where even
that one missed by more than picard_tol, a least-squares linear
predictor of the states' differences may replace it (see
_predicted_start).  On the smoke config this lets 957 of 1000
steps converge on their first sweep, and on the stiff benchmark config
91 of 200, where the polynomial alone let 31.  homotopy_solve advances
one output level of dt by one direct attempt from that start and, where
it fails, retakes the level in halved substeps (Hairer & Wanner, Solving
ODEs II, IV.8).  Every accepted iterate is a plain sweep output of the
assembled rows (a mixed input is never accepted), and each substep leaves
one StepRecord: its sweeps and what its last sweep froze.
diagnostics.start_series writes the series row of the start state; then
run holds the records of a block of levels of about _STEP_BLOCK_CELLS
cells and hands each block to one diagnostics.step_record call, which
writes every series column of those levels from their records; so the
step loop does little besides the solve, and no buffer grows with the
step count.  run takes a Setup and one start State, which the commands
build with mollified_initial_data from the Setup's raw samples; both check
only their input State, for the grid and the cone rho >= 0, theta > 0
(_checked_start), and certify_run judges the march.  A Forcing
is one function of (x, t) that returns every forcing term at once; it is
evaluated once per time a substep ends and shared by its sweeps, and an
unforced run shares discretization.NO_FORCING, whose zero terms change no
value.

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
linalg).  The loop scans a sweep's outputs for nonfinite entries only
where its squared update is not finite.  The in-place updates apply the
same operations in the same order as the plain expressions they stand
for, so every entry keeps its value bit for bit.  What each layer costs
at n = 100, 400 and 1000 is in BENCH_ab.json, written by
scripts/bench_ab.py.

The kernel also takes a member axis: (n, B) arrays, one column per member
of a group, where a Setup's floats become the group's constants, each one
float where the members agree and a (B,) array that broadcasts along the
columns where they differ (_group).  The member axis comes last, so every
cell index of the kernel (x[0], x[:-1], x[-1]) reads the same for one
member and for a group, and a run's (n,) arrays take exactly the numpy
calls they took before; the iterates and solutions are transposes of
member-major rows, so each member's cells are contiguous where the
reductions and transcendental functions read them.  The bands are
(4, n, B), solve_thomas solves their columns as one block-diagonal system
(see linalg), and mollify smooths member by member only where the
members' kernels differ.
march steps such a group level by level: one predicted start per member,
then the same loop as a run's steps (_sweeps) over one fixed set of
columns, one per member, from the level's first sweep to its last.  Each
member converges, mixes and diverges on its own; a member that stops
keeps its column, which is no longer read, and one whose attempt failed
is retaken alone in halves, as homotopy_solve retakes a level (_halves).
An error of the kernel, which checks and solves the group's rows as one
system, ends the group's sweeps at that level, and each member still
sweeping takes the level alone, as its run does (homotopy_solve).  A
call's layout is fixed when it starts: one member sweeps its own (n,)
arrays, as a run does, and a group its (n, B) arrays.  So every member's
march is its run's to the bit, and the ladder's four rungs take 348 group
sweeps where their runs take 1309.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .diagnostics import start_series, step_record
from .discretization import (NO_FORCING, ForcingValues, Grid, add_robin_rows,
                             boundary_traces, cutoff, integer, mollify, robin_fluxes)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DominanceViolation,
    NonfiniteIterate,
    PicardDivergence,
    PoromoistError,
    StepFailure,
)
from .linalg import TridiagonalSystem, solve_thomas
from .model import (SATURATION_FAMILIES, PhysicalParams, SaturationModel, conductivity,
                    saturation_pressure)

__all__ = [
    "RegularizationParams",
    "State",
    "StepConfig",
    "Setup",
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
    "march",
]

UPDATE_FLOOR = 1e-30
# Residual differences that mix each sweep input from the third on (see picard_step).
ANDERSON_DEPTH = 2
SPLIT_DEPTH = 6  # halvings of a level's step that homotopy_solve may make: dt/64
# Accepted states run keeps for _predicted_start, which chooses the start's
# degree, and fits its linear-prediction candidates, from _SELECTION_ROWS of
# them on: up to degree 6 and order 6 with eight.  Degrees 7 and 8, or a
# choice from fewer states, cost sweeps on the stiff config and the harder
# grid.
HISTORY_DEPTH = 8
_SELECTION_ROWS = 6
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


@dataclass(frozen=True)
class State:
    """Vapor density and temperature at one time.

    rho and theta are the cell values on one grid: finite 1-D float arrays
    of equal length, with rho >= 0 and theta > 0.  A State checks none of
    this: mollified_initial_data checks the raw samples it smooths and run
    its start (both through _checked_start), and certify_run judges the
    states a run marched.  Setup.initial holds a config's raw profile
    samples as the State at t = 0 that mollified_initial_data smooths.
    Every State holds one problem's values: the sweeps of a group (see
    _sweeps) hand the kernel their members' previous values as (n, B)
    columns of a plain namespace, since the kernel reads only rho and
    theta there.
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
        object.__setattr__(self, "max_picard", integer(self.max_picard, "max_picard"))
        if self.max_picard < 1:
            raise ConfigError("max_picard must be at least 1")
        if self.advection not in ("upwind", "central"):
            raise ConfigError(
                f"advection must be 'upwind' or 'central', got {self.advection!r}"
            )


@dataclass(frozen=True)
class Setup:
    """One regularized problem: physics, saturation curve, (eps, nu), step and grid.

    initial holds the raw profile samples at t = 0, which
    mollified_initial_data smooths into a run's start.  ConfigError where
    eps exceeds min(ambient values, 1): the cutoff would clip ambient data.
    """

    params: PhysicalParams
    model: SaturationModel
    reg: RegularizationParams
    step: StepConfig
    grid: Grid
    initial: State

    def __post_init__(self):
        limit = min(self.params.ambient_min, 1.0)
        if self.reg.eps > limit:
            raise ConfigError(
                f"eps={self.reg.eps} exceeds min(ambient values, 1) = {limit}; "
                "the cutoff would clip ambient data"
            )


# Manufactured sources and wall-flux corrections: forcing(x, t) holds every
# term at time t on the cell centers x.  Used by the manufactured-solution
# studies; production runs get NO_FORCING.
Forcing = Callable[[np.ndarray, float], ForcingValues]


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
    setup: Setup                   # the problem the run solved
    t_end: float


def _checked_start(start: State, grid: Grid) -> State:
    """start with float arrays, once they pass the checks of a march's start.

    DimensionMismatch unless both arrays are 1-D with grid.n cells,
    ConfigError for unequal lengths, nonfinite values, rho < 0 or
    theta <= 0.
    """
    t0 = start.t
    rho = np.asarray(start.rho, dtype=float)
    theta = np.asarray(start.theta, dtype=float)
    if rho.ndim != 1 or theta.ndim != 1:
        raise DimensionMismatch(
            f"state values must be 1-D, got shapes {rho.shape} and {theta.shape}")
    if rho.shape != theta.shape:
        raise ConfigError(f"rho has {rho.shape[0]} cells but theta has {theta.shape[0]}")
    if not (np.isfinite(rho).all() and np.isfinite(theta).all()):
        raise ConfigError(f"nonfinite state values at t={t0}")
    if (rho < 0).any():
        raise ConfigError(f"negative vapor density at t={t0}")
    if (theta <= 0).any():
        raise ConfigError(f"nonpositive temperature at t={t0}")
    if rho.shape != (grid.n,):
        raise DimensionMismatch(
            f"initial state has {rho.shape[0]} cells for an n={grid.n} grid")
    return State(rho, theta, t0)


def mollified_initial_data(setup: Setup) -> State:
    """Smooth setup's raw initial samples over radius eps and lift rho by eps.

    The samples are checked as run checks its start (see _checked_start),
    so raw samples off the grid or outside the cone rho >= 0, theta > 0
    raise before any smoothing.  The lift keeps the vapor density strictly
    positive so the degenerate diffusion coefficient starts away from
    zero.  Both returned arrays are new: where the kernel is the identity,
    mollify returns its input, so theta is copied and never aliases
    setup.initial.theta.
    """
    eps, h = setup.reg.eps, setup.grid.h
    start = _checked_start(setup.initial, setup.grid)
    rho = mollify(start.rho, eps, h) + eps
    theta = np.array(mollify(start.theta, eps, h), dtype=float)
    return State(rho, theta, start.t)


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
    V = 0); central gives 0.5 V to both cells, as one shared array.  A
    group of members whose schemes differ passes a tuple of booleans, True
    for the central members, and each member's column gets its own
    scheme's values.
    """
    if scheme == "central":
        half = 0.5 * speed
        return half, half
    if scheme == "upwind":
        return np.minimum(speed, 0.0), np.maximum(speed, 0.0)
    half = 0.5 * speed
    return (np.where(scheme, half, np.minimum(speed, 0.0)),
            np.where(scheme, half, np.maximum(speed, 0.0)))


def _new_band(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """A (4, n) row buffer and its views lower, diag, upper and rhs, for rows of cells.

    Column i holds row i: band[0, i] = lower[i-1], band[1, i] = diag[i],
    band[2, i] = upper[i] and band[3, i] = rhs[i]; band[0, 0] and
    band[2, -1] are unused and zero, so _check_rows scans the whole band.
    Where rows is (n, B), the band is (4, n, B), one system per member,
    and those zeros sit between the members' systems (see linalg).
    """
    band = np.empty((4,) + rows.shape)
    band[0, 0] = band[2, -1] = 0.0
    return band, band[0, 1:], band[1], band[2, :-1], band[3]


def _check_rows(name: str, band: np.ndarray) -> None:
    """Finite entries first, then strict diagonal dominance of every row.

    The finiteness scan must come first: a NaN margin passes the dominance
    test, because it compares false with <= 0.  argmin of the finiteness
    mask finds its first False, if it holds one.  A group's (4, n, B) band
    raises as one system: the row named is the first failing row of any
    member, and the margin the smallest of all members (see _sweeps, where
    such an error ends the group's sweeps).
    """
    finite = np.isfinite(band).ravel()
    if not finite[finite.argmin()]:
        rows = np.isfinite(band).all(axis=0)
        row = np.unravel_index(rows.argmin(), rows.shape)[0]
        raise NonfiniteIterate(f"nonfinite entries in {name} system row {row}")
    mag = np.abs(band[:3])
    margin = mag[1] - (mag[0] + mag[2])
    worst = int(margin.argmin())
    if margin.item(worst) <= 0:
        raise DominanceViolation(name, int(np.unravel_index(worst, margin.shape)[0]),
                                 margin.item(worst))


def compute_flux_coefficients(rho_iter: np.ndarray, theta_iter: np.ndarray,
                              setup: Setup) -> FluxCoefficients:
    """Freeze the face coefficients and reaction factors at one iterate."""
    reg, h = setup.reg, setup.grid.h
    dcell = mollify(rho_iter * theta_iter, reg.nu, h)
    dface_h = (reg.eps + 0.5 * (dcell[:-1] + dcell[1:])) / h
    rho_sm = mollify(rho_iter, reg.eps, h)
    vcell = mollify(rho_sm * _cell_gradient(theta_iter, h), reg.eps, h)
    vm, vp = _donor_split(0.5 * (vcell[:-1] + vcell[1:]), setup.step.advection)
    A = vm - dface_h
    B = vp + dface_h
    chi_sqrt = cutoff(np.sqrt(np.maximum(theta_iter, 0.0)), reg.eps)
    ps_iter = saturation_pressure(setup.model, theta_iter)
    chi_ps = cutoff(ps_iter, reg.eps)
    return FluxCoefficients(A, B, chi_sqrt, chi_ps, ps_iter)


def assemble_rho_system(prev: State, rho_iter: np.ndarray, theta_iter: np.ndarray,
                        setup: Setup, dt: float, forcing: ForcingValues = NO_FORCING,
                        ) -> tuple[TridiagonalSystem, FluxCoefficients]:
    """Backward-Euler rows for the vapor density with frozen coefficients.

    Interior rows are exact flux differences, so summing the equations
    telescopes to the two wall fluxes; the mass-balance diagnostic relies
    on this.  Wall rows replace the face flux with the Robin exchange
    expression evaluated at the extrapolated trace.
    """
    params, h = setup.params, setup.grid.h
    coeffs = compute_flux_coefficients(rho_iter, theta_iter, setup)
    band, lower, diag, upper, rhs = _new_band(rho_iter)

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


def evaluate_mass_flux(rho_new: np.ndarray, coeffs: FluxCoefficients, setup: Setup,
                       forcing: ForcingValues) -> np.ndarray:
    """All n+1 face values of the vapor flux at the fresh solution.

    Uses exactly the assembled coefficient arrays, so these numbers are the
    fluxes the solved rows actually contained.
    """
    params = setup.params
    flux = np.empty((setup.grid.n + 1,) + rho_new.shape[1:])
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
                          setup: Setup, dt: float, coeffs: FluxCoefficients,
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
    params, h = setup.params, setup.grid.h

    kcell = conductivity(mollify(rho_new, setup.reg.eps, h), params)
    kface_h2 = 0.5 * (kcell[:-1] + kcell[1:]) / h**2
    mass_flux = evaluate_mass_flux(rho_new, coeffs, setup, forcing)
    fm, fp = _donor_split(mass_flux[1:-1], setup.step.advection)
    fm_h, fp_h = fm / h, fp / h
    band, lower, diag, upper, rhs = _new_band(rho_new)

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
    carried = ((mass_flux.item(0), mass_flux.item(-1)) if mass_flux.ndim == 1
               else (mass_flux[0], mass_flux[-1]))
    add_robin_rows(lower, diag, upper, rhs, h, params.beta0, params.beta1,
                   params.theta_bar0, params.theta_bar1, forcing.theta_flux, carried)

    _check_rows("heat", band)
    return TridiagonalSystem(lower, diag, upper, rhs), mass_flux


def _mixed(residuals: list, outputs: list) -> np.ndarray:
    """The next sweep input, Anderson-mixed from an attempt's residuals and outputs.

    Both lists hold one (rho, theta) row per sweep, newest last, and keep
    their last ANDERSON_DEPTH + 1 (see _sweeps).
    """
    del residuals[:-ANDERSON_DEPTH - 1], outputs[:-ANDERSON_DEPTH - 1]
    gamma = np.linalg.lstsq(np.diff(residuals, axis=0).T, residuals[-1], rcond=None)[0]
    output = outputs[-1]
    mixed = output - np.diff(outputs, axis=0).T @ gamma
    np.maximum(mixed, np.minimum(output, 0.5 * output), out=mixed)
    return mixed


def _member(a: int | None, *values) -> tuple | list:
    """Member a's columns of a group's values, or one member's own values where a is None."""
    return values if a is None else [value[:, a] for value in values]


def _sweeps(prevs: Sequence[State], setups: Sequence[Setup], starts: Sequence, dt: float,
            group: SimpleNamespace | None, forcing: ForcingValues) -> list:
    """Sweep each member's step of dt from its start until it converges or fails.

    starts holds each member's first iterate, a (rho, theta) pair, or None
    to start from its previous state, and forcing the terms at the new
    time.  Sweep k freezes its coefficients at the input x_k and returns
    the plain output g_k; f_k = g_k - x_k is its residual.  Sweep 2's input
    is sweep 1's output.  From sweep 3 on, the input is Anderson-mixed
    (Walker & Ni, SIAM J. Numer. Anal. 49 (2011)) from the member's last
    ANDERSON_DEPTH + 1 pairs (f, g) of this call: gamma solves
    min |f_k - dF gamma| by least squares over the differences of
    successive residuals, and the next input is g_k - dG gamma, clamped
    elementwise to at least min(g_k, 0.5 g_k), which keeps rho >= 0 and
    theta > 0 wherever the output is positive.  Every call starts without
    history.  A member converges when a sweep's update, its plain output's
    relative distance from its own input, is below picard_tol, so a mixed
    iterate is never accepted; it fails when max_picard sweeps do not
    converge.

    The layout and the columns are fixed for the whole call.  Where group
    is None there is one member, and its sweeps take its own (n,) arrays
    and Setup, the numpy calls of a run.  Otherwise group is the kernel's
    problem of all the members (see _group), and every sweep takes (n, B)
    arrays, one column per member, from the call's first sweep to its
    last.  The columns are transposes of member rows, so each member's
    cells are contiguous and its sums are its own call's to the bit.  A
    member that converges, diverges or has a nonfinite output keeps its
    last input column, whose later outputs are not read, and mixing writes
    only the columns of the members still sweeping.

    Returns per member its new State and the StepRecord of its last sweep,
    or the library error that ended its attempt.  A StepFailure carries the
    sweeps spent, the failing one included: NonfiniteIterate where a
    sweep's output is not finite, and PicardDivergence, holding the record
    of the last sweep, where max_picard sweeps do not converge.  An error
    of the kernel (DominanceViolation, NonfiniteIterate, ZeroPivot) is one
    member's outcome, carrying its sweeps where it is a StepFailure; in a
    group it ends the call, the members decided before it keep their
    outcomes, and each member still sweeping gets None.
    """
    n = setups[0].grid.n
    outcomes, active = [None] * len(setups), list(range(len(setups)))
    histories = [([], []) for _ in setups]
    if group is None:
        (prev,), (problem,), (start,) = prevs, setups, starts
        rho_it, theta_it = (prev.rho, prev.theta) if start is None else start
        inputs = None
    else:
        # the kernel reads only rho and theta of the previous state
        previous = np.array([(p.rho, p.theta) for p in prevs])
        prev = SimpleNamespace(rho=previous[:, 0].T, theta=previous[:, 1].T)
        inputs = np.array([(p.rho, p.theta) if s is None else s
                           for p, s in zip(prevs, starts)]).reshape(len(prevs), -1).T
        rho_it, theta_it = inputs[:n], inputs[n:]
        problem = group
    k = 0
    while True:
        k += 1
        try:
            rho_sys, coeffs = assemble_rho_system(prev, rho_it, theta_it, problem, dt, forcing)
            rho_new = solve_thomas(rho_sys)
            theta_sys, mass_flux = assemble_theta_system(prev, rho_new, theta_it, problem, dt,
                                                         coeffs, forcing)
            theta_new = solve_thomas(theta_sys)
        except PoromoistError as exc:
            if group is not None:
                return outcomes
            if isinstance(exc, StepFailure):
                exc.sweeps = k
            return [exc]
        dn2 = (np.add.reduce((rho_new - rho_it) ** 2, 0)
               + np.add.reduce((theta_new - theta_it) ** 2, 0))
        base = np.add.reduce(rho_it * rho_it, 0) + np.add.reduce(theta_it * theta_it, 0)
        if group is not None:
            dn2, base = dn2.tolist(), base.tolist()
        going = []
        for j in active:
            a, d, b = (None, dn2, base) if group is None else (j, dn2[j], base[j])
            cfg = setups[j].step
            # A nonfinite output makes d nonfinite, so the outputs are
            # scanned only then (finite ones can overflow it too).
            if not (math.isfinite(d)
                    or all(np.isfinite(values).all()
                           for values in _member(a, rho_new, theta_new))):
                outcomes[j] = NonfiniteIterate(
                    f"nonfinite iterate at sweep {k}, t={prevs[j].t + dt}")
                outcomes[j].sweeps = k
                continue
            update = math.sqrt(d) / max(math.sqrt(b), UPDATE_FLOOR)
            converged = update < cfg.picard_tol
            if converged or k == cfg.max_picard:
                rho, theta, theta_iter, flux = _member(a, rho_new, theta_new, theta_it, mass_flux)
                frozen = (coeffs if a is None else
                          FluxCoefficients(*_member(a, *vars(coeffs).values())))
                record = StepRecord(prevs[j], rho, theta, dt, theta_iter, frozen, flux, forcing,
                                    k, update)
                outcomes[j] = ((State(rho, theta, prevs[j].t + dt), record) if converged else
                               PicardDivergence(
                                   f"no convergence in {cfg.max_picard} sweeps at dt={dt}",
                                   record))
                continue
            going.append(j)
        if not going:
            return outcomes
        outputs = np.concatenate((rho_new, theta_new))
        residuals = outputs - (np.concatenate((rho_it, theta_it)) if inputs is None else inputs)
        for j in going:
            a = None if group is None else j
            output, residual = _member(a, outputs, residuals)
            mixing, mixed = histories[j]
            mixing.append(residual)
            mixed.append(output)
            following = _mixed(mixing, mixed) if len(mixing) > 1 else output
            if group is None:
                inputs = following
            else:
                inputs[:, j] = following
        active = going
        rho_it, theta_it = inputs[:n], inputs[n:]


def picard_step(prev: State, setup: Setup, dt: float,
                forcing: ForcingValues = NO_FORCING,
                start: tuple[np.ndarray, np.ndarray] | None = None,
                ) -> tuple[State, StepRecord]:
    """Advance one step of dt by fixed-point sweeps: the loop of _sweeps for one member.

    The sweeps start from ``start`` (a (rho, theta) pair) when given, and
    from the previous state otherwise.  ``forcing`` holds the forcing
    terms evaluated at the new time.  Returns the new state and the record
    of the last sweep, whose update is below picard_tol; raises the
    library error that ended the attempt instead: PicardDivergence,
    holding that record, when max_picard sweeps do not converge, and a
    sweep's StepFailure (NonfiniteIterate, DominanceViolation), each
    carrying the sweeps spent, the failing one included.
    """
    outcome, = _sweeps((prev,), (setup,), (start,), dt, None, forcing)
    if isinstance(outcome, PoromoistError):
        raise outcome
    return outcome


def _unforced(t: float) -> ForcingValues:
    """The forcing terms of an unforced problem at any time t."""
    return NO_FORCING


def homotopy_solve(prev: State, setup: Setup, forcing: Forcing | None = None,
                   start: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> tuple[State, tuple[StepRecord, ...]]:
    """Advance one output level of setup's dt, in substeps where a direct solve fails.

    The direct attempt starts from the predicted iterate ``start`` when
    given, and from the previous state otherwise; if it raises a
    StepFailure, its sweeps count toward the level and the level is
    retaken as two steps of dt/2 (see _substeps).  ``forcing`` is evaluated
    once at each time a substep ends.  Returns the state at prev.t + dt
    and one StepRecord per substep, in order.  A failing level raises the
    error of an attempt at depth SPLIT_DEPTH, whose sweeps count every
    attempt.
    """
    at = _unforced if forcing is None else partial(forcing, setup.grid.centers)
    t = prev.t + setup.step.dt
    new, records = _substeps(prev, setup, setup.step.dt, at, at(t), start, 0)
    # a direct step's state ends at t already
    return (new if len(records) == 1 else State(new.rho, new.theta, t)), records


def _substeps(prev: State, setup: Setup, dt: float,
              at: Callable[[float], ForcingValues], forcing: ForcingValues,
              start: tuple[np.ndarray, np.ndarray] | None, depth: int, spent: int = 0,
              ) -> tuple[State, tuple[StepRecord, ...]]:
    """Step from prev over dt directly, or as two halves that may split again.

    The direct attempt starts from start, or from prev where start is None.
    forcing holds the terms at the span's end, at(t) those at time t.  The
    sweeps of failed attempts at spans this one starts, spent, are counted
    in its first record or in the error it raises.
    """
    try:
        new, record = picard_step(prev, setup, dt, forcing, start)
    except StepFailure as exc:
        spent += exc.sweeps
        if depth == SPLIT_DEPTH:
            exc.sweeps = spent
            raise
    else:
        record.sweeps += spent
        return new, (record,)
    return _halves(prev, setup, dt, at, forcing, depth, spent)


def _halves(prev: State, setup: Setup, dt: float, at: Callable[[float], ForcingValues],
            forcing: ForcingValues, depth: int, spent: int,
            ) -> tuple[State, tuple[StepRecord, ...]]:
    """Step from prev over dt as two halves that may split again.

    Failed attempts at the span spent sweeps, which the first half's first
    record or the error counts; forcing holds the terms at the span's end.
    """
    half = 0.5 * dt
    mid, first = _substeps(prev, setup, half, at, at(prev.t + half), None, depth + 1,
                           spent)
    try:
        new, second = _substeps(mid, setup, half, at, forcing, None, depth + 1)
    except StepFailure as exc:
        exc.sweeps += sum(record.sweeps for record in first)
        raise
    return new, first + second


def _newest_weights(rows: int, order: int, shift: int) -> np.ndarray:
    """Weights on rows states, oldest first, of sum_i (-1)^i C(order, i + shift) x_(k-i).

    x_k is the newest state.  shift 0 gives the backward difference of that
    order at x_k; shift 1 the polynomial of degree order - 1 through the
    newest order states, at the next step index.
    """
    return np.array([(-1) ** i * math.comb(order, i + shift)
                     for i in reversed(range(rows))], dtype=float)


# With fewer than _SELECTION_ROWS states, the polynomial through all of them:
# one weight column per history length, to scale the rows of a history.
_EXTRAPOLATION_WEIGHTS = {rows: _newest_weights(rows, rows, 1)[:, None]
                          for rows in range(2, _SELECTION_ROWS)}
# From _SELECTION_ROWS states on, one (2m - 3, m) matrix per history length
# m: the backward differences of orders 2 .. m - 1 at the newest state x_k,
# x_k itself, and the extrapolations of degrees 1 .. m - 2.
_SELECTION_WEIGHTS = {
    rows: np.array([_newest_weights(rows, order, 0) for order in range(2, rows)]
                   + [np.eye(rows)[-1]]
                   + [_newest_weights(rows, degree + 1, 1)
                      for degree in range(1, rows - 1)])
    for rows in range(_SELECTION_ROWS, HISTORY_DEPTH + 1)}
# Orders of the linear-prediction candidates of _predicted_start.
_PREDICTION_ORDERS = (3, 6)


def _linear_prediction_arrays(rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed arrays of the linear-prediction candidates for m = rows states.

    With the m - 1 first differences d_0 .. d_(m-2) of the states, oldest
    first, and their Gram matrix G, normal @ G.ravel() holds the normal
    equations of every order in _PREDICTION_ORDERS up to m - 2: a
    block-diagonal (size, size) matrix with one block per order,
    row-major, then its right-hand side.  With the coefficients c, combos
    + (scatter @ c).reshape(combos.shape) weighs the m states into each
    order's residual, then each order's guess.
    """
    newest = rows - 2              # d_newest = x_(newest+1) - x_newest
    orders = [p for p in _PREDICTION_ORDERS if p <= newest]
    size = sum(orders)
    normal = np.zeros((size + 1, size, newest + 1, newest + 1))
    combos = np.zeros((2, len(orders), rows))
    scatter = np.zeros((2, len(orders), rows, size))
    first = 0
    for c, p in enumerate(orders):
        block = range(first, first + p)
        # the equations d_t ~ sum_j a_j d_(t-1-j), t = p .. newest
        for t in range(p, newest + 1):
            for j, row in enumerate(block):
                normal[row, block, t - 1 - j, range(t - 1, t - 1 - p, -1)] += 1.0
                normal[size, row, t - 1 - j, t] += 1.0
        # the residual d_newest - sum_j a_j d_(newest-1-j) and the guess
        # x_k + sum_j a_j d_(newest-j), as weights on the states
        combos[0, c, [newest + 1, newest]] = 1.0, -1.0
        combos[1, c, newest + 1] = 1.0
        for j, coeff in enumerate(block):
            scatter[0, c, [newest - j, newest - 1 - j], coeff] = -1.0, 1.0
            scatter[1, c, [newest + 1 - j, newest - j], coeff] = 1.0, -1.0
        first += p
    return (normal.reshape(-1, (newest + 1) ** 2), combos.reshape(-1, rows),
            scatter.reshape(-1, size))


_LINEAR_PREDICTION = {rows: _linear_prediction_arrays(rows)
                      for rows in range(_SELECTION_ROWS, HISTORY_DEPTH + 1)}


def _linear_prediction(history: np.ndarray, bound: float) -> np.ndarray | None:
    """The best linear-prediction guess whose residual is below bound, or None.

    history holds m states x_0 .. x_k, oldest first, one row each, and d_i
    = x_(i+1) - x_i are their first differences.  The candidate of order p
    fits scalar coefficients a, shared by all 2n values, to the
    differences, d_t ~ sum_j a_j d_(t-1-j) (j < p), by least squares
    through the normal equations of their one Gram matrix.  Its residual
    is max |d_(m-2) - sum_j a_j d_(m-3-j)|, how far it predicted the
    newest difference, and its guess x_k + sum_j a_j d_(m-2-j).  Where the
    normal equations are singular (the differences span fewer directions
    than an order has coefficients) there is no guess.
    """
    normal, combos, scatter = _LINEAR_PREDICTION[len(history)]
    differences = history[1:] - history[:-1]
    equations = normal @ (differences @ differences.T).ravel()
    size = scatter.shape[1]
    try:
        coeffs = np.linalg.solve(equations[:-size].reshape(size, size),
                                 equations[-size:])
    except np.linalg.LinAlgError:
        return None
    out = (combos + (scatter @ coeffs).reshape(combos.shape)) @ history
    count = len(out) // 2
    residuals = np.abs(out[:count]).max(axis=1)
    best = int(residuals.argmin())
    return out[count + best] if residuals[best] < bound else None


def _predicted_start(history: np.ndarray,
                     tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """First iterate for the next step, extrapolated from the accepted states.

    history holds the last accepted states, oldest first, one (rho, theta)
    row of 2n values per time level; only the last HISTORY_DEPTH are read.
    None (start from the previous state) after one row.  With m rows:

    * m < _SELECTION_ROWS: the polynomial in the step index through all m
      rows (degree m - 1), its weighted rows added one at a time in the
      weights' order;
    * from _SELECTION_ROWS rows on, the polynomial of the degree p in
      1 .. m - 2 that best predicted the newest state x_k from the states
      before it: the one whose error there, max |nabla^(p+1) x_k| over the
      2n values, is smallest (the lowest p on ties), as variable-order
      Adams codes choose their order from the backward differences of the
      accepted states (Shampine & Gordon, Computer Solution of Ordinary
      Differential Equations, 1975; Hairer, Norsett & Wanner, Solving
      ODEs I, III.7);
    * where that smallest error exceeds tol * max |x_k|, the linear-
      prediction candidates of orders 3 and 6 (those up to m - 2) are
      fitted to the first differences of the rows (_linear_prediction),
      and the one with the smallest residual on the newest difference
      replaces the polynomial if that residual is smaller than its error.
      A polynomial in the step index cannot follow states that decay like
      a few geometric modes, as a run relaxing toward equilibrium does; a
      linear recurrence of the differences is exact for them.  This is the
      least-squares linear prediction behind minimal polynomial vector
      extrapolation, with coefficients shared by all values (Sidi, Vector
      Extrapolation Methods with Applications, SIAM 2017).  A step the
      polynomial predicts within tol fits nothing.

    One product of the fixed (2m - 3, m) weight matrix with the rows gives
    the polynomial errors, max |x_k| and every polynomial guess.
    Polynomial extrapolations are the standard starting values for implicit
    steps (Hairer & Wanner, Solving ODEs II, IV.8).  The guess is
    deterministic, and it is clamped elementwise to at least half the last
    state, which keeps rho nonnegative and theta positive.  tol is the
    run's picard_tol.  Returns the (rho, theta) halves of the guess.
    """
    history = history[-HISTORY_DEPTH:]
    rows = len(history)
    if rows < 2:
        return None
    if rows < _SELECTION_ROWS:
        guess = (_EXTRAPOLATION_WEIGHTS[rows] * history).sum(axis=0)
    else:
        weighted = _SELECTION_WEIGHTS[rows] @ history
        # the errors of degrees 1 .. m - 2, then max |x_k|
        errors = np.abs(weighted[:rows - 1]).max(axis=1)
        degree = int(errors[:-1].argmin())
        guess = weighted[rows - 1 + degree]
        if errors[degree] > tol * errors[-1]:
            better = _linear_prediction(history, errors[degree])
            if better is not None:
                guess = better
    np.maximum(guess, 0.5 * history[-1], out=guess)
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


def _horizon(setup: Setup, t_end: float | None) -> tuple[float, int]:
    """t_end, setup.params.t_end where None, and its number of steps of setup's dt.

    ConfigError for a negative t_end, or one that is not a whole number of steps.
    """
    if t_end is None:
        t_end = setup.params.t_end
    if t_end < 0:
        raise ConfigError(f"t_end must be nonnegative, got {t_end}")
    steps = step_count(t_end, setup.step.dt)
    if t_end > 0 and not steps:
        raise ConfigError(
            f"t_end={t_end} is not a positive integer number of steps of dt={setup.step.dt}")
    return t_end, steps


class _Track:
    """One march's trajectory, times and series, written a block of levels at a time.

    Row k of states holds level k as one (rho, theta) row, and
    _predicted_start reads the newest rows.  The records of the levels
    since the last block wait until a block of about _STEP_BLOCK_CELLS
    cells, or the last level, goes to one step_record call.
    """

    def __init__(self, setup: Setup, start: State, steps: int, t_end: float):
        n = setup.grid.n
        self.setup, self.steps, self.t_end = setup, steps, t_end
        self.states = np.empty((steps + 1, 2 * n))
        self.t = np.empty(steps + 1)
        self.states[0, :n], self.states[0, n:], self.t[0] = start.rho, start.theta, start.t
        self.series = start_series(steps, start, setup)
        self.block = max(1, _STEP_BLOCK_CELLS // n)
        self.pending = []

    def start(self, k: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The predicted start of level k."""
        return _predicted_start(self.states[:k], self.setup.step.picard_tol)

    def add(self, k: int, state: State, records: tuple[StepRecord, ...]) -> None:
        """Level k's state and the records of its substeps."""
        n, pending = self.setup.grid.n, self.pending
        self.states[k, :n], self.states[k, n:], self.t[k] = state.rho, state.theta, state.t
        pending.append(records)
        if len(pending) == self.block or k == self.steps:
            step_record(self.series, k + 1 - len(pending), pending, self.setup)
            self.pending = []

    def result(self) -> RunResult:
        n = self.setup.grid.n
        return RunResult(self.states[:, :n], self.states[:, n:], self.t, self.series,
                         self.setup, self.t_end)


def run(setup: Setup, start: State, t_end: float | None = None,
        forcing: Forcing | None = None) -> RunResult:
    """March setup's problem from start to t_end with per-step diagnostics.

    t_end defaults to setup.params.t_end.  start is taken as float arrays
    and checked once, here, by _checked_start: DimensionMismatch unless
    1-D with grid.n cells, ConfigError for unequal lengths, nonfinite
    values, rho < 0 or theta <= 0.  The marched states are not checked
    again; certify_run judges them.  The forcing is evaluated once per
    (sub)step, at its new time.  The series is written a block of levels
    at a time (see step_record).  Deterministic: identical inputs produce
    bit-identical trajectories.
    """
    t_end, steps = _horizon(setup, t_end)
    state = _checked_start(start, setup.grid)
    track = _Track(setup, state, steps, t_end)
    for k in range(1, steps + 1):
        state, records = homotopy_solve(state, setup, forcing, track.start(k))
        track.add(k, state, records)
    return track.result()


class _MemberCurves(SaturationModel):
    """The members' own saturation curves, each on its own column of (n, B) temperatures."""

    def __init__(self, models: Sequence[SaturationModel]):
        self.models = tuple(models)

    def pressure(self, theta: np.ndarray) -> np.ndarray:
        return np.array([model.pressure(column)
                         for model, column in zip(self.models, theta.T)]).T


def _group(setups: Sequence[Setup]) -> SimpleNamespace:
    """The members' problem as the sweep kernel reads a Setup, with a member axis.

    Each constant is the members' one value where they agree, and otherwise
    the array of their values, which broadcasts along the member axis; the
    advection schemes are either one scheme or a tuple of booleans, True
    for the central members (see _donor_split), and the curve is one curve
    where every member's is the same object or a shipped curve of equal
    parameters, and _MemberCurves otherwise.  The members share their grid.
    """
    def agreed(values: list):
        return values[0] if values.count(values[0]) == len(values) else np.array(values)

    params = SimpleNamespace(**{
        field.name: agreed([getattr(setup.params, field.name) for setup in setups])
        for field in fields(PhysicalParams)})
    advection = agreed([setup.step.advection for setup in setups])
    if not isinstance(advection, str):
        advection = tuple(scheme == "central" for scheme in advection.tolist())
    model = setups[0].model
    shipped = type(model) in SATURATION_FAMILIES.values()
    if not all(setup.model is model or (shipped and type(setup.model) is type(model)
                                        and vars(setup.model) == vars(model))
               for setup in setups):
        model = _MemberCurves([setup.model for setup in setups])
    reg = SimpleNamespace(eps=agreed([setup.reg.eps for setup in setups]),
                          nu=agreed([setup.reg.nu for setup in setups]))
    return SimpleNamespace(params=params, model=model, reg=reg,
                           step=SimpleNamespace(advection=advection), grid=setups[0].grid)


def march(setups: Sequence[Setup], starts: Sequence[State],
          t_end: float | None = None) -> list:
    """March unforced members of one grid size, step and step count in lockstep.

    Member i is run(setups[i], starts[i], t_end) taken with the others: at
    each level every member gets its own predicted start, and the members'
    sweeps are taken together on (n, B) arrays, one column per member still
    marching (see _sweeps), while each member keeps its own convergence,
    Anderson history, records and series.  The group's kernel problem
    (_group) is made once, and again only when a member leaves the march.
    A member whose attempt at the level failed is retaken alone in halves,
    as homotopy_solve retakes a level (_halves); where an error of the
    kernel ended the group's sweeps, each member that was still sweeping
    takes the level alone through homotopy_solve, as its run does.
    Returns, in order, each member's RunResult, bit for bit the one run
    returns, or the library error that run would raise for it; a member
    that fails leaves the march, and the others go on.  ValueError unless
    there is one start per setup, and where the members that start do not
    share grid.n, dt and the number of steps.
    """
    if len(starts) != len(setups):
        raise ValueError(f"march needs one start per setup, got {len(starts)} starts "
                         f"for {len(setups)} setups")
    outcomes = [None] * len(setups)
    tracks, prevs = {}, {}
    for i, (setup, start) in enumerate(zip(setups, starts)):
        try:
            span, steps = _horizon(setup, t_end)
            prevs[i] = _checked_start(start, setup.grid)
        except PoromoistError as exc:
            outcomes[i] = exc
        else:
            tracks[i] = _Track(setup, prevs[i], steps, span)
    shapes = {(setups[i].grid.n, setups[i].step.dt, tracks[i].steps) for i in tracks}
    if len(shapes) > 1:
        raise ValueError(f"march members must share grid.n, dt and the step count, "
                         f"got {sorted(shapes)}")
    if not tracks:
        return outcomes
    (_, dt, steps), = shapes
    live, group = list(tracks), None
    for k in range(1, steps + 1):
        if not live:
            break
        if group is None:
            group = _group([setups[i] for i in live])
        predicted = [tracks[i].start(k) for i in live]
        swept = _sweeps([prevs[i] for i in live], [setups[i] for i in live], predicted, dt,
                        group, NO_FORCING)
        for i, start, outcome in zip(live, predicted, swept):
            try:
                if outcome is None:
                    # a kernel error ended the group's sweeps: the level is its run's
                    new, records = homotopy_solve(prevs[i], setups[i], None, start)
                elif isinstance(outcome, StepFailure):
                    # retaken alone in halves, as homotopy_solve retakes a level
                    new, records = _halves(prevs[i], setups[i], dt, _unforced, NO_FORCING, 0,
                                           outcome.sweeps)
                    new = State(new.rho, new.theta, prevs[i].t + dt)
                else:
                    new, record = outcome
                    records = (record,)
            except PoromoistError as exc:
                outcomes[i] = exc
            else:
                prevs[i] = new
                tracks[i].add(k, new, records)
        still = [i for i in live if outcomes[i] is None]
        if len(still) < len(live):
            live, group = still, None
    for i in live:
        outcomes[i] = tracks[i].result()
    return outcomes
