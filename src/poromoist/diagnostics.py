"""Certification diagnostics for simulated trajectories.

Every estimate the solver is supposed to respect is checked here by an
independent computation:

* per-step mass balance, exact up to solver roundoff because the vapor
  rows are flux differences that telescope;
* per-step energy balance in conservative form, whose only defect is the
  discrete product-rule commutator (rho jump times theta jump over dt),
  so it shrinks linearly under refinement and vanishes at steady states;
* a growth envelope for the combined mass/heat functional
  integral(lam rho + rho theta + sigma theta) driven by the recorded
  max-temperature history;
* a discrete max-temperature envelope rebuilt from each level's recorded
  latent-heating map;
* entropy integral(rho ln rho) with its gradient dissipation;
* a running fourth-power norm accumulator;
* weak residuals of the unregularized integral identities against a
  basis of space-time test functions.

All checks read the trajectory and its series (one column per quantity,
one entry per time level); none of them re-runs the solver.  The columns
that need what a step's last sweep froze (the balance residuals, the sweep
count and the envelope map) are written per level by step_record, from
its substeps' records; the functionals of the trajectory alone (mass,
energy, entropy, the field extrema and the fourth-power accumulator) are
computed per run by run_series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .discretization import Grid, boundary_traces, robin_fluxes
from .model import PhysicalParams, phase_change_rate, saturation_pressure

if TYPE_CHECKING:
    from .stepper import RunResult, StepRecord

__all__ = [
    "SERIES_COLUMNS",
    "MASS_TOL",
    "ENVELOPE_TOL",
    "start_series",
    "step_record",
    "run_series",
    "mass_balance_residual",
    "energy_balance_residual",
    "EnvelopeReport",
    "mass_energy_envelope_check",
    "theta_envelope",
    "EntropyReport",
    "entropy_monitor",
    "SpaceShape",
    "default_test_functions",
    "WeakResidualReport",
    "weak_residual",
    "CertificationReport",
    "certify_run",
]

# The series.csv columns after t, in order.  A run's series also holds the
# _ENVELOPE_COLUMNS, each level's max-temperature envelope map (not written).
SERIES_COLUMNS = (
    "total_mass", "mass_energy", "entropy", "min_rho", "min_theta",
    "max_theta", "mass_balance_residual", "energy_balance_residual",
    "l4_accumulator", "picard_iterations",
)

_ENVELOPE_COLUMNS = ("envelope_lift", "envelope_gain")
# Written per level by step_record; run_series computes the rest per run.
_STEP_COLUMNS = ("mass_balance_residual", "energy_balance_residual",
                 "picard_iterations") + _ENVELOPE_COLUMNS
_TRAJECTORY_COLUMNS = ("total_mass", "mass_energy", "entropy", "min_rho",
                       "min_theta", "max_theta", "l4_accumulator")

# Cells per block of run_series: 128 kB per temporary array.
_BLOCK_CELLS = 16384

# certify_run's bound on the per-step mass balance residual (roundoff) and
# the relative slack of the mass/heat envelope.
MASS_TOL = 1e-10
ENVELOPE_TOL = 1e-9


def start_series(steps: int) -> dict:
    """Step columns for steps + 1 time levels, keyed by name.

    step_record fills rows 1..steps; row 0, the start state, stays zero but
    for its envelope map, the identity (lift 0, gain 1).
    """
    series = {name: np.zeros(steps + 1) for name in _STEP_COLUMNS}
    series["picard_iterations"] = np.zeros(steps + 1, dtype=int)
    series["envelope_gain"][0] = 1.0
    return series


def mass_balance_residual(srec: StepRecord, grid: Grid) -> float:
    """Defect of the summed vapor rows against the wall fluxes.

    The interior rows are exact flux differences, so up to linear-solver
    roundoff this is zero regardless of resolution.
    """
    h = grid.h
    rho_new, coeffs = srec.rho, srec.coeffs
    drho = h * (rho_new - srec.prev.rho).sum() / srec.dt
    reaction = h * (coeffs.chi_sqrt * rho_new - coeffs.chi_ps).sum()
    source = h * np.sum(srec.forcing.rho_source)
    boundary = srec.mass_flux[-1] - srec.mass_flux[0]
    return float(abs(drho + reaction - source - boundary))


def energy_balance_residual(srec: StepRecord, grid: Grid, params: PhysicalParams) -> float:
    """Defect of the conservative heat balance over one step.

    Both flux groups telescope exactly, and the frozen reaction terms are
    accounted for verbatim, so the remainder is the time commutator
    sum h (rho_new - rho_prev)(theta_new - theta_prev) / dt.  It is first
    order in dt on smooth runs and vanishes at fixed points.  The wall
    terms are the Robin conductive fluxes (plus any forcing correction) and
    the mass fluxes carrying the wall traces of the new temperature.
    """
    h = grid.h
    rho_new, theta_new, coeffs, forcing = srec.rho, srec.theta, srec.coeffs, srec.forcing
    rho_prev, theta_prev = srec.prev.rho, srec.prev.theta
    e_new = h * (rho_new * theta_new + params.sigma * theta_new).sum()
    e_prev = h * (rho_prev * theta_prev + params.sigma * theta_prev).sum()

    th_l, th_r = boundary_traces(theta_new)
    cond_l, cond_r = robin_fluxes(th_l, th_r, params.beta0, params.beta1,
                                  params.theta_bar0, params.theta_bar1)
    g0, g1 = forcing.theta_flux
    boundary = ((cond_r + g1) + srec.mass_flux[-1] * th_r
                - (cond_l + g0) - srec.mass_flux[0] * th_l)
    gamma = rho_new * coeffs.chi_sqrt - coeffs.chi_ps
    lag_defect = ((params.lam + theta_new) * coeffs.chi_ps
                  - (params.lam + srec.theta_iter) * coeffs.ps_iter)
    interior = h * (params.lam * gamma + lag_defect).sum()
    source = h * np.sum(forcing.theta_source) + h * np.sum(theta_new * forcing.rho_source)
    return float(abs((e_new - e_prev) / srec.dt - boundary - interior - source))


def step_record(series: dict, k: int, records: tuple[StepRecord, ...], grid: Grid,
                params: PhysicalParams) -> None:
    """Write row k of the step columns from the substeps that reached level k.

    The balance residuals are the largest over the substeps (np.maximum
    keeps a NaN), and picard_iterations counts every sweep.  A substep of
    size h at heating rate r = max(rho X(sqrt(theta)) / (rho + sigma)) maps
    the max-temperature envelope by env <- (env + h lam r)(1 + h r); their
    composition is the level's env <- (env + lift) gain.
    """
    mass = energy = lift = sweeps = 0
    gain = 1.0
    for srec in records:
        mass = np.maximum(mass, mass_balance_residual(srec, grid))
        energy = np.maximum(energy, energy_balance_residual(srec, grid, params))
        sweeps += srec.sweeps
        rate = (srec.rho * srec.coeffs.chi_sqrt / (srec.rho + params.sigma)).max()
        lift += srec.dt * params.lam * rate / gain
        gain *= 1.0 + srec.dt * rate
    for name, value in zip(_STEP_COLUMNS, (mass, energy, sweeps, lift, gain)):
        series[name][k] = value


def run_series(step_columns: dict, rho: np.ndarray, theta: np.ndarray, dt: float,
               grid: Grid, params: PhysicalParams) -> dict:
    """The run's series: the step columns plus the trajectory functionals.

    rho and theta hold one time level per row.  Each functional reduces a
    row along its cells, which adds in the order a reduction of that row
    alone would, and the fourth-power accumulator sums its left-rule terms
    dt h sum(rho^4) in sequence, so every entry has the bits of the
    row-at-a-time recurrence.  The rows are taken in blocks of about
    _BLOCK_CELLS cells, which bounds the temporaries on long runs.
    """
    h, lam, sigma = grid.h, params.lam, params.sigma
    levels = len(rho)
    columns = {name: np.empty(levels) for name in _TRAJECTORY_COLUMNS}
    fourth = np.empty(levels)
    rows = max(1, _BLOCK_CELLS // grid.n)
    for lo in range(0, levels, rows):
        block = slice(lo, lo + rows)
        r, th = rho[block], theta[block]
        columns["total_mass"][block] = h * r.sum(axis=1)
        columns["mass_energy"][block] = h * (lam * r + r * th + sigma * th).sum(axis=1)
        terms = np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0)
        columns["entropy"][block] = h * terms.sum(axis=1)
        columns["min_rho"][block] = r.min(axis=1)
        columns["min_theta"][block] = th.min(axis=1)
        columns["max_theta"][block] = th.max(axis=1)
        fourth[block] = h * (r**4).sum(axis=1)
    l4 = columns["l4_accumulator"]
    l4[0] = 0.0
    np.cumsum(dt * fourth[:-1], out=l4[1:])
    columns.update(step_columns)
    return {name: columns[name] for name in SERIES_COLUMNS + _ENVELOPE_COLUMNS}


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of the combined mass/heat growth-envelope check."""

    ok: bool
    c_init: float
    c_rate: float
    bounds: np.ndarray
    first_violation_t: float | None
    min_slack: float


def mass_energy_envelope_check(result: RunResult) -> EnvelopeReport:
    """Check integral(lam rho + rho theta + sigma theta) against its envelope.

    The admissible envelope is an affine functional of the run's own
    max-temperature history: a startup budget built from the initial norms
    plus the ambient exchange capacity over the full horizon, growing at
    rate (alpha1 rho_bar1 + alpha0 rho_bar0) times the running integral of
    max theta, with ENVELOPE_TOL relative slack.  Everything is computed
    from the run's series.  A nonfinite value or bound is a violation.
    """
    p = result.params
    values = result.series["mass_energy"]
    max_theta = result.series["max_theta"]
    mass0 = result.series["total_mass"][0]
    theta0_max = max_theta[0]
    horizon = max(result.t_end, result.t[-1])
    c_init = ((p.lam + theta0_max) * mass0 + p.sigma * theta0_max
              + (p.lam * (p.alpha1 * p.rho_bar1 + p.alpha0 * p.rho_bar0)
                 + p.beta1 * p.theta_bar1 + p.beta0 * p.theta_bar0) * horizon)
    c_rate = p.alpha1 * p.rho_bar1 + p.alpha0 * p.rho_bar0
    dt = result.cfg.dt
    integral = np.concatenate(([0.0], np.cumsum(max_theta[:-1]) * dt))
    bounds = c_init + c_rate * integral
    slack = bounds + ENVELOPE_TOL * np.maximum(1.0, np.abs(bounds)) - values
    bad = np.nonzero(~(slack >= 0))[0]
    first_t = float(result.t[bad[0]]) if bad.size else None
    return EnvelopeReport(bad.size == 0, float(c_init), float(c_rate),
                          bounds, first_t, float(np.min(slack)))


def theta_envelope(result: RunResult) -> list:
    """Discrete growth envelope for max theta, one value per time level.

    The walls pull toward the ambient temperatures and the only interior
    source is latent heating, so each level grows the envelope by its map
    (see step_record), env <- max((env + lift) gain, theta_bar0, theta_bar1):
    (env + dt lam r)(1 + dt r) for one step of dt at heating rate r.
    """
    p, series = result.params, result.series
    env = max(float(series["max_theta"][0]), p.theta_bar0, p.theta_bar1)
    envelope = [env]
    for lift, gain in zip(series["envelope_lift"][1:].tolist(),
                          series["envelope_gain"][1:].tolist()):
        env = max((env + lift) * gain, p.theta_bar0, p.theta_bar1)
        envelope.append(env)
    return envelope


@dataclass(frozen=True)
class EntropyReport:
    max_entropy: float
    dissipation: float


def entropy_monitor(result: RunResult) -> EntropyReport:
    """Track integral(rho ln rho) and its gradient dissipation integral.

    The dissipation is the time integral of sum_faces h theta (drho/dx)^2
    evaluated at the end-of-step states; together with the entropy column
    it certifies that the degenerate diffusion keeps doing work.
    """
    h = result.grid.h
    dt = result.cfg.dt
    dissipation = 0.0
    for rho, theta in zip(result.rho[1:], result.theta[1:]):
        grad = np.diff(rho) / h
        theta_face = 0.5 * (theta[:-1] + theta[1:])
        dissipation += dt * float(h * np.sum(theta_face * grad**2))
    return EntropyReport(float(np.max(result.series["entropy"])), dissipation)


@dataclass(frozen=True)
class SpaceShape:
    """Spatial test-function factor with its exact derivative."""

    name: str
    value: Callable
    slope: Callable


def default_test_functions() -> tuple[SpaceShape, ...]:
    shapes = [
        SpaceShape("one", lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
        SpaceShape("x", lambda x: x, lambda x: np.ones_like(x)),
        SpaceShape("1-x", lambda x: 1.0 - x, lambda x: -np.ones_like(x)),
        SpaceShape("x^2", lambda x: x**2, lambda x: 2.0 * x),
        SpaceShape("x^3", lambda x: x**3, lambda x: 3.0 * x**2),
        SpaceShape("x(1-x)", lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x),
    ]
    for k in (1, 2, 3):
        w = k * np.pi
        shapes.append(SpaceShape(f"sin{k}", lambda x, w=w: np.sin(w * x),
                                 lambda x, w=w: w * np.cos(w * x)))
        shapes.append(SpaceShape(f"cos{k}", lambda x, w=w: np.cos(w * x),
                                 lambda x, w=w: -w * np.sin(w * x)))
    return tuple(shapes)


def _time_window(t_end: float) -> tuple[Callable, Callable]:
    """Smooth bump equal to 1 at t=0 and flat-zero at t=t_end."""
    tt = t_end * t_end

    def zeta(t: float) -> float:
        if t >= t_end * (1.0 - 1e-12):
            return 0.0
        return float(np.exp(-t * t / (tt - t * t)))

    def zeta_prime(t: float) -> float:
        if t >= t_end * (1.0 - 1e-12):
            return 0.0
        den = tt - t * t
        return float(-2.0 * t * tt / den**2 * np.exp(-t * t / den))

    return zeta, zeta_prime


@dataclass(frozen=True)
class WeakResidualReport:
    shape_names: tuple
    mass_residuals: np.ndarray
    heat_residuals: np.ndarray

    @property
    def max_mass(self) -> float:
        return float(np.max(np.abs(self.mass_residuals)))

    @property
    def max_heat(self) -> float:
        return float(np.max(np.abs(self.heat_residuals)))


def weak_residual(result: RunResult) -> WeakResidualReport:
    """Test the trajectory against the unregularized integral identities.

    For each test function phi = T(x) zeta(t), with T one of
    default_test_functions() and zeta vanishing at the final time, the
    mass identity accumulates

        -int rho phi_t - int rho(0) phi(0) + int flux T'(x) zeta
        - [wall flux * phi] + int gamma phi

    and the heat identity its conservative counterpart, with all fluxes,
    wall exchanges, and the phase-change rate rebuilt from the states with
    no cutoff, no mollifier, and no eps lift.  Midpoint quadrature pairs
    the averaged states with phi_t; everything else is sampled at the end
    of each step, matching the implicit scheme's first-order accuracy.
    Forcing corrections are not included, so use unforced runs.
    """
    shapes = default_test_functions()
    grid, p = result.grid, result.params
    model = result.model
    h, dt = grid.h, result.cfg.dt
    x, xf = grid.centers, grid.faces[1:-1]
    t_final = float(result.t[-1])
    zeta, zeta_prime = _time_window(t_final)

    tvals = np.array([sh.value(x) for sh in shapes])           # (m, n)
    tslopes = np.array([sh.slope(xf) for sh in shapes])        # (m, n-1)
    t_left = np.array([float(sh.value(np.array([0.0]))[0]) for sh in shapes])
    t_right = np.array([float(sh.value(np.array([1.0]))[0]) for sh in shapes])

    mass_res = np.zeros(len(shapes))
    heat_res = np.zeros(len(shapes))

    rho0, theta0 = result.rho[0], result.theta[0]
    e0 = rho0 * theta0 + p.sigma * theta0
    mass_res -= h * (tvals @ rho0) * zeta(0.0)
    heat_res -= h * (tvals @ e0) * zeta(0.0)

    for k in range(1, len(result.t)):
        r0, th0 = result.rho[k - 1], result.theta[k - 1]
        r1, th1 = result.rho[k], result.theta[k]
        zp_mid = zeta_prime(float(result.t[k - 1]) + 0.5 * dt)
        z1 = zeta(float(result.t[k]))

        mass_res -= dt * h * (tvals @ (0.5 * (r0 + r1))) * zp_mid
        e_mid = 0.5 * ((r0 * th0 + p.sigma * th0) + (r1 * th1 + p.sigma * th1))
        heat_res -= dt * h * (tvals @ e_mid) * zp_mid
        if z1 == 0.0:
            continue

        pressure = r1 * th1
        flux = 0.5 * (r1[:-1] + r1[1:]) * np.diff(pressure) / h
        theta_face = 0.5 * (th1[:-1] + th1[1:])
        kappa_face = p.kappa1 + 0.5 * p.kappa2 * (r1[:-1]**2 + r1[1:]**2)
        heat_flux = flux * theta_face + kappa_face * np.diff(th1) / h

        th_l, th_r = boundary_traces(th1)
        f_left, f_right = robin_fluxes(*boundary_traces(r1), p.alpha0, p.alpha1,
                                       p.rho_bar0, p.rho_bar1)
        g_left, g_right = robin_fluxes(th_l, th_r, p.beta0, p.beta1,
                                       p.theta_bar0, p.theta_bar1)

        gamma = phase_change_rate(r1, th1, model)

        mass_res += dt * z1 * (
            h * (tslopes @ flux)
            - (f_right * t_right - f_left * t_left)
            + h * (tvals @ gamma))
        heat_res += dt * z1 * (
            h * (tslopes @ heat_flux)
            - ((f_right * th_r + g_right) * t_right
               - (f_left * th_l + g_left) * t_left)
            - p.lam * h * (tvals @ gamma))

    return WeakResidualReport(tuple(sh.name for sh in shapes), mass_res, heat_res)


@dataclass(frozen=True)
class CertificationReport:
    """Aggregate verdict over every per-run certification."""

    passed: bool
    failures: tuple
    max_mass_residual: float
    max_energy_residual: float
    envelope: EnvelopeReport
    theta_envelope_ok: bool
    min_rho: float
    min_theta: float
    entropy: EntropyReport

    def summary(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "max_mass_residual": self.max_mass_residual,
            "max_energy_residual": self.max_energy_residual,
            "envelope_ok": self.envelope.ok,
            "envelope_min_slack": self.envelope.min_slack,
            "theta_envelope_ok": self.theta_envelope_ok,
            "min_rho": self.min_rho,
            "min_theta": self.min_theta,
            "max_entropy": self.entropy.max_entropy,
            "entropy_dissipation": self.entropy.dissipation,
        }


# The columns certify_run reads.  A nonfinite entry in one of them fails the
# run as "<column> is not finite", and the checks of that column's values
# are skipped, so no message reports a NaN as a size.
_CERTIFIED_COLUMNS = (
    "mass_balance_residual", "energy_balance_residual", "total_mass",
    "mass_energy", "max_theta", "envelope_lift", "envelope_gain", "min_rho",
    "min_theta", "entropy", "l4_accumulator",
)


def certify_run(result: RunResult) -> CertificationReport:
    """Run every certification that has a sharp expected outcome.

    Mass balance must sit at solver roundoff (MASS_TOL), both envelopes
    must hold (the max-temperature one rebuilt here from the envelope-map
    columns), and the fields must stay in the admissible cone.  The energy
    residual has no universal threshold (it is first order in dt), so it is
    reported but only checked for finiteness.  Every column read must be
    finite; a check of values runs only on the finite columns it reads.
    """
    series = result.series
    nonfinite = {name for name in _CERTIFIED_COLUMNS
                 if not np.isfinite(series[name]).all()}
    failures = [f"{name} is not finite" for name in _CERTIFIED_COLUMNS
                if name in nonfinite]
    max_mass = np.max(series["mass_balance_residual"])
    max_energy = np.max(series["energy_balance_residual"])
    if "mass_balance_residual" not in nonfinite and max_mass > MASS_TOL:
        failures.append(f"mass balance residual {max_mass:.3e} exceeds {MASS_TOL:.1e}")
    envelope = mass_energy_envelope_check(result)
    if not envelope.ok and not nonfinite & {"total_mass", "mass_energy", "max_theta"}:
        failures.append(
            f"mass/heat envelope violated at t={envelope.first_violation_t} "
            f"(excess {-envelope.min_slack:.3e})")
    theta_ok = bool(np.all(series["max_theta"][1:]
                           <= np.array(theta_envelope(result)[1:]) + 1e-9))
    if not theta_ok and not nonfinite & {"max_theta", *_ENVELOPE_COLUMNS}:
        failures.append("max-temperature envelope violated")
    min_rho = np.min(series["min_rho"])
    min_theta = np.min(series["min_theta"])
    if "min_rho" not in nonfinite and min_rho < 0:
        failures.append(f"negative vapor density {min_rho:.3e}")
    if "min_theta" not in nonfinite and min_theta <= 0:
        failures.append(f"nonpositive temperature {min_theta:.3e}")
    entropy = entropy_monitor(result)
    if not np.isfinite(entropy.dissipation):
        failures.append("entropy dissipation is not finite")
    return CertificationReport(
        passed=not failures, failures=tuple(failures),
        max_mass_residual=float(max_mass), max_energy_residual=float(max_energy),
        envelope=envelope, theta_envelope_ok=theta_ok,
        min_rho=float(min_rho), min_theta=float(min_theta), entropy=entropy)
