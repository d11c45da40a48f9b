"""Certification diagnostics for simulated trajectories.

certify_run checks every estimate the solver is supposed to respect by an
independent computation:

* per-step mass balance, exact up to solver roundoff because the vapor
  rows are flux differences that telescope;
* per-step energy balance in conservative form, whose only defect is the
  discrete product-rule commutator (rho jump times theta jump over dt),
  so it shrinks linearly under refinement and vanishes at steady states;
  it is reported and must be finite;
* a growth envelope for the combined mass/heat functional
  integral(lam rho + rho theta + sigma theta) driven by the recorded
  max-temperature history;
* a discrete max-temperature envelope rebuilt from each level's recorded
  latent-heating map;
* positivity of both fields;
* entropy integral(rho ln rho) and its gradient dissipation, which must be
  finite, as must the running fourth-power norm accumulator.

weak_residual is a separate probe that certify_run does not run: it tests
the trajectory against the unregularized integral identities on a basis
of space-time test functions.

All checks read the trajectory and its series (one column per quantity,
one entry per time level); none of them re-runs the solver.  Every column
of a block of levels is written by one step_record call from the records
of their substeps: the balance residuals, the sweep count and the
envelope map from what each substep's last sweep froze, and the
functionals of the level states (mass, energy, entropy, the field
extrema) from each level's last substep.  The two time integrals, the
fourth-power accumulator and the entropy dissipation, carry on from the
row before the block.  start_series writes the start level, so
certify_run reads only the series.  Every functional reduces stacked rows
along axis 1, which adds in the order a reduction of one row alone would,
and each integral adds its terms in level order, so every value has the
bits of a row-at-a-time computation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .discretization import NO_FORCING, boundary_traces, robin_fluxes
from .model import PhysicalParams, phase_change_rate

if TYPE_CHECKING:
    from .stepper import RunResult, Setup, State, StepRecord

__all__ = [
    "SERIES_COLUMNS",
    "MASS_TOL",
    "ENVELOPE_TOL",
    "start_series",
    "step_record",
    "SpaceShape",
    "default_test_functions",
    "WeakResidualReport",
    "weak_residual",
    "CertificationReport",
    "certify_run",
]

# The series.csv columns after t, in order.  A run's series also holds the
# _ENVELOPE_COLUMNS, each level's max-temperature envelope map, and
# "dissipation", the running entropy dissipation integral; neither is
# written.
SERIES_COLUMNS = (
    "total_mass", "mass_energy", "entropy", "min_rho", "min_theta",
    "max_theta", "mass_balance_residual", "energy_balance_residual",
    "l4_accumulator", "picard_iterations",
)

_ENVELOPE_COLUMNS = ("envelope_lift", "envelope_gain")

# certify_run's bound on the per-step mass balance residual (roundoff) and
# the relative slack of the mass/heat envelope.
MASS_TOL = 1e-10
ENVELOPE_TOL = 1e-9


def _state_functionals(rho: np.ndarray, theta: np.ndarray, h: float,
                       params: PhysicalParams) -> dict:
    """The six functionals of the states in the rows of rho and theta, by column."""
    lam, sigma = params.lam, params.sigma
    terms = np.where(rho > 0, rho * np.log(np.where(rho > 0, rho, 1.0)), 0.0)
    return {"total_mass": h * rho.sum(axis=1),
            "mass_energy": h * (lam * rho + rho * theta + sigma * theta).sum(axis=1),
            "entropy": h * terms.sum(axis=1),
            "min_rho": rho.min(axis=1),
            "min_theta": theta.min(axis=1),
            "max_theta": theta.max(axis=1)}


def start_series(steps: int, start: State, setup: Setup) -> dict:
    """The series of a run of steps levels from start, keyed by name.

    Row 0 holds the state functionals of start; its balance residuals,
    sweep count and time integrals are zero and its envelope map is the
    identity (lift 0, gain 1).  step_record fills rows 1..steps, one block
    of levels per call.
    """
    series = {name: np.zeros(steps + 1)
              for name in SERIES_COLUMNS + _ENVELOPE_COLUMNS + ("dissipation",)}
    series["picard_iterations"] = np.zeros(steps + 1, dtype=int)
    series["envelope_gain"][0] = 1.0
    for name, values in _state_functionals(start.rho[None], start.theta[None],
                                           setup.grid.h, setup.params).items():
        series[name][0] = values[0]
    return series


def step_record(series: dict, first: int, levels: Sequence[tuple[StepRecord, ...]],
                setup: Setup) -> None:
    """Write rows first, first + 1, ... of every column, one per level of setup.step.dt.

    levels[i] holds the records of the substeps that reached level
    first + i.  Each record's mass and energy balance residuals and its
    heating rate are row reductions of the block's stacked (records, n)
    arrays, which add in the order a reduction of that record alone would,
    so every entry has the bits of a record-at-a-time computation.

    Mass balance: the summed vapor rows against the wall fluxes.  The
    interior rows are exact flux differences, so up to linear-solver
    roundoff this is zero regardless of resolution.

    Energy balance: the conservative heat balance over the substep.  Both
    flux groups telescope exactly, and the frozen reaction terms are
    accounted for verbatim, so the remainder is the time commutator
    sum h (rho_new - rho_prev)(theta_new - theta_prev) / dt.  It is first
    order in dt on smooth runs and vanishes at fixed points.  The wall
    terms are the Robin conductive fluxes (plus any forcing correction) and
    the mass fluxes carrying the wall traces of the new temperature.  An
    unforced block skips the zero forcing terms, which change no value,
    because one path for both kept every bit but made the smoke run about
    10% slower.

    A level's balance residuals are the largest over its substeps
    (np.maximum keeps a NaN), and picard_iterations counts every sweep.  A
    substep of size h at heating rate r = max(rho X(sqrt(theta)) / (rho + sigma))
    maps the max-temperature envelope by env <- (env + h lam r)(1 + h r);
    their composition is the level's env <- (env + lift) gain.

    A level's state is its last substep's solution, and the state before
    it its first substep's prev.  The state functionals are those of the
    level's state.  The fourth-power accumulator adds dt h sum(rho^4) of
    the state before each level (the left rule), and "dissipation" adds
    dt sum_faces h theta (drho/dx)^2 of the level's state; both continue
    from row first - 1 and add in level order.
    """
    params, dt, n, h = setup.params, setup.step.dt, setup.grid.n, setup.grid.h
    lam, sigma = params.lam, params.sigma
    records = [srec for level in levels for srec in level]

    def stack(field):
        get = attrgetter(field)
        return np.array([get(srec) for srec in records])

    rho_new, theta_new, theta_iter, mass_flux = (
        stack(field) for field in ("rho", "theta", "theta_iter", "mass_flux"))
    rho_prev, theta_prev = stack("prev.rho"), stack("prev.theta")
    chi_sqrt, chi_ps, ps_iter = (stack("coeffs." + field)
                                 for field in ("chi_sqrt", "chi_ps", "ps_iter"))
    record_dt = np.array([srec.dt for srec in records])
    flux_l, flux_r = mass_flux[:, 0], mass_flux[:, -1]

    mass = h * (rho_new - rho_prev).sum(axis=1) / record_dt + h * (
        chi_sqrt * rho_new - chi_ps).sum(axis=1)
    e_new = h * (rho_new * theta_new + sigma * theta_new).sum(axis=1)
    e_prev = h * (rho_prev * theta_prev + sigma * theta_prev).sum(axis=1)
    th_l, th_r = boundary_traces(theta_new.T)
    cond_l, cond_r = robin_fluxes(th_l, th_r, params.beta0, params.beta1,
                                  params.theta_bar0, params.theta_bar1)
    gamma = rho_new * chi_sqrt - chi_ps
    lag_defect = (lam + theta_new) * chi_ps - (lam + theta_iter) * ps_iter
    interior = h * (lam * gamma + lag_defect).sum(axis=1)

    if all(srec.forcing is NO_FORCING for srec in records):
        boundary = cond_r + flux_r * th_r - cond_l - flux_l * th_l
        energy = (e_new - e_prev) / record_dt - boundary - interior
    else:
        rho_source, theta_source = (
            np.array([np.broadcast_to(getattr(srec.forcing, field), (n,))
                      for srec in records])
            for field in ("rho_source", "theta_source"))
        g0, g1 = np.array([srec.forcing.theta_flux for srec in records], dtype=float).T
        mass -= h * rho_source.sum(axis=1)
        boundary = (cond_r + g1) + flux_r * th_r - (cond_l + g0) - flux_l * th_l
        source = h * theta_source.sum(axis=1) + h * (theta_new * rho_source).sum(axis=1)
        energy = (e_new - e_prev) / record_dt - boundary - interior - source
    mass = np.abs(mass - (flux_r - flux_l))
    energy = np.abs(energy)
    rate = (rho_new * chi_sqrt / (rho_new + sigma)).max(axis=1)

    # Fold each level's substeps in order: the j-th pass takes the j-th
    # record of every level that has one.
    rows = len(levels)
    counts = np.array([len(level) for level in levels])
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    sweeps = np.array([srec.sweeps for srec in records])
    columns = {"mass_balance_residual": np.zeros(rows),
               "energy_balance_residual": np.zeros(rows),
               "picard_iterations": np.zeros(rows, dtype=int),
               "envelope_lift": np.zeros(rows), "envelope_gain": np.ones(rows)}
    for j in range(counts.max()):
        at = np.flatnonzero(counts > j)
        r = starts[at] + j
        for name, values in (("mass_balance_residual", mass),
                             ("energy_balance_residual", energy)):
            columns[name][at] = np.maximum(columns[name][at], values[r])
        columns["picard_iterations"][at] += sweeps[r]
        gain = columns["envelope_gain"]
        columns["envelope_lift"][at] += record_dt[r] * lam * rate[r] / gain[at]
        gain[at] *= 1.0 + record_dt[r] * rate[r]

    ends = starts + counts - 1
    rho, theta, before = rho_new[ends], theta_new[ends], rho_prev[starts]
    columns.update(_state_functionals(rho, theta, h, params))
    for name, values in columns.items():
        series[name][first:first + rows] = values
    theta_face = 0.5 * (theta[:, :-1] + theta[:, 1:])
    grad = np.diff(rho, axis=1) / h
    for name, terms in (("l4_accumulator", dt * (h * (before**4).sum(axis=1))),
                        ("dissipation", dt * (h * (theta_face * grad**2).sum(axis=1)))):
        column = series[name]
        np.cumsum(np.concatenate((column[first - 1:first], terms)),
                  out=column[first - 1:first + rows])


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
    grid, p, model = result.setup.grid, result.setup.params, result.setup.model
    h, dt = grid.h, result.setup.step.dt
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
    """Aggregate verdict over every per-run certification.

    The fields are the keys of the certification block of report.json;
    summary() gives them with failures as a list.
    """

    passed: bool
    failures: tuple
    max_mass_residual: float
    max_energy_residual: float
    envelope_ok: bool
    envelope_min_slack: float
    theta_envelope_ok: bool
    min_rho: float
    min_theta: float
    max_entropy: float
    entropy_dissipation: float

    def summary(self) -> dict:
        return dict(asdict(self), failures=list(self.failures))


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
    must hold, and the fields must stay in the admissible cone.  The energy
    residual has no universal threshold (it is first order in dt), so it is
    reported but only checked for finiteness.  Every column read must be
    finite; a check of values runs only on the finite columns it reads.

    Mass/heat envelope: integral(lam rho + rho theta + sigma theta) is
    bounded by an affine functional of the run's own max-temperature
    history, a startup budget built from the initial norms plus the
    ambient exchange capacity over the full horizon, growing at rate
    (alpha1 rho_bar1 + alpha0 rho_bar0) times the running integral of max
    theta, with ENVELOPE_TOL relative slack.  A nonfinite value or bound
    is a violation.

    Max-temperature envelope: the walls pull toward the ambient
    temperatures and the only interior source is latent heating, so each
    level grows the envelope by its map (see step_record),
    env <- max((env + lift) gain, theta_bar0, theta_bar1), from the start
    level's max theta and the ambients; max theta must stay within 1e-9 of
    it at every later level (a NaN fails).

    Entropy: the largest integral(rho ln rho) and the time integral of
    sum_faces h theta (drho/dx)^2 at the end-of-step states, the last entry
    of the running "dissipation" column, which must be finite.
    """
    p, series = result.setup.params, result.series
    nonfinite = {name for name in _CERTIFIED_COLUMNS
                 if not np.isfinite(series[name]).all()}
    failures = [f"{name} is not finite" for name in _CERTIFIED_COLUMNS
                if name in nonfinite]
    max_mass = np.max(series["mass_balance_residual"])
    max_energy = np.max(series["energy_balance_residual"])
    if "mass_balance_residual" not in nonfinite and max_mass > MASS_TOL:
        failures.append(f"mass balance residual {max_mass:.3e} exceeds {MASS_TOL:.1e}")

    max_theta = series["max_theta"]
    mass0, theta0_max = series["total_mass"][0], max_theta[0]
    horizon = max(p.t_end, result.t[-1])
    c_init = ((p.lam + theta0_max) * mass0 + p.sigma * theta0_max
              + (p.lam * (p.alpha1 * p.rho_bar1 + p.alpha0 * p.rho_bar0)
                 + p.beta1 * p.theta_bar1 + p.beta0 * p.theta_bar0) * horizon)
    c_rate = p.alpha1 * p.rho_bar1 + p.alpha0 * p.rho_bar0
    integral = np.concatenate(([0.0], np.cumsum(max_theta[:-1]) * result.setup.step.dt))
    bounds = c_init + c_rate * integral
    slack = bounds + ENVELOPE_TOL * np.maximum(1.0, np.abs(bounds)) - series["mass_energy"]
    bad = np.nonzero(~(slack >= 0))[0]
    min_slack = float(np.min(slack))
    if bad.size and not nonfinite & {"total_mass", "mass_energy", "max_theta"}:
        failures.append(f"mass/heat envelope violated at t={float(result.t[bad[0]])} "
                        f"(excess {-min_slack:.3e})")

    env = max(float(max_theta[0]), p.theta_bar0, p.theta_bar1)
    envelope = []
    for lift, gain in zip(series["envelope_lift"][1:].tolist(),
                          series["envelope_gain"][1:].tolist()):
        env = max((env + lift) * gain, p.theta_bar0, p.theta_bar1)
        envelope.append(env)
    theta_ok = bool(np.all(max_theta[1:] <= np.array(envelope) + 1e-9))
    if not theta_ok and not nonfinite & {"max_theta", *_ENVELOPE_COLUMNS}:
        failures.append("max-temperature envelope violated")

    min_rho = np.min(series["min_rho"])
    min_theta = np.min(series["min_theta"])
    if "min_rho" not in nonfinite and min_rho < 0:
        failures.append(f"negative vapor density {min_rho:.3e}")
    if "min_theta" not in nonfinite and min_theta <= 0:
        failures.append(f"nonpositive temperature {min_theta:.3e}")
    dissipation = float(series["dissipation"][-1])
    if not np.isfinite(dissipation):
        failures.append("entropy dissipation is not finite")
    return CertificationReport(
        passed=not failures, failures=tuple(failures),
        max_mass_residual=float(max_mass), max_energy_residual=float(max_energy),
        envelope_ok=bad.size == 0, envelope_min_slack=min_slack,
        theta_envelope_ok=theta_ok, min_rho=float(min_rho), min_theta=float(min_theta),
        max_entropy=float(np.max(series["entropy"])), entropy_dissipation=dissipation)
