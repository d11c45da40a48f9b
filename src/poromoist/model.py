"""Physical model: parameters, saturation laws, phase change, conductivity.

The medium exchanges vapor (density rho) and heat (temperature theta) with
two ambient reservoirs through exchange coefficients alpha/beta.  Phase
change is driven by the gap between the vapor pressure rho * sqrt(theta)
and a saturation curve p_s(theta): condensation removes vapor and releases
latent heat lam, evaporation does the reverse.  Conductivity grows with
the amount of condensate, modeled as kappa1 + kappa2 * rho**2.

Saturation curves are pluggable: subclass SaturationModel and implement
``pressure``.  Two families ship with the package; the exponential one
deliberately violates the superlinear-growth requirement and is used to
exercise the validator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .discretization import Grid, boundary_traces, robin_fluxes
from .errors import ConfigError, ModelInvalid

__all__ = [
    "PhysicalParams",
    "SaturationModel",
    "PowerLawSaturation",
    "ExponentialSaturation",
    "InitialData",
    "SaturationReport",
    "saturation_pressure",
    "phase_change_rate",
    "conductivity",
    "validate_saturation_assumptions",
    "darcy_velocity",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Nondimensional material and boundary-exchange constants.

    sigma      heat capacity of the dry fabric
    lam        latent heat released per unit of condensed vapor
    kappa1/2   conductivity law kappa1 + kappa2 * rho**2
    alpha0/1   vapor exchange coefficients at the left/right wall
    beta0/1    heat exchange coefficients at the left/right wall
    rho_bar*   ambient vapor densities
    theta_bar* ambient temperatures
    t_end      simulation horizon
    """

    sigma: float
    lam: float
    kappa1: float
    kappa2: float
    alpha0: float
    alpha1: float
    beta0: float
    beta1: float
    rho_bar0: float
    rho_bar1: float
    theta_bar0: float
    theta_bar1: float
    t_end: float

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not getattr(self, f.name) > 0]
        if bad:
            raise ConfigError(
                "physical parameters must be strictly positive; offending: "
                + ", ".join(bad)
            )

    @property
    def ambient_min(self) -> float:
        return min(self.rho_bar0, self.rho_bar1, self.theta_bar0, self.theta_bar1)


class SaturationModel:
    """Base saturation curve; subclasses implement ``pressure`` for theta > 0.

    The full curve is extended by zero to theta <= 0.  ``eta`` is the
    superlinear-growth exponent the curve is validated against: admissible
    curves have p_s(theta)/theta -> 0 near zero and
    p_s(theta)/theta**(1+eta) unbounded at infinity.
    """

    def __init__(self, eta: float):
        if not eta > 0:
            raise ConfigError(f"eta must be positive, got {eta}")
        self.eta = float(eta)

    def pressure(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PowerLawSaturation(SaturationModel):
    """p_s(theta) = c * theta**q with c > 0 and q > 1."""

    def __init__(self, c: float, q: float, eta: float = 1.0):
        super().__init__(eta)
        if not c > 0:
            raise ConfigError(f"power-law coefficient must be positive, got {c}")
        if not q > 1:
            raise ConfigError(f"power-law exponent must exceed 1, got {q}")
        self.c = float(c)
        self.q = float(q)

    def pressure(self, theta: np.ndarray) -> np.ndarray:
        return self.c * np.maximum(theta, 0.0) ** self.q


class ExponentialSaturation(SaturationModel):
    """p_s(theta) = a * theta**2 * exp(-b / theta) for theta > 0.

    Grows slower than theta**(2+eta') for every eta' > 0, so the validator
    is expected to flag the growth requirement at infinity.
    """

    def __init__(self, a: float, b: float, eta: float = 1.0):
        super().__init__(eta)
        if not a > 0 or not b > 0:
            raise ConfigError(f"exponential coefficients must be positive, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)

    def pressure(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        safe = np.where(theta > 0, theta, 1.0)
        return np.where(theta > 0, self.a * theta**2 * np.exp(-self.b / safe), 0.0)


def saturation_pressure(model: SaturationModel, theta) -> np.ndarray | float:
    """Evaluate the saturation curve, zero for theta <= 0."""
    arr = np.asarray(theta, dtype=float)
    out = np.where(arr > 0, model.pressure(arr), 0.0)
    return float(out) if out.ndim == 0 else out


def phase_change_rate(rho, theta, model: SaturationModel):
    """Condensation rate rho * sqrt(theta) - p_s(theta).

    Positive where vapor exceeds saturation (condensing, vapor sink),
    negative below saturation (evaporating).  The square-root argument is
    clamped at zero so roundoff-negative temperatures do not propagate NaN.
    """
    rho = np.asarray(rho, dtype=float)
    theta_arr = np.asarray(theta, dtype=float)
    out = rho * np.sqrt(np.maximum(theta_arr, 0.0)) - saturation_pressure(model, theta_arr)
    return float(out) if out.ndim == 0 else out


def conductivity(rho, params: PhysicalParams):
    """Heat conductivity kappa1 + kappa2 * rho**2 (bounded below by kappa1)."""
    rho = np.asarray(rho, dtype=float)
    out = params.kappa1 + params.kappa2 * rho**2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class InitialData:
    """Cell samples of the initial state.

    rho0 must be nonnegative and theta0 must stay at or above the positive
    floor theta_floor.
    """

    rho0: np.ndarray
    theta0: np.ndarray
    theta_floor: float

    def __post_init__(self):
        object.__setattr__(self, "rho0", np.asarray(self.rho0, dtype=float))
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        problems = []
        if not self.theta_floor > 0:
            problems.append(f"theta_floor must be positive, got {self.theta_floor}")
        if self.rho0.shape != self.theta0.shape:
            problems.append("rho0 and theta0 must have equal length")
        if not np.all(np.isfinite(self.rho0)) or not np.all(np.isfinite(self.theta0)):
            problems.append("initial samples must be finite")
        else:
            if np.any(self.rho0 < 0):
                problems.append("rho0 must be nonnegative")
            if self.theta_floor > 0 and np.any(self.theta0 < self.theta_floor):
                problems.append("theta0 must not fall below theta_floor")
        if problems:
            raise ConfigError("invalid initial data: " + "; ".join(problems))


@dataclass(frozen=True)
class SaturationReport:
    """Finite-sample verdicts for the structural saturation requirements."""

    eta: float
    zero_limit_pass: bool
    infinity_limit_pass: bool
    small_ratios: np.ndarray       # p_s/theta at _THETA_SMALL
    large_ratios: np.ndarray       # p_s/theta**(1+eta) at _THETA_LARGE

    @property
    def passed(self) -> bool:
        return self.zero_limit_pass and self.infinity_limit_pass

    def summary(self) -> dict:
        return {
            "eta": self.eta,
            "zero_limit_pass": self.zero_limit_pass,
            "infinity_limit_pass": self.infinity_limit_pass,
            "passed": self.passed,
            "small_ratio_first": float(self.small_ratios[0]),
            "small_ratio_last": float(self.small_ratios[-1]),
            "large_ratio_first": float(self.large_ratios[0]),
            "large_ratio_last": float(self.large_ratios[-1]),
        }


# Sampling ranges for the finite validator: limits at 0 and infinity are not
# finitely checkable, so monotone trends over twelve decades stand in.
_THETA_SMALL = np.geomspace(1e-6, 1.0, 25)
_THETA_LARGE = np.geomspace(1.0, 1e6, 25)
_TAIL_POINTS = 5
_TAIL_GROWTH = 1.05


def validate_saturation_assumptions(model: SaturationModel) -> SaturationReport:
    """Sample the curve and check sign, monotonicity, and both limit trends.

    Structural failures (negative values, nonmonotone curve, nonzero value
    at theta <= 0) raise ModelInvalid.  The two limit requirements produce
    pass/fail verdicts in the report: the ratio p_s/theta must fall
    strictly toward zero over theta in [1e-6, 1] (exact-zero ties from
    underflow allowed), and p_s/theta**(1+eta) must rise strictly over
    [1, 1e6] and still be growing by at least 5% across the last sampled
    decade, the finite stand-in for "unbounded".
    """
    scan = np.geomspace(1e-6, 1e6, 49)
    p = saturation_pressure(model, scan)
    if np.any(p < 0):
        raise ModelInvalid("saturation pressure negative at a sampled temperature")
    tol = 1e-12 * np.maximum(1.0, np.abs(p[:-1]))
    if np.any(np.diff(p) < -tol):
        raise ModelInvalid("saturation pressure not nondecreasing over the sampled range")
    nonpos = saturation_pressure(model, np.array([-1.0, -1e-9, 0.0]))
    if np.any(nonpos != 0):
        raise ModelInvalid("saturation pressure must vanish for theta <= 0")

    small = saturation_pressure(model, _THETA_SMALL) / _THETA_SMALL
    gaps = np.diff(small)
    zero_ok = bool(np.all((gaps > 0) | (small[:-1] == 0)))

    large = saturation_pressure(model, _THETA_LARGE) / _THETA_LARGE ** (1.0 + model.eta)
    rising = bool(np.all(np.diff(large) > 0))
    tail_ok = bool(large[-1] > _TAIL_GROWTH * large[-_TAIL_POINTS])
    return SaturationReport(
        eta=model.eta,
        zero_limit_pass=zero_ok,
        infinity_limit_pass=rising and tail_ok,
        small_ratios=small,
        large_ratios=large,
    )


def darcy_velocity(rho: np.ndarray, theta: np.ndarray, grid: Grid,
                   params: PhysicalParams) -> np.ndarray:
    """Filtration velocity u = -(rho * theta)_x at the n+1 faces.

    Interior faces use the difference quotient of the cell pressure
    rho * theta.  Wall faces are diagnostic: they carry the Robin mass flux
    divided by the upwinded face density (donor value by flow direction:
    the ambient value on inflow, the wall trace on outflow).
    """
    h = grid.h
    pressure = rho * theta
    u = np.zeros(grid.n + 1)
    u[1:-1] = -np.diff(pressure) / h

    trace_l, trace_r = boundary_traces(rho)
    f_left, f_right = robin_fluxes(trace_l, trace_r, params.alpha0, params.alpha1,
                                   params.rho_bar0, params.rho_bar1)
    # Rightward mass flux q = u * rho is minus the divergence-form flux.
    q_left, q_right = -f_left, -f_right
    donor_l = params.rho_bar0 if q_left > 0 else trace_l
    donor_r = trace_r if q_right > 0 else params.rho_bar1
    u[0] = q_left / donor_l if abs(donor_l) > 1e-300 else 0.0
    u[-1] = q_right / donor_r if abs(donor_r) > 1e-300 else 0.0
    return u
