"""Physical model: parameters, saturation laws, phase change, conductivity.

The medium exchanges vapor (density rho) and heat (temperature theta) with
two ambient reservoirs through exchange coefficients alpha/beta.  Phase
change is driven by the gap between the vapor pressure rho * sqrt(theta)
and a saturation curve p_s(theta): condensation removes vapor and releases
latent heat lam, evaporation does the reverse.  Conductivity grows with
the amount of condensate, modeled as kappa1 + kappa2 * rho**2.

Saturation curves are pluggable: subclass SaturationModel and implement
``pressure``.  The existence theory asks two things of a curve, for the
growth exponent eta > 0: p_s(theta)/theta -> 0 as theta -> 0, and
p_s(theta)/theta**(1+eta) unbounded as theta -> infinity.  Each of the two
shipped families reduces both to one closed-form condition on its
parameters (``admissibility``), and its constructor refuses a curve that
fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .discretization import Grid, boundary_traces, robin_fluxes
from .errors import ConfigError

__all__ = [
    "PhysicalParams",
    "SaturationModel",
    "Admissibility",
    "PowerLawSaturation",
    "ExponentialSaturation",
    "SATURATION_FAMILIES",
    "InitialData",
    "saturation_pressure",
    "phase_change_rate",
    "conductivity",
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
    growth exponent of the admissibility requirements in the module
    docstring.  A custom curve is not checked against them.
    """

    def __init__(self, eta: float):
        if not eta > 0:
            raise ConfigError(f"eta must be positive, got {eta}")
        self.eta = float(eta)

    def pressure(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Admissibility(NamedTuple):
    """A family's closed-form admissibility condition at given parameters."""

    key: str        # the saturation parameter the condition bounds
    formula: str    # e.g. "q > 1 + eta"
    values: str     # the formula's two sides, e.g. "3.0 > 2.0"
    holds: bool

    def violations(self) -> list[tuple[str, str]]:
        """No pairs if the condition holds, else one (key, message) pair."""
        message = f"requires {self.formula}; {self.values} is false"
        return [] if self.holds else [(self.key, message)]

    def enforce(self) -> Admissibility:
        """Return self if the condition holds, else raise ConfigError."""
        for key, message in self.violations():
            raise ConfigError(f"saturation {key} {message}")
        return self


class PowerLawSaturation(SaturationModel):
    """p_s(theta) = c * theta**q with c > 0 and q > 1 + eta.

    p_s/theta = c * theta**(q-1) and p_s/theta**(1+eta) = c * theta**(q-1-eta),
    so q > 1 + eta is exactly the two requirements together.
    """

    def __init__(self, c: float, q: float, eta: float = 1.0):
        super().__init__(eta)
        if not c > 0:
            raise ConfigError(f"power-law coefficient must be positive, got {c}")
        self.c = float(c)
        self.q = float(q)
        self.condition = self.admissibility(c, q, eta).enforce()

    @staticmethod
    def admissibility(c: float, q: float, eta: float = 1.0) -> Admissibility:
        """The condition at the constructor's arguments."""
        return Admissibility("q", "q > 1 + eta", f"{float(q)!r} > {1.0 + eta!r}",
                             q > 1.0 + eta)

    def pressure(self, theta: np.ndarray) -> np.ndarray:
        return self.c * np.maximum(theta, 0.0) ** self.q


class ExponentialSaturation(SaturationModel):
    """p_s(theta) = a * theta**2 * exp(-b / theta) for theta > 0, with eta < 1.

    p_s/theta = a * theta * exp(-b/theta) vanishes at zero for every a, b,
    and p_s/theta**(1+eta) = a * theta**(1-eta) * exp(-b/theta) is unbounded
    exactly when eta < 1.  The default eta = 1 is therefore not admissible:
    a config names its eta below 1.
    """

    def __init__(self, a: float, b: float, eta: float = 1.0):
        super().__init__(eta)
        if not a > 0 or not b > 0:
            raise ConfigError(f"exponential coefficients must be positive, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self.condition = self.admissibility(a, b, eta).enforce()

    @staticmethod
    def admissibility(a: float, b: float, eta: float = 1.0) -> Admissibility:
        """The condition at the constructor's arguments."""
        return Admissibility("eta", "eta < 1", f"{float(eta)!r} < 1.0", eta < 1.0)

    def pressure(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        safe = np.where(theta > 0, theta, 1.0)
        return np.where(theta > 0, self.a * theta**2 * np.exp(-self.b / safe), 0.0)


# The config's saturation.kind names one of these families.
SATURATION_FAMILIES = {"power_law": PowerLawSaturation,
                       "exponential": ExponentialSaturation}


def saturation_pressure(model: SaturationModel, theta) -> np.ndarray | float:
    """Evaluate the saturation curve, zero for theta <= 0 (and NaN).

    Where every temperature is positive, the curve's values are returned
    as they are; the smallest temperature tells, because argmin finds a
    NaN first.
    """
    theta = np.asarray(theta, dtype=float)
    out = model.pressure(theta)
    if theta.ndim == 0:
        return float(out) if theta > 0 else 0.0
    if theta.size and theta.flat[theta.argmin()] > 0:
        return out
    return np.where(theta > 0, out, 0.0)


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
    out = params.kappa1 + params.kappa2 * np.square(rho, dtype=float)
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
