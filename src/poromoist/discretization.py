"""Uniform cell-centered grid, smoothing, and the Robin wall closure.

The domain (0, 1) is split into n equal cells of width h = 1/n with
unknowns stored at cell centers (i + 1/2) h.  Face-indexed arrays carry
fluxes: face j sits at x = j h between cells j-1 and j.

Smoothing uses a discrete compactly supported bump kernel with mirror
extension outside the domain, so constants pass through unchanged and wall
cells are never artificially damped.

Both equations are closed by Robin exchange with ambient reservoirs at the
two walls.  The wall traces and the exchange fluxes are written once here
and shared by the stepper, the diagnostics and the manufactured solutions;
add_robin_rows closes the implicit rows of both equations with them.
ForcingValues holds the manufactured sources and wall-flux corrections at
one time; an unforced run shares NO_FORCING, whose zero terms change no
value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NonPositiveRadius

__all__ = [
    "integer",
    "Grid",
    "mollify",
    "cutoff",
    "boundary_traces",
    "robin_fluxes",
    "add_robin_rows",
    "ForcingValues",
    "NO_FORCING",
]


def integer(value, name: str) -> int:
    """value as a Python int by operator.index; ConfigError for a bool, 8.0 or "8"."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform subdivision of (0, 1) into n >= 4 cells; n is stored as a Python int."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "n"))
        if self.n < 4:
            raise ConfigError(f"grid needs at least 4 cells, got {self.n!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h


@dataclass(frozen=True)
class ForcingValues:
    """A Forcing evaluated at one time: cell sources and wall corrections."""

    rho_source: np.ndarray | float
    theta_source: np.ndarray | float
    rho_flux: tuple[float, float]
    theta_flux: tuple[float, float]


# An unforced run's terms: x + 0.0 is x, so unforced runs need no own path.
NO_FORCING = ForcingValues(0.0, 0.0, (0.0, 0.0), (0.0, 0.0))


@lru_cache(maxsize=64)
def _kernel(mu: float, h: float) -> np.ndarray:
    """Sampled bump kernel exp(-1/(1-(d/mu)^2)) at cell offsets, sum-normalized.

    Support strictly inside radius mu; when mu <= h only the center sample
    survives and the kernel is the identity weight.  Raises
    NonPositiveRadius unless mu > 0; a raise is not cached, so every call
    with such a radius raises.
    """
    if mu <= 0:
        raise NonPositiveRadius(f"mollifier radius must be positive, got {mu}")
    half = int(np.floor(mu / h))
    while half > 0 and half * h >= mu:
        half -= 1
    d = np.arange(-half, half + 1) * h
    w = np.exp(-1.0 / (1.0 - (d / mu) ** 2))
    return w / w.sum()


def mollify(values: np.ndarray, mu: float, h: float) -> np.ndarray:
    """Smooth cell values over radius mu on a grid of spacing h.

    The bump kernel is convolved with the values mirrored at the walls.
    Linear, preserves constants and nonnegativity, nonexpansive in the max
    norm, and the identity whenever the kernel support fits inside one
    cell.  Zero extension is deliberately avoided: it would carve
    artificial layers into wall cells whenever the radius exceeds the cell
    width, and those layers steepen the advective drift instead of
    smoothing it.  The kernel may reach at most n cells past each wall,
    which every radius mu <= 1 satisfies; a wider one raises ConfigError.
    The identity returns values itself, as a float array, not a copy.
    The kernel of each (mu, h), and the check that mu > 0, are made once
    (see _kernel), which is once per run for the stepper's radii.
    """
    w = _kernel(mu, h)
    half = w.shape[0] // 2
    values = np.asarray(values, dtype=float)
    if half == 0:
        return values
    if half > values.shape[0]:
        raise ConfigError(
            f"mollifier radius {mu} reaches {half} cells past a wall of an "
            f"n={values.shape[0]} grid; one mirror image covers at most n")
    # np.pad(values, half, mode="symmetric") at a tenth of its cost
    padded = np.concatenate((values[half - 1::-1], values, values[:-half - 1:-1]))
    return np.convolve(padded, w, mode="valid")


def cutoff(hval, eps: float):
    """Clamp at level 1/eps: returns hval where |hval| <= 1/eps, else 1/eps.

    The clamp is one-sided by definition: a value whose magnitude exceeds
    1/eps maps to +1/eps regardless of sign, and so does NaN, while -1/eps
    itself is kept.  Callers only ever pass nonnegative quantities, so the
    negative branch is unreachable in practice but kept literal.  A scalar
    gives a float, anything else a float array.

    np.fmin(hval, 1/eps) is the clamp everywhere but below -1/eps, and its
    smallest entry tells whether any entry lies there; only then are those
    entries set to +1/eps.
    """
    if eps <= 0:
        raise ValueError(f"cutoff level requires eps > 0, got {eps}")
    level = 1.0 / eps
    out = np.fmin(hval, level)
    if out.ndim == 0:
        return float(out) if out >= -level else level
    if out.size and out.flat[out.argmin()] < -level:
        out[out < -level] = level
    return out


def boundary_traces(values: np.ndarray) -> tuple[float, float]:
    """Second-order wall traces (3 v[0] - v[1]) / 2 and (3 v[-1] - v[-2]) / 2.

    A first-order trace would cap the observable spatial order at one.
    """
    return 1.5 * values[0] - 0.5 * values[1], 1.5 * values[-1] - 0.5 * values[-2]


def robin_fluxes(left: float, right: float, k0: float, k1: float,
                 bar0: float, bar1: float) -> tuple[float, float]:
    """Exchange fluxes at the two walls for traces left/right.

    Returns the face values of the flux inside the divergence:
    k0 (left - bar0) at x = 0 and k1 (bar1 - right) at x = 1, with
    exchange coefficients k0/k1 and ambient values bar0/bar1.  A surplus at
    either wall gives an outflow: positive at the left wall, negative at
    the right.  Vapor uses alpha and rho_bar, heat conduction beta and
    theta_bar.
    """
    return k0 * (left - bar0), k1 * (bar1 - right)


def add_robin_rows(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                   rhs: np.ndarray, h: float, k0: float, k1: float, bar0: float,
                   bar1: float, corrections: tuple[float, float],
                   carried: tuple[float, float]) -> None:
    """Add the Robin wall faces to rows 0 and n-1 of a tridiagonal system, in place.

    The faces carry robin_fluxes at the boundary_traces of the unknowns plus
    the corrections (g0, g1) and, where they also convect at speeds
    carried = (c0, c1), c (trace - wall cell value); the vapor rows pass
    (0.0, 0.0).  Each entry gets one += of its whole wall term over h.
    """
    g0, g1 = corrections
    c0, c1 = carried
    diag[0] += 1.5 * k0 / h + 0.5 * c0 / h
    upper[0] += -0.5 * k0 / h - 0.5 * c0 / h
    diag[-1] += 1.5 * k1 / h - 0.5 * c1 / h
    lower[-1] += -0.5 * k1 / h + 0.5 * c1 / h
    rhs[0] += (k0 * bar0 - g0) / h
    rhs[-1] += (k1 * bar1 + g1) / h
