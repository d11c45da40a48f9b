"""Uniform cell-centered grid, smoothing, and the Robin wall closure.

The domain (0, 1) is split into n equal cells of width h = 1/n with
unknowns stored at cell centers (i + 1/2) h.  Face-indexed arrays carry
fluxes: face j sits at x = j h between cells j-1 and j.

Smoothing uses a discrete compactly supported bump kernel with mirror
extension outside the domain, so constants pass through unchanged and wall
cells are never artificially damped.

Both equations are closed by Robin exchange with ambient reservoirs at the
two walls.  The wall traces and the exchange fluxes are written once here
and shared by the stepper, the diagnostics and the manufactured solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NonPositiveRadius

__all__ = [
    "Grid",
    "mollify",
    "cutoff",
    "boundary_traces",
    "robin_fluxes",
]


@dataclass(frozen=True)
class Grid:
    """Uniform subdivision of (0, 1) into n >= 4 cells."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 4:
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


@lru_cache(maxsize=64)
def _kernel(mu: float, h: float) -> np.ndarray:
    """Sampled bump kernel exp(-1/(1-(d/mu)^2)) at cell offsets, sum-normalized.

    Support strictly inside radius mu; when mu <= h only the center sample
    survives and the kernel is the identity weight.
    """
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
    """
    if mu <= 0:
        raise NonPositiveRadius(f"mollifier radius must be positive, got {mu}")
    w = _kernel(float(mu), float(h))
    half = (w.shape[0] - 1) // 2
    if half == 0:
        return np.array(values, dtype=float)
    values = np.asarray(values, dtype=float)
    if half > values.shape[0]:
        raise ConfigError(
            f"mollifier radius {mu} reaches {half} cells past a wall of an "
            f"n={values.shape[0]} grid; one mirror image covers at most n")
    # np.pad(values, half, mode="symmetric") at a tenth of its cost
    padded = np.concatenate((values[half - 1::-1], values, values[:-half - 1:-1]))
    return np.convolve(padded, w, mode="valid")


def cutoff(hval, eps: float):
    """Clamp at level 1/eps: returns hval where |hval| <= 1/eps, else 1/eps.

    The clamp is one-sided by definition: magnitudes at or beyond 1/eps map
    to +1/eps regardless of sign.  Callers only ever pass nonnegative
    quantities, so the negative branch is unreachable in practice but kept
    literal.
    """
    if eps <= 0:
        raise ValueError(f"cutoff level requires eps > 0, got {eps}")
    level = 1.0 / eps
    hval = np.asarray(hval, dtype=float)
    out = np.where(np.abs(hval) <= level, hval, level)
    return float(out) if out.ndim == 0 else out


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
