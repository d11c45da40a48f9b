"""Reference routes computed one object at a time, used only by the tests.

A TridiagonalSystem is checked against these independent computations: its
matrix written out in full, its residual A x - rhs, and a dense solve by
Gaussian elimination with partial pivoting.  The blocked kernels of the
step loop are checked against their one-at-a-time forms: the balance
residuals of one StepRecord and the fold of one level's records, the
predictor's extrapolation of each field apart, and the entropy
dissipation and the ladder's trajectory distance summed level by level.
TermForcing builds a forcing from one callable per term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from poromoist.discretization import ForcingValues, boundary_traces, robin_fluxes
from poromoist.errors import DimensionMismatch
from poromoist.linalg import TridiagonalSystem


@dataclass(frozen=True)
class TermForcing:
    """A forcing made of one callable per term.

    The sources rho_source(x, t) and theta_source(x, t) are added to the
    right-hand sides; the flux corrections rho_flux(t) and theta_flux(t)
    return the pair (g0, g1) added to the Robin face fluxes at the left and
    right walls.  A call evaluates each term once, the sources as float
    arrays.
    """

    rho_source: Callable
    theta_source: Callable
    rho_flux: Callable[[float], tuple[float, float]]
    theta_flux: Callable[[float], tuple[float, float]]

    def __call__(self, x: np.ndarray, t: float) -> ForcingValues:
        return ForcingValues(np.asarray(self.rho_source(x, t), dtype=float),
                             np.asarray(self.theta_source(x, t), dtype=float),
                             self.rho_flux(t), self.theta_flux(t))


class SingularMatrix(Exception):
    """Dense solve failed: matrix numerically singular."""


def dense(system: TridiagonalSystem) -> np.ndarray:
    """The system's matrix A as a dense array."""
    a = np.diag(system.diag)
    n = system.n
    if n > 1:
        a[np.arange(1, n), np.arange(n - 1)] = system.lower
        a[np.arange(n - 1), np.arange(1, n)] = system.upper
    return a


def residual(system: TridiagonalSystem, x: np.ndarray) -> np.ndarray:
    """A x - rhs without forming the dense matrix."""
    x = np.asarray(x, dtype=float)
    r = system.diag * x - system.rhs
    if system.n > 1:
        r[1:] += system.lower * x[:-1]
        r[:-1] += system.upper * x[1:]
    return r


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting (LAPACK gesv)."""
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {matrix.shape}")
    if rhs.shape != (matrix.shape[0],):
        raise DimensionMismatch("rhs length does not match matrix")
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution contains nonfinite values")
    return x


def mass_balance_residual(srec, grid) -> float:
    """Defect of one record's summed vapor rows against its wall fluxes."""
    h = grid.h
    rho_new, coeffs = srec.rho, srec.coeffs
    drho = h * (rho_new - srec.prev.rho).sum() / srec.dt
    reaction = h * (coeffs.chi_sqrt * rho_new - coeffs.chi_ps).sum()
    source = h * np.sum(srec.forcing.rho_source)
    boundary = srec.mass_flux[-1] - srec.mass_flux[0]
    return float(abs(drho + reaction - source - boundary))


def energy_balance_residual(srec, grid, params) -> float:
    """Defect of one record's conservative heat balance."""
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


def level_row(records, grid, params) -> dict:
    """One level's step columns, folded from its records one at a time."""
    mass = energy = lift = sweeps = 0
    gain = 1.0
    for srec in records:
        mass = np.maximum(mass, mass_balance_residual(srec, grid))
        energy = np.maximum(energy, energy_balance_residual(srec, grid, params))
        sweeps += srec.sweeps
        rate = (srec.rho * srec.coeffs.chi_sqrt / (srec.rho + params.sigma)).max()
        lift += srec.dt * params.lam * rate / gain
        gain *= 1.0 + srec.dt * rate
    return {"mass_balance_residual": mass, "energy_balance_residual": energy,
            "picard_iterations": sweeps, "envelope_lift": lift, "envelope_gain": gain}


def linear_prediction(rho, theta, order):
    """One linear-prediction candidate of the predicted start, by lstsq.

    The first differences d_i of both fields share scalar coefficients a:
    d_t ~ sum_j a_j d_(t-1-j) for every t with all its regressors, fitted
    by np.linalg.lstsq on the regression written out.  Returns the
    residual on the newest difference, the largest |.| over both fields,
    and each field's guess x_k + sum_j a_j d_(k-j), or None where the
    differences are too few for the order.
    """
    diffs = [np.diff(field, axis=0) for field in (rho, theta)]
    newest = len(diffs[0]) - 1
    if order > newest:
        return None
    targets = range(order, newest + 1)
    columns = np.array([np.concatenate([d[t - 1 - j] for t in targets for d in diffs])
                        for j in range(order)]).T
    values = np.concatenate([d[t] for t in targets for d in diffs])
    a = np.linalg.lstsq(columns, values, rcond=None)[0]
    residual = max(
        np.abs(d[newest] - sum(a[j] * d[newest - 1 - j] for j in range(order))).max()
        for d in diffs)
    guesses = [field[-1] + sum(a[j] * d[newest - j] for j in range(order))
               for field, d in zip((rho, theta), diffs)]
    return residual, guesses


def two_field_prediction(rho, theta, tol):
    """The predicted start extrapolated for rho and theta apart.

    rho and theta hold the accepted states, one row per time level; only the
    last eight are read.  With m rows, the degree is m - 1 below six rows;
    from six on it is the p in 1 .. m - 2 whose error on the newest state,
    the largest |nabla^(p+1)| there over both fields (np.diff of each
    field), is smallest, the lowest p on ties.  Each field's polynomial of
    that degree through its last p + 1 rows is summed term by term.  From
    six rows on, where that error exceeds tol times the largest |value| of
    the newest state, the linear-prediction candidate of order 3 or 6
    (linear_prediction) with the smallest residual replaces it, if that
    residual is smaller.
    """
    rho, theta = rho[-8:], theta[-8:]
    rows = len(rho)
    if rows < 2:
        return None
    degree = rows - 1
    candidate = None
    if rows >= 6:
        errors = [max(np.abs(np.diff(field, p + 1, axis=0)[-1]).max()
                      for field in (rho, theta)) for p in range(1, rows - 1)]
        degree = 1 + errors.index(min(errors))
        scale = max(np.abs(rho[-1]).max(), np.abs(theta[-1]).max())
        if min(errors) > tol * scale:
            fits = [fit for fit in (linear_prediction(rho, theta, p) for p in (3, 6))
                    if fit is not None and fit[0] < min(errors)]
            if fits:
                candidate = min(fits, key=lambda fit: fit[0])[1]
    # the state j rows from the oldest of the last degree + 1 weighs
    # (-1)^(degree - j) C(degree + 1, j)
    weights = [(-1.0) ** (degree - j) * math.comb(degree + 1, j)
               for j in range(degree + 1)]

    def extrapolate(history):
        rows = history[-len(weights):]
        guess = weights[0] * rows[0]
        for weight, row in zip(weights[1:], rows[1:]):
            guess += weight * row
        return guess

    guesses = candidate or [extrapolate(rho), extrapolate(theta)]
    return tuple(np.maximum(guess, 0.5 * field[-1])
                 for guess, field in zip(guesses, (rho, theta)))


def sequential_trajectory_difference(a, b) -> float:
    """The ladder's space-time L2 distance of two trajectories, level by level."""
    h = a.setup.grid.h
    dt = a.setup.step.dt
    total = 0.0
    for k in range(len(a.t) - 1):
        total += dt * h * float(
            np.sum((a.rho[k] - b.rho[k])**2)
            + np.sum((a.theta[k] - b.theta[k])**2))
    return float(np.sqrt(total))


def sequential_dissipation(result) -> float:
    """The entropy dissipation integral, one level at a time."""
    h = result.setup.grid.h
    dt = result.setup.step.dt
    dissipation = 0.0
    for rho, theta in zip(result.rho[1:], result.theta[1:]):
        grad = np.diff(rho) / h
        theta_face = 0.5 * (theta[:-1] + theta[1:])
        dissipation += dt * float(h * np.sum(theta_face * grad**2))
    return dissipation
