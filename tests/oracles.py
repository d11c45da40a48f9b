"""Dense reference routes for the tridiagonal solver, used only by the tests.

A TridiagonalSystem is checked against these independent computations: its
matrix written out in full, its residual A x - rhs, and a dense solve by
Gaussian elimination with partial pivoting.
"""
from __future__ import annotations

import numpy as np

from poromoist.errors import DimensionMismatch
from poromoist.linalg import TridiagonalSystem


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
