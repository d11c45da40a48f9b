"""Tridiagonal and dense linear solvers for the implicit time steps.

Each backward-Euler sweep reduces to one tridiagonal system per unknown
field.  ``solve_thomas`` is the production path: a single forward
elimination / back substitution pass without pivoting, valid because every
assembled system is strictly diagonally dominant (asserted at assembly
time).  ``dense_solve`` is the independent reference route used by the
tests to cross-check the sweep.

The Thomas solve stays pure Python on purpose.  LAPACK's ``dgttrf`` /
``dgttrs`` from ``scipy.linalg.lapack`` gave byte-identical outputs, with no
row swaps, on every shipped config, and take about 5 us per solve at
n=100 against 45-70 us here.  But importing ``scipy.linalg`` costs every
process 0.26-0.29 s and 28 MB of resident memory (27 -> 55 MB after
numpy), about what the faster solve would save over the 4400 solves of
the whole smoke run.  Measured with Python 3.11.7, numpy 2.4 and scipy
1.17.1 on a 2-core Xeon VM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix, ZeroPivot

__all__ = ["TridiagonalSystem", "solve_thomas", "dense_solve"]

# Pivots smaller than this fraction of the largest diagonal entry are
# treated as breakdown rather than divided through.
PIVOT_FLOOR = 1e-14


@dataclass
class TridiagonalSystem:
    """A x = rhs with A tridiagonal.

    lower[i] multiplies x[i] in row i+1, diag[i] multiplies x[i] in row i,
    upper[i] multiplies x[i+1] in row i.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.diag = np.asarray(self.diag, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.diag.shape[0]
        if n < 1:
            raise DimensionMismatch("empty diagonal")
        if self.lower.shape != (n - 1,) or self.upper.shape != (n - 1,):
            raise DimensionMismatch(
                f"off-diagonals must have length {n - 1}, got "
                f"{self.lower.shape[0]} and {self.upper.shape[0]}"
            )
        if self.rhs.shape != (n,):
            raise DimensionMismatch(f"rhs must have length {n}, got {self.rhs.shape[0]}")
        for name, arr in (("lower", self.lower), ("diag", self.diag),
                          ("upper", self.upper), ("rhs", self.rhs)):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatch(f"nonfinite entries in {name}")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def dense(self) -> np.ndarray:
        """Materialize A as a dense matrix (tests and oracles only)."""
        a = np.diag(self.diag)
        n = self.n
        if n > 1:
            a[np.arange(1, n), np.arange(n - 1)] = self.lower
            a[np.arange(n - 1), np.arange(1, n)] = self.upper
        return a

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A x - rhs without forming the dense matrix."""
        x = np.asarray(x, dtype=float)
        r = self.diag * x - self.rhs
        if self.n > 1:
            r[1:] += self.lower * x[:-1]
            r[:-1] += self.upper * x[1:]
        return r


def solve_thomas(system: TridiagonalSystem) -> np.ndarray:
    """Thomas sweep: forward elimination then back substitution, no pivoting.

    Raises ZeroPivot(index) when an eliminated pivot falls below
    PIVOT_FLOOR * max|diag|.  Intended for the strictly diagonally dominant
    systems produced by the assemblers, where breakdown cannot occur.
    """
    n = system.n
    # Plain Python floats are markedly faster than numpy scalar indexing
    # for the short sequential sweeps used here.
    a = system.lower.tolist()
    d = system.diag.tolist()
    c = system.upper.tolist()
    b = system.rhs.tolist()

    floor = PIVOT_FLOOR * max(abs(v) for v in d)

    piv = d[0]
    if abs(piv) < floor:
        raise ZeroPivot(0, piv)
    for i in range(1, n):
        w = a[i - 1] / piv
        piv = d[i] - w * c[i - 1]
        if abs(piv) < floor:
            raise ZeroPivot(i, piv)
        d[i] = piv
        b[i] = b[i] - w * b[i - 1]

    x = [0.0] * n
    x[n - 1] = b[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - c[i] * x[i + 1]) / d[i]
    return np.array(x, dtype=float)


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting (LAPACK gesv); test oracle."""
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
