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
n=100 against 40-65 us here.  But importing ``scipy.linalg`` costs every
process 0.26-0.29 s and 28 MB of resident memory (27 -> 55 MB after
numpy), about what the faster solve would save over the 4400 solves of
the whole smoke run.  Measured with Python 3.11.7, numpy 2.4 and scipy
1.17.1 on a 2-core Xeon VM.

The loop itself is kept tight: it walks the bands as Python lists with
zip, takes the pivot floor from ``np.max(np.abs(diag))``, tests pivots
with one chained comparison and carries the running right-hand side in a
local.  On random dominant systems, timed alternately with the loop it
replaced in one process (minimum of 21 repeats, same VM), a solve takes
41-63 us against 43-66 us at n=100 and 350-510 us against 430-620 us at
n=1000; the spread is the host's drift between runs.  What is left,
0.35-0.5 us per cell, is the interpreter's cost for the five float
operations, two comparisons and two list stores of each elimination step
and its back substitution.
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

    @classmethod
    def from_band(cls, band: np.ndarray) -> TridiagonalSystem:
        """Wrap a (4, n) float band whose rows the caller has already checked.

        Column i holds row i: band[0, i] = lower[i-1], band[1, i] = diag[i],
        band[2, i] = upper[i] and band[3, i] = rhs[i]; band[0, 0] and
        band[2, -1] are unused.  The four fields are views of the band, and
        nothing is re-checked: the assemblers scan their band for nonfinite
        entries once, before the dominance check.
        """
        system = cls.__new__(cls)
        system.lower, system.diag = band[0, 1:], band[1]
        system.upper, system.rhs = band[2, :-1], band[3]
        return system

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
    # Plain Python floats are markedly faster than numpy scalar indexing
    # for the short sequential sweeps used here.
    a = system.lower.tolist()
    d = system.diag.tolist()
    c = system.upper.tolist()
    b = system.rhs.tolist()
    floor = PIVOT_FLOOR * float(np.max(np.abs(system.diag)))

    # -floor < piv < floor is abs(piv) < floor without the call.  The loop
    # overwrites d with the pivots and b with the eliminated right side.
    piv = d[0]
    if -floor < piv < floor:
        raise ZeroPivot(0, piv)
    beta = b[0]
    i = 0
    for ai, di, ci, bi in zip(a, d[1:], c, b[1:]):
        i += 1
        w = ai / piv
        piv = di - w * ci
        if -floor < piv < floor:
            raise ZeroPivot(i, piv)
        beta = bi - w * beta
        d[i] = piv
        b[i] = beta

    # Back substitution, writing x over b.
    xi = beta / piv
    b[-1] = xi
    for i in range(len(d) - 2, -1, -1):
        xi = (b[i] - c[i] * xi) / d[i]
        b[i] = xi
    return np.array(b, dtype=float)


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
