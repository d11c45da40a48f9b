"""Tridiagonal linear solver for the implicit time steps.

Each backward-Euler sweep reduces to one tridiagonal system per unknown
field.  ``solve_thomas`` solves it in a single forward elimination / back
substitution pass without pivoting, valid because every assembled system
is strictly diagonally dominant (asserted at assembly time).
``TridiagonalSystem`` holds the four bands as given and checks nothing:
the assemblers check each system they build, once, and the solver checks
only its pivots.  The tests cross-check it against a dense solve, in
``tests/oracles.py``.

``solve_thomas`` factors with LAPACK ``dgttrf`` and solves with ``dgttrs``
from numpy's own LAPACK (the OpenBLAS of numpy's wheel), reached through
``ctypes``: numpy has already loaded that library and imported
``ctypes``, so finding the two routines costs about 0.15 ms once per
process and no measurable memory.
``scipy.linalg.lapack`` wraps the same routines, but importing it costs
every process 0.26-0.29 s and 28 MB of resident memory.  Without a row
swap, dgttrf and dgttrs do the Thomas loop's operations in the same order,
so the result is the loop's to the bit.

The Python loop stays, as the fallback and as the only code that raises
``ZeroPivot`` for a pivot below its row's floor (see ``solve_thomas``), so
a row of 1e300 at a wall does not make an interior pivot of 1e3 count as
zero.  A solve goes to the loop whenever LAPACK's answer could differ from
it: dgttrf swapped a row (partial pivoting swaps wherever a subdiagonal
entry outweighs its pivot, which row dominance allows), a pivot fell below
its floor, the solution holds a NaN or a zero (where the extra ``0 * x``
term of LAPACK's back substitution can turn inf into NaN or flip the sign
of a zero), or numpy's build does not export the ILP64 names (Accelerate,
MKL, Windows).  On the shipped configs no solve fell back.

Per solve, on random systems dominant by rows and columns (no swaps;
minimum of 7 x 1000 calls in each of 10 rounds alternating the two paths,
Python 3.11.7 and numpy 2.4.6 on a shared 2-core Xeon VM), the LAPACK path
takes 20-30 us against 36-56 us for the loop at n=100, and 49-66 us
against 400-490 us at n=1000; the spread is the host's drift.  What the
LAPACK path spends is mostly fixed per call: the two foreign calls (about
2.5 us each), the copy into its work buffer, the pointer arithmetic and
the numpy reductions of the floor and the checks.  The loop walks the bands
as Python lists with zip and costs 0.35-0.5 us per cell, the interpreter's
price for each elimination step and its back substitution.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroPivot

__all__ = ["TridiagonalSystem", "solve_thomas"]

# Pivots smaller than this fraction of the largest magnitude in their own
# row are treated as breakdown rather than divided through.
PIVOT_FLOOR = 1e-14


@dataclass
class TridiagonalSystem:
    """A x = rhs with A tridiagonal, as four float arrays.

    lower[i] multiplies x[i] in row i+1, diag[i] multiplies x[i] in row i,
    upper[i] multiplies x[i+1] in row i; lower and upper hold n - 1
    entries, diag and rhs n.  Nothing is checked here: the assemblers
    write the four fields as views of one (4, n) band and scan it once,
    for nonfinite entries and then for diagonal dominance.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def _resolve_gttr():
    """numpy's own LAPACK dgttrf and dgttrs as ctypes functions, or None.

    dlsym on the handle of numpy's linalg extension also searches the
    libraries it links, so this finds the OpenBLAS of numpy's wheel.  Only
    the ILP64 names are accepted, since their integer width is fixed by the
    name: scipy_dgttrf_64_ in numpy 2 wheels, dgttrf_64_ in 1.2x wheels.
    Every argument is passed as an address; dgttrs takes a hidden trailing
    size_t, the length of its TRANS string.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        try:
            gttrf = getattr(lib, prefix + "dgttrf_64_")
            gttrs = getattr(lib, prefix + "dgttrs_64_")
        except AttributeError:
            continue
        gttrf.argtypes = [ctypes.c_void_p] * 7
        gttrf.restype = None
        gttrs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]
        gttrs.restype = None
        return gttrf, gttrs
    return None


# (dgttrf, dgttrs), or None on builds without the ILP64 names (Accelerate,
# MKL, Windows), where every solve takes the loop.
_GTTR = _resolve_gttr()


def solve_thomas(system: TridiagonalSystem) -> np.ndarray:
    """Thomas sweep: forward elimination then back substitution, no pivoting.

    Raises ZeroPivot(index) when the eliminated pivot of row i falls below
    PIVOT_FLOOR times the largest magnitude in row i, or is exactly zero
    where that floor underflows to 0 (a row of zeros and subnormals).
    Intended for the strictly diagonally dominant systems produced by the
    assemblers, where breakdown cannot occur.  The result is the loop's to
    the bit, whichever path computes it.
    """
    floor = np.abs(system.diag)
    np.maximum(floor[1:], np.abs(system.lower), out=floor[1:])
    np.maximum(floor[:-1], np.abs(system.upper), out=floor[:-1])
    floor = np.maximum(PIVOT_FLOOR * floor, math.ulp(0.0))
    if _GTTR is not None:
        x = _solve_gttr(system, floor)
        if x is not None:
            return x
    return _thomas_loop(system, floor)


def _solve_gttr(system: TridiagonalSystem, floor: np.ndarray) -> np.ndarray | None:
    """The loop's solution through LAPACK, or None where only the loop can tell.

    floor holds each row's pivot floor (a scalar stands for every row).
    Without a row swap, dgttrf and dgttrs do the loop's operations in the
    loop's order, plus one term DU2(i)*x(i+2) with DU2 = 0 in the back
    substitution.  That term changes a result only when it meets a nonfinite
    x or a signed zero, so a solution holding a NaN or a zero is handed back
    to the loop too.  The system itself is never written to.
    """
    n = system.diag.shape[0]
    # One buffer, in doubles: rhs (solved in place), lower, diag, upper,
    # du2, then ipiv, info, N and NRHS as 64-bit integers.
    buf = np.empty(6 * n + 1)
    np.concatenate((system.rhs, system.lower, system.diag, system.upper),
                   out=buf[:4 * n - 2])
    ints = buf[5 * n - 2:].view(np.int64)
    ints[n + 1] = n
    ints[n + 2] = 1
    b = buf.ctypes.data
    dl, d, du = b + 8 * n, b + 8 * (2 * n - 1), b + 8 * (3 * n - 1)
    du2, ipiv = b + 8 * (4 * n - 2), b + 8 * (5 * n - 2)
    info, nn, one = ipiv + 8 * n, ipiv + 8 * (n + 1), ipiv + 8 * (n + 2)
    gttrf, gttrs = _GTTR
    gttrf(nn, dl, d, du, du2, ipiv, info)
    # ipiv[i] is i+1 (1-based) or i+2 after a swap, so the sum counts swaps.
    if (ints[n] or ints[:n].sum() != n * (n + 1) // 2
            or not (np.abs(buf[2 * n - 1:3 * n - 1]) >= floor).all()):
        return None
    gttrs(b"N", nn, one, dl, d, du, du2, ipiv, b, nn, info, 1)
    x = buf[:n]
    if not np.abs(x).min() > 0.0:
        return None
    return x.copy()


def _thomas_loop(system: TridiagonalSystem, floor: np.ndarray) -> np.ndarray:
    """The Thomas sweep in Python floats: the reference and the fallback."""
    # Plain Python floats are markedly faster than numpy scalar indexing
    # for the short sequential sweeps used here.
    a = system.lower.tolist()
    d = system.diag.tolist()
    c = system.upper.tolist()
    b = system.rhs.tolist()
    floors = floor.tolist()

    # -f < piv < f is abs(piv) < f without the call.  The loop overwrites d
    # with the pivots and b with the eliminated right side.
    piv = d[0]
    if -floors[0] < piv < floors[0]:
        raise ZeroPivot(0, piv)
    beta = b[0]
    i = 0
    for ai, di, ci, bi, f in zip(a, d[1:], c, b[1:], floors[1:]):
        i += 1
        w = ai / piv
        piv = di - w * ci
        if -f < piv < f:
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
