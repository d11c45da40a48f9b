"""Tridiagonal linear solver for the implicit time steps.

Each backward-Euler sweep reduces to one tridiagonal system per unknown
field.  ``solve_thomas`` solves it in a single forward elimination / back
substitution pass without pivoting, valid because every assembled system
is strictly diagonally dominant (asserted at assembly time).
``TridiagonalSystem`` holds the four bands as given and checks nothing:
the assemblers check each system they build, once, and the solver checks
only its pivots.  The tests cross-check it against a dense solve, in
``tests/oracles.py``.  A system whose bands are (n, B) arrays is B
independent systems, one per column (a block); the stepper's lockstep
march (stepper.march) solves its members' rows so, and each block gets the
bits of its own solve.

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

Per solve of the smoke state's vapor system (the median of 10 rounds of
scripts/bench_ab.py, BENCH_ab.json; Python 3.11.7 and numpy 2.4.6 on a
shared 2-core x86-64 VM), the LAPACK path takes about 18 us at n=100, 29
us at n=400 and 44 us at n=1000, little of it fixed per call.  The
buffer, its integer views and both argument tuples are built once per
system size (_workspace), so a solve pays for the copy of the system
into the buffer, the two foreign calls (about 2.5 us each), four
reductions (the largest band magnitude, the ipiv sum that counts swaps,
the smallest pivot and the smallest |x|) and the copy of the solution
out.  The per-row pivot floors, seven array operations, are formed only
where the one-comparison screen fails (see _solve_gttr), which no solve
of the shipped configs does.  The loop walks the bands as Python lists
with zip and costs 0.35-0.5 us per cell, the interpreter's price for
each elimination step and its back substitution.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

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
    entries, diag and rhs n.  Where the four are (n - 1, B) and (n, B)
    arrays, each column is a system of its own, and n counts the rows of
    all B.  Nothing is checked here: the assemblers write the four fields
    as views of one band and scan it once, for nonfinite entries and then
    for diagonal dominance.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size


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


@lru_cache(maxsize=16)
def _workspace(n: int) -> tuple:
    """The LAPACK buffer of an n-row solve, its views and both argument tuples.

    One buffer, in doubles: rhs (solved in place), lower, diag, upper, du2,
    then ipiv, info, N and NRHS as 64-bit integers.  N and NRHS are written
    here, once; every argument is an address into the buffer, which the
    cache keeps alive.  Returns the target of the system's copy, the
    solution, the three bands, the pivots, ipiv, and the dgttrf and dgttrs
    arguments.
    """
    buf = np.empty(6 * n + 1)
    ints = buf[5 * n - 2:].view(np.int64)
    ints[n + 1] = n
    ints[n + 2] = 1
    b = buf.ctypes.data
    dl, d, du = b + 8 * n, b + 8 * (2 * n - 1), b + 8 * (3 * n - 1)
    du2, ipiv = b + 8 * (4 * n - 2), b + 8 * (5 * n - 2)
    info, nn, one = ipiv + 8 * n, ipiv + 8 * (n + 1), ipiv + 8 * (n + 2)
    return (buf[:4 * n - 2], buf[:n], buf[n:4 * n - 2], buf[2 * n - 1:3 * n - 1],
            ints[:n], (nn, dl, d, du, du2, ipiv, info),
            (b"N", nn, one, dl, d, du, du2, ipiv, b, nn, info, 1))


def _row_floors(system: TridiagonalSystem) -> np.ndarray:
    """Each row's pivot floor: PIVOT_FLOOR times its largest magnitude, at least ulp(0).

    The floors have the shape of diag, and an (n, B) system's are each block's own.
    """
    floor = np.abs(system.diag)
    np.maximum(floor[1:], np.abs(system.lower), out=floor[1:])
    np.maximum(floor[:-1], np.abs(system.upper), out=floor[:-1])
    return np.maximum(PIVOT_FLOOR * floor, math.ulp(0.0))


def solve_thomas(system: TridiagonalSystem) -> np.ndarray:
    """Thomas sweep: forward elimination then back substitution, no pivoting.

    Raises ZeroPivot(index) when the eliminated pivot of row i falls below
    PIVOT_FLOOR times the largest magnitude in row i, or is exactly zero
    where that floor underflows to 0 (a row of zeros and subnormals).
    Intended for the strictly diagonally dominant systems produced by the
    assemblers, where breakdown cannot occur.  The result is the loop's to
    the bit, whichever path computes it, and a new array; the system is
    never written to.  An (n, B) system's columns are solved as one
    stacked system, each to its own solve's bits (see _solve_blocks).

    On LAPACK's path a solve costs the copy of the system into the buffer
    kept for its size, the two foreign calls, four reductions, one of
    which screens every pivot at once against the floors, and the copy of
    the solution out (about 18 us at n=100; see the module docstring).

    Not reentrant: every solve of n rows works in the one buffer kept for
    n (see _workspace), so two threads must not solve at once.  The
    package solves from one thread.
    """
    if system.diag.ndim > 1:
        return _solve_blocks(system)
    if _GTTR is not None:
        x = _solve_gttr(system)
        if x is not None:
            return x
    return _thomas_loop(system, _row_floors(system))


def _solve_blocks(system: TridiagonalSystem) -> np.ndarray:
    """Each column's own solution of an (n, B) system, as the columns of an (n, B) array.

    The B blocks, stacked one after another with zeros between them, are
    one block-diagonal system of n B rows, and _solve_gttr takes it whole.
    A zero multiplier neither swaps rows nor carries a finite value across a
    junction, so each block's elimination is its own solve's; a nonfinite
    value that crosses one makes the solution nonfinite, and the stacked
    rows' floors are the blocks' own, so each screen refuses the stack where
    it would refuse a block.  A refused stack is solved block by block, and
    a block's ZeroPivot carries its index as member.
    """
    rows, count = system.diag.shape
    if _GTTR is not None:
        band = np.zeros((4, count, rows))
        band[0, :, 1:], band[1] = system.lower.T, system.diag.T
        band[2, :, :-1], band[3] = system.upper.T, system.rhs.T
        lower, diag, upper, rhs = band.reshape(4, -1)
        x = _solve_gttr(TridiagonalSystem(lower[1:], diag, upper[:-1], rhs))
        if x is not None:
            return x.reshape(count, rows).T
    x = np.empty((count, rows))
    for member in range(count):
        try:
            x[member] = solve_thomas(TridiagonalSystem(
                system.lower[:, member], system.diag[:, member], system.upper[:, member],
                system.rhs[:, member]))
        except ZeroPivot as exc:
            exc.member = member
            raise
    return x.T


def _solve_gttr(system: TridiagonalSystem) -> np.ndarray | None:
    """The loop's solution through LAPACK, or None where only the loop can tell.

    Without a row swap, dgttrf and dgttrs do the loop's operations in the
    loop's order, plus one term DU2(i)*x(i+2) with DU2 = 0 in the back
    substitution.  That term changes a result only when it meets a nonfinite
    x or a signed zero, so a solution holding a NaN or a zero is handed back
    to the loop too.

    The pivots are screened with one comparison: if the smallest |pivot| is
    positive and at least PIVOT_FLOOR times the largest band magnitude, it
    is at least every row's floor, because rounding a positive product is
    monotone and a positive double is at least ulp(0).  Only where the
    screen fails (a zero or NaN pivot, or rows of widely different scale)
    are the per-row floors formed and compared pivot by pivot.  dgttrf
    completes the factorization through an exactly zero pivot and reports
    it in INFO, which is not read: the screen and the per-row test refuse
    that pivot themselves.
    """
    n = system.diag.shape[0]
    target, x, bands, pivots, ipiv, factor_args, solve_args = _workspace(n)
    np.concatenate((system.rhs, system.lower, system.diag, system.upper), out=target)
    largest = np.abs(bands).max()
    gttrf, gttrs = _GTTR
    gttrf(*factor_args)
    # ipiv[i] is i+1 (1-based) or i+2 after a swap, so the sum counts swaps.
    if ipiv.sum() != n * (n + 1) // 2:
        return None
    smallest = np.abs(pivots).min()
    if not (smallest > 0.0 and smallest >= PIVOT_FLOOR * largest):
        if not (np.abs(pivots) >= _row_floors(system)).all():
            return None
    gttrs(*solve_args)
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
