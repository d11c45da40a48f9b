"""Tridiagonal solver against hand-worked and dense-elimination oracles."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from poromoist import linalg
from poromoist.errors import DimensionMismatch, ZeroPivot
from poromoist.linalg import PIVOT_FLOOR, TridiagonalSystem, solve_thomas
from tests.oracles import SingularMatrix, dense, dense_solve, residual

# Is numpy's LAPACK reached?  Tests of the LAPACK path skip without it.
needs_lapack = pytest.mark.skipif(linalg._GTTR is None,
                                  reason="numpy exposes no ILP64 dgttrf/dgttrs")


@pytest.fixture
def loop_only(monkeypatch):
    """Hide numpy's LAPACK, so that every solve takes the Python loop."""
    monkeypatch.setattr(linalg, "_GTTR", None)


def random_dominant_system(rng: np.random.Generator, n: int) -> TridiagonalSystem:
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = np.zeros(n)
    diag[:-1] += np.abs(upper)
    diag[1:] += np.abs(lower)
    diag += rng.uniform(0.5, 2.0, n)
    diag *= rng.choice([-1.0, 1.0], n)
    return TridiagonalSystem(lower, diag, upper, rng.uniform(-5.0, 5.0, n))


def column_dominant_system(rng: np.random.Generator, n: int) -> TridiagonalSystem:
    """Dominant by rows and by columns, so partial pivoting never swaps."""
    system = random_dominant_system(rng, n)
    column = np.zeros(n)
    column[:-1] += np.abs(system.lower)
    column[1:] += np.abs(system.upper)
    diag = system.diag + np.sign(system.diag) * column
    return TridiagonalSystem(system.lower, diag, system.upper, system.rhs)


def reference_thomas(system: TridiagonalSystem) -> np.ndarray:
    """The Thomas loop as first written: the bit-for-bit oracle of solve_thomas."""
    n = system.n
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


def test_hand_worked_three_by_three():
    # rows: 4x0 + x1 = 6; x0 + 5x1 + x2 = 14; 2x1 + 6x2 = 22
    system = TridiagonalSystem(
        lower=np.array([1.0, 2.0]),
        diag=np.array([4.0, 5.0, 6.0]),
        upper=np.array([1.0, 1.0]),
        rhs=np.array([6.0, 14.0, 22.0]),
    )
    np.testing.assert_allclose(solve_thomas(system), [1.0, 2.0, 3.0],
                               rtol=0, atol=1e-14)


def test_single_row():
    system = TridiagonalSystem(np.array([]), np.array([-2.0]), np.array([]),
                               np.array([5.0]))
    np.testing.assert_allclose(solve_thomas(system), [-2.5])


@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64])
def test_matches_dense_elimination(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(20):
        system = random_dominant_system(rng, n)
        x = solve_thomas(system)
        y = dense_solve(dense(system), system.rhs)
        assert np.max(np.abs(x - y)) < 1e-12


@pytest.mark.parametrize("n", [4, 31])
def test_residual_small(n):
    rng = np.random.default_rng(n)
    system = random_dominant_system(rng, n)
    x = solve_thomas(system)
    assert np.max(np.abs(residual(system, x))) < 1e-12


def test_dense_matches_structure():
    system = TridiagonalSystem(np.array([7.0]), np.array([1.0, 2.0]),
                               np.array([3.0]), np.array([0.0, 0.0]))
    np.testing.assert_array_equal(dense(system),
                                  [[1.0, 3.0], [7.0, 2.0]])


def test_zero_pivot_first_row():
    system = TridiagonalSystem(np.array([1.0]), np.array([1e-18, 1.0]),
                               np.array([1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ZeroPivot) as exc:
        solve_thomas(system)
    assert exc.value.index == 0


def test_zero_pivot_after_elimination():
    # second pivot 1 - 1*1/1 = 0
    system = TridiagonalSystem(np.array([1.0]), np.array([1.0, 1.0]),
                               np.array([1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ZeroPivot) as exc:
        solve_thomas(system)
    assert exc.value.index == 1


def test_singular_dense():
    with pytest.raises(SingularMatrix):
        dense_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def test_dense_solve_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        dense_solve(np.eye(3), np.array([1.0, 2.0]))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000])
def test_bitwise_equal_to_reference_loop(n):
    rng = np.random.default_rng(2000 + n)
    for _ in range(10):
        system = (random_dominant_system(rng, n) if n > 1 else
                  TridiagonalSystem(np.array([]), rng.uniform(0.5, 2.0, 1),
                                    np.array([]), rng.uniform(-5.0, 5.0, 1)))
        x = solve_thomas(system)
        ref = reference_thomas(system)
        assert x.dtype == ref.dtype and np.array_equal(x, ref)
        assert np.array_equal(np.signbit(x), np.signbit(ref))


def zero_pivot_system(rng, n, k, nudge, make=random_dominant_system):
    """A random system whose elimination pivot at row k is nudge, up to rounding."""
    system = make(rng, n)
    lower, diag, upper = system.lower, system.diag.copy(), system.upper
    piv = diag[0]
    for i in range(1, k + 1):
        w = lower[i - 1] / piv
        if i == k:
            diag[k] = w * upper[k - 1] + nudge
        piv = diag[i] - w * upper[i - 1]
    return TridiagonalSystem(lower, diag, upper, system.rhs)


@pytest.mark.parametrize("n,k,nudge", [(5, 1, 0.0), (40, 17, 0.0), (40, 39, 0.0),
                                       (40, 17, 1e-16), (40, 23, -1e-16)])
def test_zero_pivot_matches_reference_loop(n, k, nudge):
    system = zero_pivot_system(np.random.default_rng(n + k), n, k, nudge)
    with pytest.raises(ZeroPivot) as expected:
        reference_thomas(system)
    with pytest.raises(ZeroPivot) as got:
        solve_thomas(system)
    assert got.value.index == expected.value.index == k
    assert got.value.pivot == expected.value.pivot
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n,nudge", [(2, 0.0), (7, -1e-16), (40, 0.0), (40, 1e-16)])
def test_last_pivot_without_swaps_matches_reference_loop(n, nudge):
    # No row swaps before the last row, so only the pivot checks keep the
    # LAPACK result out.
    system = zero_pivot_system(np.random.default_rng(n), n, n - 1, nudge,
                               make=column_dominant_system)
    with pytest.raises(ZeroPivot) as expected:
        reference_thomas(system)
    with pytest.raises(ZeroPivot) as got:
        solve_thomas(system)
    assert got.value.index == expected.value.index == n - 1
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n", [1, 3])
def test_zero_diagonal_fails_as_reference_loop(n):
    # The pivot floor is 0 here, so the reference loop divides by zero;
    # solve_thomas refuses the system as a zero pivot in row 0 instead.
    system = TridiagonalSystem(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1),
                               np.ones(n))
    with pytest.raises(ZeroDivisionError):
        reference_thomas(system)
    with pytest.raises(ZeroPivot) as got:
        solve_thomas(system)
    assert got.value.index == 0 and got.value.pivot == 0.0


@pytest.mark.parametrize("n", [1, 3])
def test_zero_diagonal_fails_without_lapack(n, loop_only):
    test_zero_diagonal_fails_as_reference_loop(n)


def test_subnormal_diagonal_zero_pivot():
    # PIVOT_FLOOR * 1e-320 underflows to 0, so only the test for an exact
    # zero pivot keeps the solve from dividing by row 0's zero.
    system = TridiagonalSystem(np.zeros(1), np.array([0.0, 1e-320]), np.zeros(1),
                               np.ones(2))
    with pytest.raises(ZeroPivot) as got:
        solve_thomas(system)
    assert got.value.index == 0 and got.value.pivot == 0.0


def test_subnormal_diagonal_zero_pivot_without_lapack(loop_only):
    test_subnormal_diagonal_zero_pivot()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000])
def test_bitwise_equal_to_reference_loop_without_lapack(n, loop_only):
    test_bitwise_equal_to_reference_loop(n)


@pytest.mark.parametrize("n,k,nudge", [(5, 1, 0.0), (40, 17, 0.0), (40, 39, 0.0),
                                       (40, 17, 1e-16), (40, 23, -1e-16)])
def test_zero_pivot_matches_reference_loop_without_lapack(n, k, nudge, loop_only):
    test_zero_pivot_matches_reference_loop(n, k, nudge)


@needs_lapack
@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1000])
def test_lapack_path_bitwise_equal_to_reference_loop(n, monkeypatch):
    # With the loop unreachable, every solve below is LAPACK's own.
    def no_loop(system, floor):
        raise AssertionError("the loop ran")
    monkeypatch.setattr(linalg, "_thomas_loop", no_loop)
    rng = np.random.default_rng(3000 + n)
    for _ in range(10):
        system = column_dominant_system(rng, n)
        x = solve_thomas(system)
        ref = reference_thomas(system)
        assert x.dtype == ref.dtype and np.array_equal(x, ref)
        assert np.array_equal(np.signbit(x), np.signbit(ref))


def wide_diagonal_system(n: int) -> TridiagonalSystem:
    """Dominant by rows and by columns, with a diagonal from 1e300 down to 1."""
    diag = np.logspace(300.0, 0.0, n)
    off = 0.3 * diag[1:]
    return TridiagonalSystem(off, diag, off, np.linspace(-2.0, 3.0, n))


@pytest.mark.parametrize("n", [2, 7, 100])
def test_wide_diagonal_solves_on_both_paths(n, monkeypatch):
    # Each pivot is near its own row's diagonal; a floor measured against
    # the largest diagonal, 1e300, would refuse every pivot below 1e286.
    # So the one-comparison screen fails here, and LAPACK answers only
    # because each pivot clears its own row's floor.
    system = wide_diagonal_system(n)
    x = solve_thomas(system)
    if linalg._GTTR is not None:
        lapack = linalg._solve_gttr(system)
        assert lapack is not None
        pivots = linalg._workspace(n)[3]
        assert np.abs(pivots).min() < PIVOT_FLOOR * np.abs(system.diag).max()
        assert_same_bits(lapack, x)
    monkeypatch.setattr(linalg, "_GTTR", None)
    assert_same_bits(solve_thomas(system), x)
    scale = np.maximum(np.abs(dense(system)).max(axis=1), 1.0)
    assert np.max(np.abs(residual(system, x)) / scale) < 1e-15


def row_swap_system() -> TridiagonalSystem:
    # Strictly dominant by rows, but |lower[0]| > |diag[0]|: dgttrf swaps.
    return TridiagonalSystem(np.full(5, 10.0), np.array([1.0] + [20.0] * 5),
                             np.array([0.5] + [1.0] * 4), np.arange(1.0, 7.0))


def test_row_swap_falls_back_to_loop():
    system = row_swap_system()
    if linalg._GTTR is not None:
        assert linalg._solve_gttr(system) is None
        ipiv = linalg._workspace(system.n)[4]
        assert not np.array_equal(ipiv, np.arange(1, system.n + 1))
    x = solve_thomas(system)
    ref = reference_thomas(system)
    assert np.array_equal(x, ref)
    assert np.array_equal(np.signbit(x), np.signbit(ref))


def test_stacked_solve_falls_back_per_block(monkeypatch):
    # Only the block that swaps rows goes to the loop; every column is its
    # own system's solution, and n counts the rows of all three.
    rng = np.random.default_rng(7)
    blocks = [random_dominant_system(rng, 6), row_swap_system(),
              random_dominant_system(rng, 6)]
    stacked = TridiagonalSystem(*(np.stack([getattr(block, band) for block in blocks], axis=1)
                                  for band in ("lower", "diag", "upper", "rhs")))
    assert stacked.n == 18
    alone = [solve_thomas(block) for block in blocks]
    looped = []
    loop = linalg._thomas_loop

    def counted(system, floor):
        looped.append(system.diag.copy())
        return loop(system, floor)

    monkeypatch.setattr(linalg, "_thomas_loop", counted)
    x = solve_thomas(stacked)
    if linalg._GTTR is not None:
        assert len(looped) == 1
        assert np.array_equal(looped[0], blocks[1].diag)
    for column, own in zip(x.T, alone):
        assert_same_bits(column, own)
    assert x.flags.f_contiguous


def assert_same_bits(x, ref):
    assert np.array_equal(x.view(np.int64), np.asarray(ref, dtype=float).view(np.int64))


def loop_solution(system: TridiagonalSystem) -> np.ndarray:
    """The fallback loop at each row's own floor, as solve_thomas would call it."""
    return linalg._thomas_loop(system, linalg._row_floors(system))


def test_signed_zero_matches_loop():
    # Back substitution reaches -0.0 - 0*x[1]; dgtts2 would also subtract
    # DU2[0]*x[2] = 0*(-1.0) = -0.0 and turn x[0] into +0.0.
    system = TridiagonalSystem(np.zeros(2), np.ones(3), np.array([0.0, 0.5]),
                               np.array([-0.0, 1.0, -1.0]))
    assert_same_bits(solve_thomas(system), reference_thomas(system))
    assert_same_bits(solve_thomas(system), [-0.0, 1.5, -1.0])


def test_overflow_matches_loop():
    # x[3] overflows to inf; where the loop carries infinities, the
    # DU2*x term of dgtts2 would make 0*inf = NaN.
    system = TridiagonalSystem(np.zeros(3), np.array([1.0, 1.0, 1.0, 1e-10]),
                               np.ones(3), np.array([1.0, 1.0, 1.0, 1e308]))
    x = solve_thomas(system)
    assert_same_bits(x, reference_thomas(system))
    assert_same_bits(x, [-np.inf, np.inf, -np.inf, np.inf])


@pytest.mark.parametrize("hide_lapack", [False, True])
def test_solve_leaves_system_unchanged(hide_lapack, monkeypatch):
    # With LAPACK, the cases take its own answer, its answer after the
    # per-row floors (wide diagonal) and the loop after a swap.  Each solve
    # returns a new array, which a later solve of the same size leaves alone.
    if hide_lapack:
        monkeypatch.setattr(linalg, "_GTTR", None)
    rng = np.random.default_rng(11)
    cases = [column_dominant_system(rng, n) for n in (1, 2, 50)]
    for rows in cases + [wide_diagonal_system(6), row_swap_system()]:
        # views of one band, as the assemblers build their systems
        n = rows.n
        band = np.zeros((4, n))
        band[0, 1:], band[1] = rows.lower, rows.diag
        band[2, :-1], band[3] = rows.upper, rows.rhs
        system = TridiagonalSystem(band[0, 1:], band[1], band[2, :-1], band[3])
        before = band.tobytes()
        x = solve_thomas(system)
        kept = x.copy()
        assert band.tobytes() == before
        assert_same_bits(x, loop_solution(system))
        solve_thomas(column_dominant_system(rng, n))
        assert_same_bits(x, kept)


def test_numpy_openblas_routines_resolve():
    # A silent fallback to the loop would only show as a slower benchmark.
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):
        pytest.skip("numpy reports no build configuration")
    if "scipy-openblas" not in str(lapack.get("name", "")):
        pytest.skip(f"numpy's LAPACK is {lapack.get('name')!r}")
    assert linalg._GTTR is not None


def test_resolver_falls_back_to_none(monkeypatch):
    # Builds where numpy's linalg extension cannot be loaded, or exports no
    # ILP64 pair (only LP64 names, or half a pair), solve with the loop.
    def unloadable(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(linalg.ctypes, "CDLL", unloadable)
    assert linalg._resolve_gttr() is None
    lp64_only = SimpleNamespace(dgttrf_=None, dgttrs_=None, scipy_dgttrf_64_=None)
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: lp64_only)
    assert linalg._resolve_gttr() is None


def test_interleaved_sizes_each_match_the_loop():
    # Each size keeps its own workspace; a solve of another size in between
    # must not disturb it.
    rng = np.random.default_rng(4000)
    for n in (5, 100, 5, 1000):
        system = column_dominant_system(rng, n)
        assert_same_bits(solve_thomas(system), loop_solution(system))


@needs_lapack
@pytest.mark.parametrize("n", [1, 2, 100, 1000])
def test_dominant_pivots_pass_the_screen(n, monkeypatch):
    # On scaled, dominant rows the one-comparison screen admits every pivot,
    # so the per-row floors are never formed.
    def no_floors(system):
        raise AssertionError("the per-row floors were formed")
    monkeypatch.setattr(linalg, "_row_floors", no_floors)
    system = column_dominant_system(np.random.default_rng(5000 + n), n)
    assert_same_bits(solve_thomas(system), reference_thomas(system))
