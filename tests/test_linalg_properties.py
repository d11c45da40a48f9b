"""solve_thomas against its own fallback loop on random tridiagonal systems."""
from __future__ import annotations

import math

import numpy as np
import pytest

from poromoist import linalg
from poromoist.errors import ZeroPivot
from poromoist.linalg import TridiagonalSystem, solve_thomas

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MANTISSA = st.floats(-10.0, 10.0, allow_nan=False)
# A pivot nudged off zero by this much relative to its row: exact zero, below,
# at and above PIVOT_FLOOR.
NUDGES = st.sampled_from([0.0, 1e-17, -1e-15, 1e-14, -1e-13, 1e-12])


@st.composite
def systems(draw, rows: int | None = None) -> TridiagonalSystem:
    """Any tridiagonal system of 1 to 12 rows (or of rows rows), each row scaled
    by 10**k, |k| <= 300.

    Optionally the elimination pivot of one row is set near zero: its diagonal
    entry is the eliminated product of the rows above plus a small nudge.
    """
    n = draw(st.integers(1, 12)) if rows is None else rows
    lower = np.array(draw(st.lists(MANTISSA, min_size=n - 1, max_size=n - 1)))
    diag = np.array(draw(st.lists(MANTISSA, min_size=n, max_size=n)))
    upper = np.array(draw(st.lists(MANTISSA, min_size=n - 1, max_size=n - 1)))
    rhs = np.array(draw(st.lists(MANTISSA, min_size=n, max_size=n)))
    scale = 10.0 ** np.array(draw(st.lists(st.integers(-300, 300),
                                           min_size=n, max_size=n)), dtype=float)
    lower *= scale[1:]
    diag *= scale
    upper *= scale[:-1]
    rhs *= scale
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        a, d, c = lower.tolist(), diag.tolist(), upper.tolist()
        piv = d[0]
        for i in range(1, k + 1):
            if not (piv != 0.0 and math.isfinite(piv)):
                break
            w = a[i - 1] / piv
            if i == k:
                diag[k] = w * c[k - 1] + draw(NUDGES) * scale[k]
            piv = d[i] - w * c[i - 1]
    return TridiagonalSystem(lower, diag, upper, rhs)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(systems())
def test_solve_matches_loop_at_row_floors(system):
    floors = linalg._row_floors(system)
    try:
        expected = linalg._thomas_loop(system, floors)
    except ZeroPivot as exc:
        with pytest.raises(ZeroPivot) as got:
            solve_thomas(system)
        assert got.value.index == exc.index
        assert float(got.value.pivot).hex() == float(exc.pivot).hex()
    else:
        x = solve_thomas(system)
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))


@st.composite
def stacks(draw) -> list:
    """Two to four systems of one size, as systems() draws them, or changed so
    that only the loop can solve them: |lower[0]| above |diag[0]|, which makes
    dgttrf swap rows; a zero right-hand side, whose solution is zero; or the
    rows whose x[0] = -0.0 dgtts2 would turn into +0.0 (see
    tests/test_linalg.py::test_signed_zero_matches_loop).  systems() itself
    may put a pivot below its row's floor, where the loop raises ZeroPivot."""
    n = draw(st.integers(1, 8))
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        block = draw(systems(n))
        change = draw(st.sampled_from(["none", "swap", "zero", "signed zero"]))
        if change == "swap" and n > 1:
            block.lower[0] = 2.0 * abs(block.diag[0]) + 1.0
        elif change == "zero":
            block.rhs[:] = 0.0
        elif change == "signed zero" and n > 2:
            block.lower[:], block.diag[:], block.upper[:] = 0.0, 1.0, 0.0
            block.upper[1] = 0.5
            block.rhs[:3] = -0.0, 1.0, -1.0
        blocks.append(block)
    return blocks


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(stacks())
def test_stacked_blocks_solve_as_their_own_systems(blocks):
    # Each column of an (n, B) system gets its own solve's bits, or the
    # ZeroPivot of the first block whose own solve raises, with its index.
    stacked = TridiagonalSystem(*(np.stack([getattr(block, band) for block in blocks], axis=1)
                                  for band in ("lower", "diag", "upper", "rhs")))
    assert stacked.n == stacked.diag.size
    alone = []
    for block in blocks:
        try:
            alone.append(solve_thomas(block))
        except ZeroPivot as exc:
            alone.append(exc)
    failed = [k for k, x in enumerate(alone) if isinstance(x, ZeroPivot)]
    if failed:
        with pytest.raises(ZeroPivot) as got:
            solve_thomas(stacked)
        first = alone[failed[0]]
        assert got.value.member == failed[0]
        assert got.value.index == first.index
        assert float(got.value.pivot).hex() == float(first.pivot).hex()
    else:
        x = solve_thomas(stacked)
        assert x.shape == stacked.diag.shape
        for column, own in zip(x.T, alone):
            assert np.array_equal(column.view(np.int64), own.view(np.int64))
