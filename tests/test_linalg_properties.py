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
def systems(draw) -> TridiagonalSystem:
    """Any tridiagonal system of 1 to 12 rows, each row scaled by 10**k, |k| <= 300.

    Optionally the elimination pivot of one row is set near zero: its diagonal
    entry is the eliminated product of the rows above plus a small nudge.
    """
    n = draw(st.integers(1, 12))
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
