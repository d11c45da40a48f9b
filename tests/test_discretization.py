"""Grid, mollifier, cutoff, and Robin wall-closure properties."""
from __future__ import annotations

import numpy as np
import pytest

from poromoist.discretization import Grid, _kernel, cutoff, mollify, robin_fluxes
from poromoist.errors import ConfigError, NonPositiveRadius


def mirror_smooth(values: np.ndarray, mu: float, h: float) -> np.ndarray:
    """Independent reference: explicit loop with reflected indices."""
    half = int(np.floor(mu / h))
    while half > 0 and half * h >= mu:
        half -= 1
    offs = np.arange(-half, half + 1)
    w = np.exp(-1.0 / (1.0 - (offs * h / mu) ** 2))
    w = w / w.sum()
    n = values.shape[0]
    out = np.zeros(n)
    for j in range(n):
        for k, o in enumerate(offs):
            i = j + o
            if i < 0:
                i = -1 - i
            elif i >= n:
                i = 2 * n - 1 - i
            out[j] += w[k] * values[i]
    return out


def test_grid_geometry():
    grid = Grid(4)
    assert grid.h == 0.25
    np.testing.assert_allclose(grid.centers, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(grid.faces, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("n", [3, 0, -1, 4.0])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(ConfigError):
        Grid(n)


def test_mollify_identity_below_cell_width():
    grid = Grid(8)
    values = np.arange(8, dtype=float)
    # the identity hands back the float array itself, not a copy
    assert mollify(values, 0.5 * grid.h, grid.h) is values
    assert mollify(values, grid.h, grid.h) is values
    np.testing.assert_array_equal(mollify(list(values), grid.h, grid.h), values)


@pytest.mark.parametrize("mu_cells", [1.5, 2.5, 4.2])
def test_mollify_matches_reference_loop(mu_cells):
    grid = Grid(16)
    rng = np.random.default_rng(7)
    values = rng.uniform(0.0, 3.0, grid.n)
    mu = mu_cells * grid.h
    got = mollify(values, mu, grid.h)
    np.testing.assert_allclose(got, mirror_smooth(values, mu, grid.h),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [4, 5, 16, 37])
def test_mollify_bitwise_equal_to_symmetric_pad(n):
    grid = Grid(n)
    values = np.random.default_rng(n).uniform(0.0, 3.0, n)
    for half in range(1, n + 1):
        mu = (half + 0.5) * grid.h
        w = _kernel(mu, grid.h)
        assert w.shape == (2 * half + 1,)
        ref = np.convolve(np.pad(values, half, mode="symmetric"), w, mode="valid")
        got = mollify(values, mu, grid.h)
        assert got.shape == (n,) and np.array_equal(got, ref), half


def test_mollify_rejects_kernels_wider_than_the_grid():
    grid = Grid(8)
    # radius 1, the largest eps allows, reaches n - 1 cells past a wall
    assert mollify(np.ones(8), 1.0, grid.h).shape == (8,)
    with pytest.raises(ConfigError, match="9 cells past a wall of an n=8 grid"):
        mollify(np.ones(8), 9.5 * grid.h, grid.h)


def test_mollify_preserves_constants():
    grid = Grid(10)
    np.testing.assert_allclose(mollify(np.full(10, 2.7), 0.35, grid.h), 2.7,
                               rtol=1e-14)


def test_mollify_linear_nonnegative_nonexpansive():
    grid = Grid(20)
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 2.0, grid.n)
    b = rng.uniform(0.0, 2.0, grid.n)
    mu = 3.3 * grid.h
    ma = mollify(a, mu, grid.h)
    mb = mollify(b, mu, grid.h)
    mab = mollify(2.0 * a + b, mu, grid.h)
    np.testing.assert_allclose(mab, 2.0 * ma + mb, atol=1e-13)
    assert np.all(ma >= 0)
    assert ma.max() <= a.max() + 1e-14
    assert ma.min() >= a.min() - 1e-14


def test_mollify_commutes_with_reflection():
    grid = Grid(12)
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, grid.n)
    mu = 2.8 * grid.h
    forward = mollify(values, mu, grid.h)
    backward = mollify(values[::-1].copy(), mu, grid.h)
    np.testing.assert_allclose(forward, backward[::-1], atol=1e-14)


def test_mollify_rejects_nonpositive_radius():
    grid = Grid(4)
    for mu in (0.0, -0.1):
        with pytest.raises(NonPositiveRadius):
            mollify(np.ones(4), mu, grid.h)


def test_cutoff_scalar_and_array():
    assert cutoff(5.0, 0.5) == 2.0
    assert cutoff(1.5, 1.0) == 1.0
    assert isinstance(cutoff(0.25, 1.0), float)
    np.testing.assert_array_equal(cutoff(np.array([0.5, 3.0, 1.0]), 1.0),
                                  [0.5, 1.0, 1.0])
    with pytest.raises(ValueError):
        cutoff(1.0, 0.0)


def literal_cutoff(values, eps):
    """The clamp as its docstring states it: hval where |hval| <= 1/eps, else 1/eps."""
    values = np.asarray(values, dtype=float)
    return np.where(np.abs(values) <= 1.0 / eps, values, 1.0 / eps)


@pytest.mark.parametrize("values", [
    [0.5, -0.0, 0.0, 1.0, 3.0, np.inf, np.nan],          # nothing below -1/eps
    [-3.0, -1.0, -0.5, -np.inf, np.nan, 2.0, 0.25],      # some below -1/eps
    [-1.0, -1.0 - 2e-16, -5e-324],
    [],
])
def test_cutoff_is_the_literal_clamp(values):
    # -1/eps is kept, anything of larger magnitude or NaN becomes +1/eps
    for shape in ((-1,), (1, -1)):
        got = cutoff(np.array(values).reshape(shape), 1.0)
        want = literal_cutoff(values, 1.0).reshape(shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for value in values:
        scalar = cutoff(value, 1.0)
        assert isinstance(scalar, float)
        assert np.array_equal(np.float64(scalar).view(np.int64),
                              literal_cutoff(value, 1.0).view(np.int64))


def test_robin_mass_flux_signs():
    # vapor exchange with alpha0=2, alpha1=3 and unit ambient densities
    def vapor(trace):
        return robin_fluxes(trace, trace, 2.0, 3.0, 1.0, 1.0)

    # surplus vapor at a wall leaves the domain on either side
    left, right = vapor(1.5)
    assert left == pytest.approx(1.0)
    assert right == pytest.approx(-1.5)
