"""Material laws: saturation curves, phase change, conductivity, velocity."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from poromoist.discretization import Grid
from poromoist.errors import ConfigError
from poromoist.model import (ExponentialSaturation, InitialData, PowerLawSaturation,
                             conductivity, darcy_velocity,
                             phase_change_rate, saturation_pressure)
from tests.conftest import make_params


def test_physical_params_reject_nonpositive_fields():
    with pytest.raises(ConfigError, match="sigma"):
        make_params(sigma=-1.0)
    with pytest.raises(ConfigError, match="beta1"):
        make_params(beta1=0.0)


def test_ambient_min():
    params = make_params(rho_bar0=0.3, theta_bar1=0.2)
    assert params.ambient_min == 0.2


def test_power_law_pressure_values(cubic_model):
    assert saturation_pressure(cubic_model, 2.0) == pytest.approx(8.0)
    assert saturation_pressure(cubic_model, 0.0) == 0.0
    assert saturation_pressure(cubic_model, -3.0) == 0.0
    assert isinstance(saturation_pressure(cubic_model, 1.0), float)
    np.testing.assert_allclose(
        saturation_pressure(cubic_model, np.array([1.0, 2.0, -1.0])),
        [1.0, 8.0, 0.0])


@pytest.mark.parametrize("theta", [[0.5, 1.0, 2.0], [1.0, 0.0, -1.0], [2.0, np.nan, 1.0],
                                   [-0.0, 3.0], []])
def test_saturation_pressure_is_zero_off_positive_temperatures(theta, cubic_model):
    # bit for bit the curve where theta > 0 and 0.0 elsewhere, NaN included
    models = (cubic_model, ExponentialSaturation(a=2.0, b=1.0, eta=0.5))
    for model, shape in itertools.product(models, ((-1,), (1, -1))):
        values = np.array(theta).reshape(shape)
        want = np.where(values > 0, model.pressure(values), 0.0)
        got = saturation_pressure(model, values)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_exponential_pressure_values():
    model = ExponentialSaturation(a=2.0, b=1.0, eta=0.5)
    assert saturation_pressure(model, 1.0) == pytest.approx(2.0 * np.exp(-1.0))
    assert saturation_pressure(model, 0.0) == 0.0
    assert saturation_pressure(model, -1.0) == 0.0


@pytest.mark.parametrize("make", [
    lambda: PowerLawSaturation(c=0.0, q=3.0),
    lambda: PowerLawSaturation(c=-1.0, q=3.0),
    lambda: PowerLawSaturation(c=1.0, q=1.0),
    lambda: PowerLawSaturation(c=1.0, q=3.0, eta=0.0),
    lambda: ExponentialSaturation(a=0.0, b=1.0),
    lambda: ExponentialSaturation(a=1.0, b=-2.0),
    lambda: PowerLawSaturation(c=1, q=2, eta=1),
    lambda: ExponentialSaturation(a=1, b=1, eta=1),
])
def test_saturation_constructor_validation(make):
    with pytest.raises(ConfigError):
        make()


def test_admissibility_is_the_closed_form():
    assert PowerLawSaturation.admissibility(c=1.0, q=3.0) == (
        "q", "q > 1 + eta", "3.0 > 2.0", True)
    assert PowerLawSaturation.admissibility(c=1.0, q=1.5, eta=0.5).violations() == [
        ("q", "requires q > 1 + eta; 1.5 > 1.5 is false")]
    assert ExponentialSaturation.admissibility(a=1.0, b=1.0, eta=0.99).holds
    assert ExponentialSaturation.admissibility(a=1.0, b=1.0).violations() == [
        ("eta", "requires eta < 1; 1.0 < 1.0 is false")]
    assert PowerLawSaturation(c=1.0, q=3.0).condition.holds


def test_phase_change_rate(cubic_model):
    # rho sqrt(theta) - p_s: 2*2 - 64
    assert phase_change_rate(2.0, 4.0, cubic_model) == pytest.approx(-60.0)
    assert phase_change_rate(1.0, 1.0, cubic_model) == 0.0
    assert phase_change_rate(1.0, -1.0, cubic_model) == 0.0
    np.testing.assert_allclose(
        phase_change_rate(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                          cubic_model), [0.0, 1.0])


def test_clamps_match_clip_bit_for_bit(cubic_model):
    # np.maximum(theta, 0.0) maps -0.0 to +0.0 as np.clip does;
    # np.maximum(0.0, theta) would keep -0.0 and flip the sign of a zero rate.
    theta = np.array([-0.0, 0.0, -1e-300, -2.0, 5e-324, 0.5, 2.0, np.nan])
    rho = np.full(theta.shape, 0.7)
    clipped = np.clip(theta, 0.0, None)
    pressure = np.where(theta > 0, cubic_model.c * clipped**cubic_model.q, 0.0)
    rate = rho * np.sqrt(clipped) - pressure
    got_pressure = saturation_pressure(cubic_model, theta)
    got_rate = phase_change_rate(rho, theta, cubic_model)
    np.testing.assert_array_equal(got_pressure.view(np.int64), pressure.view(np.int64))
    np.testing.assert_array_equal(got_rate.view(np.int64), rate.view(np.int64))


def test_conductivity():
    params = make_params(kappa1=1.0, kappa2=3.0)
    assert conductivity(2.0, params) == pytest.approx(13.0)
    np.testing.assert_allclose(conductivity(np.array([0.0, 1.0]), params),
                               [1.0, 4.0])


def test_initial_data_validation():
    good = InitialData(np.ones(4), np.ones(4), theta_floor=0.5)
    assert good.theta_floor == 0.5
    cases = [
        dict(rho0=[-0.1, 1, 1, 1], theta0=[1, 1, 1, 1], theta_floor=0.5),
        dict(rho0=[1, 1, 1, 1], theta0=[0.4, 1, 1, 1], theta_floor=0.5),
        dict(rho0=[1, 1, 1], theta0=[1, 1, 1, 1], theta_floor=0.5),
        dict(rho0=[1, np.nan, 1, 1], theta0=[1, 1, 1, 1], theta_floor=0.5),
        dict(rho0=[1, 1, 1, 1], theta0=[1, 1, 1, 1], theta_floor=0.0),
    ]
    for kwargs in cases:
        with pytest.raises(ConfigError, match="invalid initial data"):
            InitialData(**kwargs)


def test_darcy_velocity_interior_and_walls():
    grid = Grid(8)
    rho = np.full(grid.n, 2.0)
    theta = 1.0 + grid.centers
    params = make_params()
    uw = darcy_velocity(rho, theta, grid, params=params)
    # pressure 2(1+x) has slope 2, interior velocity -2
    np.testing.assert_allclose(uw[1:-1], -2.0, rtol=1e-13)
    # left: flux alpha*(trace - ambient) = 1 outward, donor is the trace 2
    assert uw[0] == pytest.approx(-0.5)
    # right: outflow q = alpha*(trace - ambient) = 1, donor is the trace 2
    assert uw[-1] == pytest.approx(0.5)
