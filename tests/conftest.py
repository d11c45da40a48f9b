"""Shared fixtures: unit-coefficient physics and the smoke problem."""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from poromoist.config import build_setup
from poromoist.discretization import Grid
from poromoist.model import PhysicalParams, PowerLawSaturation
from poromoist.stepper import (RegularizationParams, Setup, State, StepConfig,
                               mollified_initial_data, run)

REPO_ROOT = Path(__file__).resolve().parents[1]

UNIT_PHYSICAL = dict(
    sigma=1.0, lam=1.0, kappa1=1.0, kappa2=1.0,
    alpha0=1.0, alpha1=1.0, beta0=1.0, beta1=1.0,
    rho_bar0=1.0, rho_bar1=1.0, theta_bar0=1.0, theta_bar1=1.0,
    t_end=1.0,
)


def make_params(**overrides) -> PhysicalParams:
    return PhysicalParams(**{**UNIT_PHYSICAL, **overrides})


@pytest.fixture(scope="session")
def unit_params() -> PhysicalParams:
    return make_params()


@pytest.fixture(scope="session")
def cubic_model() -> PowerLawSaturation:
    # p_s(1) = 1, so rho = theta = 1 with unit ambients is an equilibrium
    return PowerLawSaturation(c=1.0, q=3.0, eta=1.0)


@pytest.fixture(scope="session")
def smoke_config() -> dict:
    with open(REPO_ROOT / "configs" / "smoke.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def smoke_result(smoke_config):
    setup = build_setup(smoke_config)
    return run(setup, mollified_initial_data(setup))


def equilibrium_state(grid: Grid) -> State:
    ones = np.ones(grid.n)
    return State(ones.copy(), ones.copy(), 0.0)


def make_setup(params, model, grid: Grid, initial: State | None = None, dt=1e-3,
               eps=1e-2, nu=5e-3, t_end=None, forcing=None, **step) -> Setup:
    """A Setup on grid; initial defaults to the equilibrium state, step to
    StepConfig's and the horizon to params.t_end."""
    if t_end is not None:
        params = replace(params, t_end=t_end)
    return Setup(params, model, RegularizationParams(eps=eps, nu=nu),
                 StepConfig(dt=dt, **step), grid,
                 equilibrium_state(grid) if initial is None else initial, forcing)


def run_equilibrium(params, model, n=32, dt=1e-3, steps=100,
                    eps=1e-2, nu=5e-3):
    setup = make_setup(params, model, Grid(n), dt=dt, eps=eps, nu=nu, t_end=steps * dt)
    return run(setup, setup.initial)
