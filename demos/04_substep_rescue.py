"""Rescue a stiff step by taking it in smaller substeps instead of giving up.

With a large latent-heat coefficient and a long step, the Picard sweeps
for a single backward-Euler step contract too slowly to fit the iteration
budget, even with their inputs Anderson-mixed.
Instead of failing the step, the solver retakes it as two steps of half
the size, each from its own previous state, and halves again wherever a
substep fails.  A shorter step is less nonlinear, so its sweeps converge
where the direct attempt could not, and the output level stays at t = dt.
"""
import numpy as np

from poromoist.discretization import Grid
from poromoist.errors import PicardDivergence
from poromoist.model import PowerLawSaturation, PhysicalParams
from poromoist.stepper import (RegularizationParams, Setup, State, StepConfig,
                               homotopy_solve, picard_step)

N = 16
LATENT = 120.0
DT = 0.02


def main():
    grid = Grid(N)
    params = PhysicalParams(sigma=1.0, lam=LATENT, kappa1=1.0, kappa2=1.0,
                            alpha0=1.0, alpha1=1.0, beta0=1.0, beta1=1.0,
                            rho_bar0=1.0, rho_bar1=1.0, theta_bar0=1.0,
                            theta_bar1=1.0, t_end=1.0)
    model = PowerLawSaturation(c=1.0, q=3.0, eta=1.0)
    state = State(np.ones(N), np.full(N, 1.3), 0.0)
    setup = Setup(params, model, RegularizationParams(eps=1e-2, nu=5e-3),
                  StepConfig(dt=DT), grid, state)

    print(f"latent heat {LATENT}, superheated start, step {DT}, "
          f"budget {setup.step.max_picard} sweeps per attempt")
    failed = 0
    try:
        picard_step(state, setup, DT)
        print("direct attempt converged (unexpected here)")
    except PicardDivergence as exc:
        failed = exc.sweeps
        print(f"direct attempt: gave up after {exc.sweeps} sweeps "
              f"(update still {exc.record.update:.2e})")

    # The first substep's record also counts the failed attempt's sweeps.
    new, records = homotopy_solve(state, setup)
    total = sum(record.sweeps for record in records)
    print(f"rescued in {len(records)} substeps, {total} sweeps in all:")
    for k, record in enumerate(records):
        own = record.sweeps - (failed if k == 0 else 0)
        print(f"  t = {record.prev.t:g} -> {record.prev.t + record.dt:g}: "
              f"dt = {record.dt:g}, {own} sweeps")
    print(f"state at t = {new.t:g}: rho in [{new.rho.min():.4f}, "
          f"{new.rho.max():.4f}], theta in "
          f"[{new.theta.min():.4f}, {new.theta.max():.4f}]")


if __name__ == "__main__":
    main()
