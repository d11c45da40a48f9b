"""Rescue a stiff step by ramping the coupling instead of giving up.

With a large latent-heat coefficient and a long step, the Picard sweeps
for a single backward-Euler step contract too slowly to fit the iteration
budget, even with their inputs Anderson-mixed.
Instead of failing the step, the solver re-solves it along a ramp of
coupling strengths s = 1/8, 2/8, ..., 1, warm-starting each stage from
the previous one.  Each stage is mildly nonlinear, so the ramp converges
where the direct attempt could not.
"""
import numpy as np

from poromoist.discretization import Grid
from poromoist.errors import PicardDivergence
from poromoist.model import PowerLawSaturation, PhysicalParams
from poromoist.stepper import (RegularizationParams, State, StepConfig,
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
    reg = RegularizationParams(eps=1e-2, nu=5e-3)
    cfg = StepConfig(dt=DT)

    print(f"latent heat {LATENT}, superheated start, "
          f"budget {cfg.max_picard} sweeps per attempt")
    try:
        picard_step(state, cfg, reg, params, model, grid)
        print("direct attempt converged (unexpected here)")
    except PicardDivergence as exc:
        print(f"direct attempt: gave up after {exc.sweeps} sweeps "
              f"(update still {exc.record.update:.2e})")

    roomy = StepConfig(dt=cfg.dt, max_picard=500)
    _, record = picard_step(state, roomy, reg, params, model, grid)
    print(f"for reference, the direct sweeps do converge after "
          f"{record.sweeps} iterations")

    new, record = homotopy_solve(state, cfg, reg, params, model, grid)
    path = ", ".join(f"{s:g}" for s in record.s_path)
    print(f"homotopy: converged in {record.sweeps} total sweeps "
          f"along s = [{path}]")
    print(f"stepped state: rho in [{new.rho.min():.4f}, "
          f"{new.rho.max():.4f}], theta in "
          f"[{new.theta.min():.4f}, {new.theta.max():.4f}]")


if __name__ == "__main__":
    main()
