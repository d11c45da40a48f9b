"""Certify the solver across a grid of material parameters.

Every cell of a cartesian sweep runs the reference problem with one
combination of latent heat and fabric heat capacity, then re-certifies
all runtime checks.  A cell that fails validation or diverges is recorded
and skipped, never aborting its neighbors.
"""
import json
from pathlib import Path

from poromoist.config import apply_override, build_setup
from poromoist.diagnostics import certify_run
from poromoist.harness import sweep
from poromoist.stepper import mollified_initial_data, run

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"


def main():
    with open(CONFIG) as fh:
        base = json.load(fh)

    def cell(overrides):
        data = base
        for path, value in overrides.items():
            data = apply_override(data, path, value)
        setup = build_setup(data)
        result = run(mollified_initial_data(setup.initial, setup.reg, setup.grid),
                     setup.step, setup.reg, setup.params, setup.model, setup.grid,
                     t_end=setup.params.t_end)
        return certify_run(result).summary()

    report = sweep({"physical.lambda": [0.5, 1.0, 2.0],
                    "physical.sigma": [0.5, 1.0, 2.0]}, cell)

    print(f"{'lambda':>7} {'sigma':>6} {'status':>8} {'certified':>10} "
          f"{'mass residual':>14} {'min rho':>9}")
    for c in report.cells:
        lam = c.overrides["physical.lambda"]
        sig = c.overrides["physical.sigma"]
        if c.status == "ok":
            s = c.payload
            print(f"{lam:>7} {sig:>6} {c.status:>8} {str(s['passed']):>10} "
                  f"{s['max_mass_residual']:>14.3e} {s['min_rho']:>9.5f}")
        else:
            print(f"{lam:>7} {sig:>6} {c.status:>8} {c.detail}")
    print(f"{len(report.cells) - len(report.failures)}/{len(report.cells)} "
          f"cells certified")


if __name__ == "__main__":
    main()
