"""Certify the solver across a grid of material parameters.

Every cell of a cartesian sweep runs the reference problem with one
combination of latent heat and fabric heat capacity, then re-certifies
all runtime checks.  A cell that fails validation or diverges is recorded
and skipped, never aborting its neighbors.
"""
import json
from pathlib import Path

from poromoist.harness import sweep

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"


def main():
    with open(CONFIG) as fh:
        base = json.load(fh)

    report = sweep(base, {"physical.lambda": [0.5, 1.0, 2.0],
                          "physical.sigma": [0.5, 1.0, 2.0]})

    print(f"{'lambda':>7} {'sigma':>6} {'status':>8} {'certified':>10} "
          f"{'mass residual':>14} {'min rho':>9}")
    for c in report.cells:
        lam = c.overrides["physical.lambda"]
        sig = c.overrides["physical.sigma"]
        if c.status == "ok":
            s = c.certification
            print(f"{lam:>7} {sig:>6} {c.status:>8} {str(s.passed):>10} "
                  f"{s.max_mass_residual:>14.3e} {s.min_rho:>9.5f}")
        else:
            print(f"{lam:>7} {sig:>6} {c.status:>8} {c.detail}")
    certified = sum(c.certified for c in report.cells)
    print(f"{certified}/{len(report.cells)} cells certified")


if __name__ == "__main__":
    main()
