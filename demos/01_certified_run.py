"""March the reference vapor-bump problem and certify every estimate.

A Gaussian vapor bump sits in a slab at uniform temperature with matched
ambient conditions on both walls.  Condensation releases latent heat while
the Robin exchange drains the surplus vapor, so the run relaxes toward the
ambient equilibrium.  Along the way the solver certifies mass balance,
the energy envelope, positivity, and the temperature maximum principle.
"""
import json
from pathlib import Path

from poromoist.config import build_setup
from poromoist.diagnostics import certify_run
from poromoist.stepper import mollified_initial_data, run

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"


def main():
    with open(CONFIG) as fh:
        setup = build_setup(json.load(fh))
    result = run(setup, mollified_initial_data(setup))

    print(f"marched {len(result.t) - 1} steps of dt={setup.step.dt} "
          f"on n={setup.grid.n} cells")
    series = result.series
    print(f"total vapor mass   {series['total_mass'][0]:.6f} -> "
          f"{series['total_mass'][-1]:.6f}")
    print(f"temperature range  [{series['min_theta'][-1]:.6f}, "
          f"{series['max_theta'][-1]:.6f}]")
    print(f"worst mass residual   {series['mass_balance_residual'].max():.3e}")
    print(f"worst energy residual {series['energy_balance_residual'].max():.3e}")

    cert = certify_run(result)
    print(f"entropy peak {cert.max_entropy:.6f}, "
          f"gradient dissipation {cert.entropy_dissipation:.6f}")
    print(f"envelope slack {cert.envelope_min_slack:.6f}")
    print("certification:", "PASS" if cert.passed else "FAIL")
    for failure in cert.failures:
        print("  -", failure)


if __name__ == "__main__":
    main()
