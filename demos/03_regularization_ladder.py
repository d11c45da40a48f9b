"""Send the smoothing parameters to zero and watch trajectories settle.

The solver never integrates the degenerate system directly; it integrates
a family of regularized problems indexed by a cutoff level eps and a
mollifier radius nu.  Halving both again and again should produce a Cauchy
sequence of trajectories: successive space-time distances must fall, while
the entropy and fourth-power monitors level off.  That is the numerical
shadow of the compactness argument behind the limit solution.
"""
import json
from pathlib import Path

from poromoist.config import build_setup
from poromoist.harness import regularization_ladder

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"


def main():
    with open(CONFIG) as fh:
        setup = build_setup(json.load(fh))
    report = regularization_ladder(setup)

    print(f"{'rung':>4} {'eps':>9} {'nu':>9} {'distance to previous':>21} "
          f"{'entropy':>9} {'L4':>9}")
    for j, (eps, nu) in enumerate(zip(report.eps_values, report.nu_values)):
        dist = f"{report.differences[j-1]:.6f}" if j else "-"
        print(f"{j:>4} {eps:>9.4f} {nu:>9.4f} {dist:>21} "
              f"{report.entropy_monitors[j]:>9.5f} {report.l4_monitors[j]:>9.5f}")
    print("distances strictly decreasing:", report.monotone)
    print("monitor variation on the finest pair:",
          {k: f"{v:.2%}" for k, v in report.monitor_variation.items()})


if __name__ == "__main__":
    main()
