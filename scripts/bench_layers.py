"""Time each layer of a step in-process, and count the sweeps of every shipped study.

Usage, from anywhere:

    python3 scripts/bench_layers.py

Writes ``BENCH_layers.json`` at the repository root, with the host, Python
and numpy versions.  It has two parts.

``layers_s`` holds the seconds per call of each layer, on a fixed
smoke-physics state at n = 100, 400 and 1000: the march of
``configs/smoke.json`` over STATE_STEPS steps, with snapshots every
SNAPSHOT_CADENCE.  The coefficient freeze and both assemblies are timed
at the march's last step, with its last state as the iterate; the solve
takes the assembled vapor system; ``step_record`` writes that step's row
from a converged ``picard_step``; ``certify_run`` and the ``series.csv``
and ``snapshots.csv`` writers take the whole march.  Each figure is the
minimum over REPEATS repeats of a ``timeit`` loop sized by ``autorange``
(at least 0.2 s), so it is the cost of the layer on a quiet host.

``sweeps`` holds the Picard sweeps per step of ``run`` on the smoke, fine
and stiff configs and of ``mms``, ``ladder`` and ``sweep`` on their
shipped configs, each run in-process through ``poromoist.cli.main``: the
number of steps at each sweep count, their total, the steps taken in more
than one substep (``split_steps``) and the exit code.  A step is one
output level, and its sweeps are those of all its substeps.  These counts
are exact and repeat on every host; ``wall_s``, the wall time of the one
command, does not.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
import timeit
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from poromoist import cli, stepper  # noqa: E402
from poromoist.config import apply_override, build_setup, load_config  # noqa: E402
from poromoist.diagnostics import certify_run, start_series, step_record  # noqa: E402
from poromoist.linalg import solve_thomas  # noqa: E402
from poromoist.stepper import State  # noqa: E402

SIZES = (100, 400, 1000)
STATE_STEPS = 50
SNAPSHOT_CADENCE = 0.01
REPEATS = 5

SWEEP_CASES = (
    ("run_smoke", ("run", "configs/smoke.json")),
    ("run_fine", ("run", "perfbench/configs/fine.json")),
    ("run_stiff", ("run", "perfbench/configs/stiff.json")),
    ("mms", ("mms", "configs/mms.json")),
    ("ladder", ("ladder", "configs/ladder.json")),
    ("sweep", ("sweep", "configs/sweep.json")),
)


def best_seconds(fn) -> float:
    """Seconds per call: the minimum over REPEATS timeit loops."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number


def layer_costs(n: int, out: str) -> dict:
    """Seconds per call of every layer, on the smoke state at n cells."""
    data = load_config(os.path.join(ROOT, "configs", "smoke.json"))
    for path, value in (("grid.n", n),
                        ("physical.t_end", STATE_STEPS * data["stepping"]["dt"]),
                        ("output.cadence", SNAPSHOT_CADENCE)):
        data = apply_override(data, path, value)
    setup = build_setup(data)
    cfg, reg, params, model, grid = (setup.step, setup.reg, setup.params,
                                     setup.model, setup.grid)
    result = stepper.run(setup.initial, cfg, reg, params, model, grid)
    prev = State(result.rho[-2], result.theta[-2], result.t[-2])
    rho, theta = result.rho[-1], result.theta[-1]
    args = (reg, params, model, grid, cfg.dt)

    rho_sys, coeffs = stepper.assemble_rho_system(prev, rho, theta, *args,
                                                  cfg.advection)
    rho_new = solve_thomas(rho_sys)
    _, record = stepper.picard_step(prev, cfg, reg, params, model, grid,
                                    start=(rho, theta))
    columns = start_series(1)
    series_path = os.path.join(out, "series.csv")
    snapshots_path = os.path.join(out, "snapshots.csv")
    layers = {
        "compute_flux_coefficients": lambda: stepper.compute_flux_coefficients(
            rho, theta, reg, grid, model, cfg.advection),
        "assemble_rho_system": lambda: stepper.assemble_rho_system(
            prev, rho, theta, *args, cfg.advection),
        "assemble_theta_system": lambda: stepper.assemble_theta_system(
            prev, rho_new, theta, *args, coeffs, cfg.advection),
        "solve_thomas": lambda: solve_thomas(rho_sys),
        "step_record": lambda: step_record(columns, 1, (record,), grid, params),
        "certify_run": lambda: certify_run(result),
        "write_series_csv": lambda: cli._write_series(series_path, result),
        "write_snapshots_csv": lambda: cli._write_snapshots(snapshots_path, result,
                                                            setup),
    }
    return {name: best_seconds(fn) for name, fn in layers.items()}


def sweep_counts(command: str, config: str, out: str) -> dict:
    """Run one CLI command, counting its accepted steps by their sweeps.

    stepper.run looks homotopy_solve up in its module on every step, so a
    wrapper there sees each step of every march the command makes, with
    one record per substep.
    """
    counts = Counter()
    split = []
    solve = stepper.homotopy_solve

    def counted(*args, **kwargs):
        new, records = solve(*args, **kwargs)
        counts[sum(record.sweeps for record in records)] += 1
        split.append(len(records) > 1)
        return new, records

    stepper.homotopy_solve = counted
    try:
        start = time.perf_counter()
        code = cli.main([command, os.path.join(ROOT, config), "--out", out, "--quiet"])
        wall = time.perf_counter() - start
    finally:
        stepper.homotopy_solve = solve
    steps = sum(counts.values())
    sweeps = sum(k * count for k, count in counts.items())
    return {
        "exit": code,
        "steps": steps,
        "sweeps": sweeps,
        "sweeps_per_step": sweeps / steps if steps else 0.0,
        "first_sweep_steps": counts[1],
        "split_steps": sum(split),
        "steps_by_sweeps": sorted(counts.items()),
        "wall_s": wall,
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        layers = {str(n): layer_costs(n, out) for n in SIZES}
        sweeps = {name: sweep_counts(command, config, os.path.join(out, name))
                  for name, (command, config) in SWEEP_CASES}
    payload = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "state": (f"configs/smoke.json physics at grid.n in {list(SIZES)}, "
                  f"{STATE_STEPS} steps, snapshots every {SNAPSHOT_CADENCE}"),
        "timing": f"seconds per call, minimum over {REPEATS} timeit autorange loops",
        "layers_s": layers,
        "sweeps": sweeps,
    }
    path = os.path.join(ROOT, "BENCH_layers.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, case in sweeps.items():
        print(f"{name}: exit {case['exit']}, {case['sweeps']} sweeps over "
              f"{case['steps']} steps, {case['first_sweep_steps']} on the first, "
              f"{case['split_steps']} split")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
