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
takes the assembled vapor system; ``predicted_start`` extrapolates the
march's last five states; ``step_record_per_level`` is the cost per level
of one ``step_record`` call on a block of as many levels as ``run`` folds
at once, each holding the record of a converged ``picard_step`` from the
last state, which writes every series column of those levels (the state
functionals and both time integrals too); ``certify_run`` and the
``series.csv`` and ``snapshots.csv`` writers take the whole march.  Each
figure is the minimum over REPEATS repeats of a ``timeit`` loop sized by
``autorange`` (at least 0.2 s), so it is the cost of the layer on a quiet
host.

Absolute times drift with the host's load between runs, even of the same
code, so ``layers_per_gauge`` holds each layer's seconds per call over the
gauge of ``perfbench/run.py`` (a fixed pure-Python loop), timed right
before and right after the layer's timing: the mean of the two gauges
divides it.  Even so, two files from different runs cannot be compared
layer by layer: the host drifts more between runs than most changes move
a layer.  To compare two revisions, time them side by side in one process
with ``scripts/bench_ab.py``, which imports ``layer_table`` from here.

``sweeps`` holds the Picard sweeps per step of ``run`` on the smoke, fine
and stiff configs and of ``mms``, ``ladder`` and ``sweep`` on their
shipped configs, each run in-process through ``poromoist.cli.main``: the
number of steps at each sweep count, their total, the steps taken in more
than one substep (``split_steps``) and the exit code.  ``harder_grid`` is
the harder grid of ``tests/test_acceptance.py`` (the smoke problem to
t = 0.4 over HARDER_GRID) as one ``sweep``, which exits 0 only when all
12 cells certify.  A step is one
output level, and its sweeps are those of all its substeps.  These counts
are exact and repeat on every host; ``wall_s``, the wall time of the one
command, does not.
"""

from __future__ import annotations

import importlib
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
from poromoist.config import apply_override  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import gauge  # noqa: E402

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

# The harder grid's axes; its cells run the smoke problem to t = 0.4.
HARDER_GRID = {
    "stepping.dt": [0.04, 0.08],
    "physical.lambda": [60.0, 120.0, 250.0],
    "initial.theta.value": [1.0, 1.3],
}


def best_seconds(fn) -> float:
    """Seconds per call: the minimum over REPEATS timeit loops."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number


def layer_table(n: int, out: str, package: str = "poromoist") -> tuple[dict, int]:
    """Every layer's call on the smoke state at n cells, and step_record's block.

    Returns a dict from each layer's name to a function of no arguments that
    makes one call, and the number of levels that one step_record call
    folds.  The state, the inputs and the calls all come from the named
    package, so a second copy of the package loaded under another name (see
    scripts/bench_ab.py) gets a table of its own.  The CSV writers write
    into out.
    """
    cli, config, diagnostics, linalg, stepper = (
        importlib.import_module(f"{package}.{name}")
        for name in ("cli", "config", "diagnostics", "linalg", "stepper"))
    data = config.load_config(os.path.join(ROOT, "configs", "smoke.json"))
    for path, value in (("grid.n", n),
                        ("physical.t_end", STATE_STEPS * data["stepping"]["dt"]),
                        ("output.cadence", SNAPSHOT_CADENCE)):
        data = config.apply_override(data, path, value)
    setup = config.build_setup(data)
    cfg, reg, params, model, grid = (setup.step, setup.reg, setup.params,
                                     setup.model, setup.grid)
    result = stepper.run(setup.initial, cfg, reg, params, model, grid)
    prev = stepper.State(result.rho[-2], result.theta[-2], result.t[-2])
    rho, theta = result.rho[-1], result.theta[-1]
    args = (reg, params, model, grid, cfg.dt)

    rho_sys, coeffs = stepper.assemble_rho_system(prev, rho, theta, *args,
                                                  cfg.advection)
    rho_new = linalg.solve_thomas(rho_sys)
    _, record = stepper.picard_step(prev, cfg, reg, params, model, grid,
                                    start=(rho, theta))
    block = max(1, stepper._STEP_BLOCK_CELLS // n)
    levels = [(record,)] * block
    columns = diagnostics.start_series(block, prev, grid, params)
    history = np.hstack((result.rho[-5:], result.theta[-5:]))
    series_path = os.path.join(out, "series.csv")
    snapshots_path = os.path.join(out, "snapshots.csv")
    return {
        "compute_flux_coefficients": lambda: stepper.compute_flux_coefficients(
            rho, theta, reg, grid, model, cfg.advection),
        "assemble_rho_system": lambda: stepper.assemble_rho_system(
            prev, rho, theta, *args, cfg.advection),
        "assemble_theta_system": lambda: stepper.assemble_theta_system(
            prev, rho_new, theta, *args, coeffs, cfg.advection),
        "solve_thomas": lambda: linalg.solve_thomas(rho_sys),
        "predicted_start": lambda: stepper._predicted_start(history),
        "step_record_per_level": lambda: diagnostics.step_record(
            columns, 1, levels, cfg.dt, grid, params),
        "certify_run": lambda: diagnostics.certify_run(result),
        "write_series_csv": lambda: cli._write_series(series_path, result),
        "write_snapshots_csv": lambda: cli._write_snapshots(snapshots_path, result,
                                                            setup),
    }, block


def layer_costs(n: int, out: str) -> tuple[dict, dict]:
    """Seconds per call of every layer, on the smoke state at n cells.

    Returns the seconds and the seconds over the mean of the gauges timed
    right before and right after each layer's timing.
    """
    layers, block = layer_table(n, out)
    costs, gauges = {}, [gauge()]
    for name, fn in layers.items():
        costs[name] = best_seconds(fn)
        gauges.append(gauge())
    costs["step_record_per_level"] /= block
    per_gauge = {name: seconds / (0.5 * (before + after))
                 for (name, seconds), before, after in zip(costs.items(), gauges,
                                                           gauges[1:])}
    return costs, per_gauge


def harder_grid_config(out: str) -> str:
    """Write the harder grid as a sweep config into out; return its path."""
    with open(os.path.join(ROOT, "configs", "smoke.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    for path, value in (("physical.t_end", 0.4), ("output.cadence", 0.4)):
        data = apply_override(data, path, value)
    data["sweep"] = {"axes": HARDER_GRID}
    path = os.path.join(out, "harder_grid.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


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
        layers, per_gauge = {}, {}
        for n in SIZES:
            layers[str(n)], per_gauge[str(n)] = layer_costs(n, out)
        cases = SWEEP_CASES + (("harder_grid", ("sweep", harder_grid_config(out))),)
        sweeps = {name: sweep_counts(command, config, os.path.join(out, name))
                  for name, (command, config) in cases}
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
        "timing": (f"seconds per call, minimum over {REPEATS} timeit autorange loops; "
                   "layers_per_gauge divides them by the mean of the perfbench/run.py "
                   "gauge timed before and after each layer"),
        "layers_s": layers,
        "layers_per_gauge": per_gauge,
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
