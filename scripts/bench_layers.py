"""Count the Picard sweeps of every shipped study; hold the layers bench_ab.py times.

Usage, from anywhere:

    python3 scripts/bench_layers.py

Writes ``BENCH_layers.json`` at the repository root, with the host, Python
and numpy versions, and ``sweeps``: the Picard sweeps per step of ``run``
on the smoke, fine and stiff configs and of ``mms``, ``ladder`` and
``sweep`` on their shipped configs, each run in-process through
``poromoist.cli.main``: the number of steps at each sweep count, their
total, the steps that converged on their first sweep, the steps taken in
more than one substep (``split_steps``), the lockstep sweeps and the exit
code.  The sweeps of a step are its member's own, also where ``ladder``
and ``sweep`` march their members as one group (``stepper.march``); a
lockstep sweep is one sweep of such a group, taken for all its members
at once, so ``lockstep_sweeps`` counts what the group's
kernel calls cost, and is 0 where every march is a ``run``.
``harder_grid`` is the harder grid of ``tests/test_acceptance.py`` (the
smoke problem to t = 0.4 over HARDER_GRID) as one ``sweep``, which exits 0
only when all 12 cells certify.  A step is one output level, and its
sweeps are those of all its substeps.  These counts are exact and repeat
on every host; ``wall_s``, the wall time of the one command, does not.

This script times nothing else.  Layer times from two runs cannot be
compared, because the host drifts more between runs than most changes move
a layer; ``scripts/bench_ab.py`` times two revisions side by side in one
process instead, on the calls of ``layer_table``: each layer of a step on
a fixed smoke-physics state at n = 100, 400 and 1000 (the march of
``configs/smoke.json`` over STATE_STEPS steps, with snapshots every
SNAPSHOT_CADENCE).  The coefficient freeze and both assemblies take the
march's last step, with its last state as the iterate; the solve takes the
assembled vapor system; ``predicted_start`` extrapolates the march's last
PREDICTOR_STATES states; ``step_record_per_level`` is one ``step_record``
call on a block of as many levels as ``run`` folds at once, each holding
the record of a converged ``picard_step`` from the last state;
``certify_run`` and the ``series.csv`` and ``snapshots.csv`` writers take
the whole march.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import sys
import tempfile
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from poromoist import cli, stepper  # noqa: E402
from poromoist.config import apply_override  # noqa: E402

SIZES = (100, 400, 1000)
STATE_STEPS = 50
SNAPSHOT_CADENCE = 0.01
# The states run keeps for the predicted start; a predictor that reads
# fewer takes the newest of them.
PREDICTOR_STATES = 8

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


def layer_table(n: int, out: str, package: str = "poromoist") -> dict:
    """Every layer's call on the smoke state at n cells.

    Returns a dict from each layer's name to a function of no arguments that
    makes one call; one step_record_per_level call folds a block of as many
    levels as run does at n.  The state, the inputs and the calls all come
    from the named package, so a second copy of the package loaded under
    another name (see scripts/bench_ab.py) gets a table of its own.  The CSV
    writers write into out.
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
    dt = setup.step.dt
    result = stepper.run(setup, stepper.mollified_initial_data(setup))
    prev = stepper.State(result.rho[-2], result.theta[-2], result.t[-2])
    rho, theta = result.rho[-1], result.theta[-1]

    rho_sys, coeffs = stepper.assemble_rho_system(prev, rho, theta, setup, dt)
    rho_new = linalg.solve_thomas(rho_sys)
    _, record = stepper.picard_step(prev, setup, dt, start=(rho, theta))
    block = max(1, stepper._STEP_BLOCK_CELLS // n)
    levels = [(record,)] * block
    columns = diagnostics.start_series(block, prev, setup)
    history = np.hstack((result.rho[-PREDICTOR_STATES:],
                         result.theta[-PREDICTOR_STATES:]))
    series_path = os.path.join(out, "series.csv")
    snapshots_path = os.path.join(out, "snapshots.csv")
    return {
        "compute_flux_coefficients": lambda: stepper.compute_flux_coefficients(
            rho, theta, setup),
        "assemble_rho_system": lambda: stepper.assemble_rho_system(
            prev, rho, theta, setup, dt),
        "assemble_theta_system": lambda: stepper.assemble_theta_system(
            prev, rho_new, theta, setup, dt, coeffs),
        "solve_thomas": lambda: linalg.solve_thomas(rho_sys),
        "predicted_start": lambda: stepper._predicted_start(history,
                                                            setup.step.picard_tol),
        "step_record_per_level": lambda: diagnostics.step_record(
            columns, 1, levels, setup),
        "certify_run": lambda: diagnostics.certify_run(result),
        "write_series_csv": lambda: cli._write_series(series_path, result),
        "write_snapshots_csv": lambda: cli._write_snapshots(snapshots_path, result,
                                                            SNAPSHOT_CADENCE),
    }


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

    stepper.march, whose march of one is stepper.run, looks step_record up
    in its module for each block of levels, so a wrapper there sees each
    step of every member the command marches, with one record per
    substep.  A wrapper on assemble_rho_system counts the lockstep sweeps:
    those whose iterate has a member axis.
    """
    counts = Counter()
    split = []
    lockstep = []
    record, assemble = stepper.step_record, stepper.assemble_rho_system

    def counted(series, first, levels, setup):
        for records in levels:
            counts[sum(substep.sweeps for substep in records)] += 1
            split.append(len(records) > 1)
        return record(series, first, levels, setup)

    def assembled(prev, rho_it, *args, **kwargs):
        lockstep.append(rho_it.ndim > 1)
        return assemble(prev, rho_it, *args, **kwargs)

    stepper.step_record, stepper.assemble_rho_system = counted, assembled
    try:
        start = time.perf_counter()
        code = cli.main([command, os.path.join(ROOT, config), "--out", out, "--quiet"])
        wall = time.perf_counter() - start
    finally:
        stepper.step_record, stepper.assemble_rho_system = record, assemble
    steps = sum(counts.values())
    sweeps = sum(k * count for k, count in counts.items())
    return {
        "exit": code,
        "steps": steps,
        "sweeps": sweeps,
        "sweeps_per_step": sweeps / steps if steps else 0.0,
        "first_sweep_steps": counts[1],
        "split_steps": sum(split),
        "lockstep_sweeps": sum(lockstep),
        "steps_by_sweeps": sorted(counts.items()),
        "wall_s": wall,
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
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
        "sweeps": sweeps,
    }
    path = os.path.join(ROOT, "BENCH_layers.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, case in sweeps.items():
        print(f"{name}: exit {case['exit']}, {case['sweeps']} sweeps over "
              f"{case['steps']} steps, {case['first_sweep_steps']} on the first, "
              f"{case['split_steps']} split, {case['lockstep_sweeps']} in lockstep")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
