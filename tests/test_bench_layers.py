"""scripts/bench_layers.py drives the stepper's public API as the package defines it."""
from __future__ import annotations

import importlib.util
import itertools
import json
import sys

from poromoist.config import apply_override, build_setup, load_config

from tests.conftest import REPO_ROOT


def load_bench(monkeypatch):
    # the script may put src on sys.path when loaded; the patch undoes that
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_layers", REPO_ROOT / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layers_builds_every_layer_and_counts_smoke_sweeps(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    written = REPO_ROOT / "BENCH_layers.json"
    before = written.read_bytes()

    layers = bench.layer_table(16, str(tmp_path))
    assert set(layers) == {
        "compute_flux_coefficients", "assemble_rho_system", "assemble_theta_system",
        "solve_thomas", "predicted_start", "step_record_per_level", "certify_run",
        "write_series_csv", "write_snapshots_csv"}
    for call in layers.values():
        call()
    assert (tmp_path / "series.csv").exists() and (tmp_path / "snapshots.csv").exists()

    counts = bench.sweep_counts("run", "configs/smoke.json", str(tmp_path / "smoke"))
    assert counts["exit"] == 0
    assert counts["steps"] == 1000
    assert counts["sweeps"] == 1081
    assert counts["first_sweep_steps"] == 957
    assert counts["split_steps"] == 0
    assert counts["lockstep_sweeps"] == 0
    assert written.read_bytes() == before

    # The committed file holds the host and the exact counts, and no times
    # but each command's wall_s; its smoke counts are today's.
    data = json.loads(before)
    assert set(data) == {"host", "sweeps"}
    assert list(data["sweeps"]) == [name for name, _ in bench.SWEEP_CASES] + ["harder_grid"]
    assert all(set(case) == set(counts) for case in data["sweeps"].values())
    committed = data["sweeps"]["run_smoke"]
    assert {key: committed[key] for key in ("exit", "steps", "sweeps", "first_sweep_steps",
                                            "split_steps", "lockstep_sweeps")} == {
        key: counts[key] for key in ("exit", "steps", "sweeps", "first_sweep_steps",
                                     "split_steps", "lockstep_sweeps")}


def test_harder_grid_config_is_the_acceptance_grid(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    data = load_config(bench.harder_grid_config(str(tmp_path)))
    assert data["physical"]["t_end"] == data["output"]["cadence"] == 0.4
    axes = data["sweep"]["axes"]
    assert axes == {"stepping.dt": [0.04, 0.08], "physical.lambda": [60.0, 120.0, 250.0],
                    "initial.theta.value": [1.0, 1.3]}
    for dt, lam, theta0 in itertools.product(*axes.values()):
        cell = data
        for path, value in zip(axes, (dt, lam, theta0)):
            cell = apply_override(cell, path, value)
        assert build_setup(cell).step.dt == dt
