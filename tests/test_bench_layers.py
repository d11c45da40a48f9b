"""scripts/bench_layers.py drives the stepper's public API as the package defines it."""
from __future__ import annotations

import importlib.util
import sys

from tests.conftest import REPO_ROOT


def load_bench(monkeypatch, name="bench_layers"):
    # the script may put src on sys.path when loaded; the patch undoes that
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_layers_times_every_layer_and_counts_smoke_sweeps(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    timed = []

    def one_call(fn):
        fn()
        timed.append(fn)
        return 0.0

    monkeypatch.setattr(bench, "best_seconds", one_call)
    written = REPO_ROOT / "BENCH_layers.json"
    before = written.read_bytes() if written.exists() else None

    layers = bench.layer_costs(16, str(tmp_path))
    assert set(layers) == {
        "compute_flux_coefficients", "assemble_rho_system", "assemble_theta_system",
        "solve_thomas", "predicted_start", "step_record_per_level", "certify_run",
        "write_series_csv", "write_snapshots_csv"}
    assert len(timed) == len(layers)
    assert (tmp_path / "series.csv").exists() and (tmp_path / "snapshots.csv").exists()

    counts = bench.sweep_counts("run", "configs/smoke.json", str(tmp_path / "smoke"))
    assert counts["exit"] == 0
    assert counts["steps"] == 1000
    assert counts["sweeps"] == 1198
    assert counts["first_sweep_steps"] == 874
    assert counts["split_steps"] == 0
    assert (written.read_bytes() if written.exists() else None) == before
