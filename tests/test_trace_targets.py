"""The names the benchmark reads from the package resolve: every span target
of its tracer names a function, its setup probe builds every config it
times, its variant builder finds the config functions it imports, and every
certification key it reads is a field of the report."""
from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from poromoist import config
from poromoist.diagnostics import CertificationReport, certify_run
from tests.conftest import REPO_ROOT

BENCH_CONFIGS = ["configs/smoke.json"] + sorted(
    f"perfbench/configs/{path.name}"
    for path in (REPO_ROOT / "perfbench" / "configs").glob("*.json"))


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,func_name", perfbench_module("traced").TARGETS)
def test_trace_target_resolves(module_name, func_name):
    module = importlib.import_module(f"poromoist.{module_name}")
    assert callable(getattr(module, func_name, None)), f"poromoist.{module_name}.{func_name}"


def bench_run(monkeypatch):
    """perfbench/run.py as a module; sys.path is restored after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    # run.py imports traced.py as a top-level module
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    return perfbench_module("run")


@pytest.mark.parametrize("name", BENCH_CONFIGS)
def test_setup_probe_builds_each_bench_config(monkeypatch, name):
    # SETUP_PROBE, the text setup_s times, imports poromoist.cli and calls
    # cli.build_setup(cli.load_config(path)); it prints the import time.
    probe = bench_run(monkeypatch).SETUP_PROBE
    proc = subprocess.run([sys.executable, "-c", probe, str(REPO_ROOT / name)],
                          env={**os.environ, "PYTHONPATH": "src"}, cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[0]) > 0


def test_variant_builder_imports_resolve(monkeypatch):
    # The variant builder imports apply_override and validate_config.
    apply_override, validate_config = bench_run(monkeypatch).import_validator()
    assert apply_override is config.apply_override
    assert validate_config is config.validate_config


def test_benchmark_reads_certification_keys(monkeypatch, smoke_result):
    bench = bench_run(monkeypatch)
    # run reads certification.passed, each sweep cell its SWEEP_FIELDS
    read = ("passed", *bench.SWEEP_FIELDS)
    names = {field.name for field in fields(CertificationReport)}
    summary = certify_run(smoke_result).summary()
    for key in read:
        assert key in names and key in summary, key
