"""The names the benchmark reads from the package resolve: every span target
of its tracer names a function, and every certification key it reads is a
field of the report."""
from __future__ import annotations

import importlib
import importlib.util
from dataclasses import fields

import pytest

from poromoist.diagnostics import CertificationReport, certify_run
from tests.conftest import REPO_ROOT


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


def test_benchmark_reads_certification_keys(monkeypatch, smoke_result):
    # run.py imports traced.py as a top-level module
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    bench = perfbench_module("run")
    # run reads certification.passed, each sweep cell its SWEEP_FIELDS
    read = ("passed", *bench.SWEEP_FIELDS)
    names = {field.name for field in fields(CertificationReport)}
    summary = certify_run(smoke_result).summary()
    for key in read:
        assert key in names and key in summary, key
