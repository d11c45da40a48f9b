"""Every span target of the benchmark's tracer names a function of the package."""
from __future__ import annotations

import importlib
import importlib.util

import pytest

from tests.conftest import REPO_ROOT


def trace_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_traced", REPO_ROOT / "perfbench" / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,func_name", trace_targets())
def test_trace_target_resolves(module_name, func_name):
    module = importlib.import_module(f"poromoist.{module_name}")
    assert callable(getattr(module, func_name, None)), f"poromoist.{module_name}.{func_name}"
