"""Every name in a poromoist module's __all__ resolves in that module."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import poromoist


def exports():
    modules = ["poromoist"] + [f"poromoist.{info.name}"
                               for info in pkgutil.iter_modules(poromoist.__path__)]
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            yield module_name, name


@pytest.mark.parametrize("module_name,name", exports())
def test_export_resolves(module_name, name):
    module = importlib.import_module(module_name)
    assert hasattr(module, name), f"{module_name}.{name}"
