"""scripts/code_size.py counts code lines without docstrings, comments or blanks."""
from __future__ import annotations

import importlib.util
import sys

import pytest

from tests.conftest import REPO_ROOT

SAMPLE = '''"""Module docstring,
over two lines."""

import dataclasses
from dataclasses import dataclass

# a comment line


@dataclass
class Plain:
    """Class docstring."""

    x: int = 1  # code with a trailing comment


@dataclass(frozen=True)
class Frozen:
    y: int


@dataclasses.dataclass
class Prefixed:
    z: int


class NotOne:
    pass


def f(a,
      b):
    """Function docstring,

    over three lines.
    """
    text = """a string
that is data"""
    "a later string is code"
    return a + b
'''


@pytest.fixture
def code_size(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "code_size", REPO_ROOT / "scripts" / "code_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_and_dataclasses_of_a_sample(code_size):
    # imports 2, Plain 3, Frozen 3, Prefixed 3, NotOne 2, f 2 + text 2 +
    # the later string 1 + return 1
    assert code_size.measure(SAMPLE) == (19, 3)


def test_prints_each_module_and_the_total(code_size, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("# only a comment\n\nx = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_size.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["a.py", "1"], ["b.py", "19"],
                                                     ["total", "20"]]
    assert lines[-1].split()[-2] == "3"
