"""scripts/compare_outputs.py reports every difference between two golden trees."""
from __future__ import annotations

import importlib.util
import json
import shutil
import sys

import pytest

from tests.conftest import REPO_ROOT


@pytest.fixture
def compare_outputs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO_ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(tmp_path):
    # A small golden tree of each kind of file, and an identical copy.
    parent = tmp_path / "parent"
    (parent / "run_smoke").mkdir(parents=True)
    (parent / "mms").mkdir()
    (parent / "run_smoke" / "series.csv").write_text("t,total_mass\n0,2.5\n0.1,2.25\n")
    (parent / "run_smoke" / "report.json").write_text(json.dumps(
        {"passed": True, "checks": {"mass": 1e-12}, "orders": [2.0, 1.98]}))
    (parent / "mms" / "console.txt").write_text("exit 0\nrho order 2.0025\n")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    return parent, change


def test_identical_trees_read_all_zeros(compare_outputs, trees, capsys):
    report = compare_outputs.compare(*trees)
    assert report == {"mms/console.txt": (0.0, []), "run_smoke/report.json": (0.0, []),
                      "run_smoke/series.csv": (0.0, [])}
    assert compare_outputs.main([str(tree) for tree in trees]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "mms/console.txt: max rel 0", "run_smoke/report.json: max rel 0",
        "run_smoke/series.csv: max rel 0"]


def test_perturbed_number_is_reported_in_its_file(compare_outputs, trees, capsys):
    parent, change = trees
    (change / "run_smoke" / "series.csv").write_text("t,total_mass\n0,2.5\n0.1,2.2500001\n")
    (change / "run_smoke" / "report.json").write_text(json.dumps(
        {"passed": True, "checks": {"mass": 3e-12}, "orders": [2.0, 1.98]}))
    (change / "extra.txt").write_text("")
    report = compare_outputs.compare(parent, change)
    gap, texts = report["run_smoke/series.csv"]
    assert gap == pytest.approx(1e-7 / 2.25) and texts == []
    gap, texts = report["run_smoke/report.json"]
    assert gap == pytest.approx(2e-12) and texts == []
    assert report["mms/console.txt"] == (0.0, [])
    assert report["extra.txt"] == "only in CHANGE"
    compare_outputs.main([str(parent), str(change)])
    out = capsys.readouterr().out
    assert "run_smoke/series.csv: max rel 4.44e-08\n" in out
    assert "extra.txt: only in CHANGE\n" in out


def test_changed_word_is_a_text_difference(compare_outputs, trees):
    parent, change = trees
    (change / "mms" / "console.txt").write_text("exit 1\nrho order 2.0025\n")
    (change / "run_smoke" / "report.json").write_text(json.dumps(
        {"passed": False, "checks": {"mass": 1e-12}, "orders": [2.0, 1.98]}))
    (change / "run_smoke" / "series.csv").write_text("t,total_energy\n0,2.5\n0.1,2.25\n")
    report = compare_outputs.compare(parent, change)
    assert report["mms/console.txt"] == (0.0, ["line 1: 'exit 0' != 'exit 1'"])
    assert report["run_smoke/report.json"] == (0.0, [".passed: true != false"])
    assert report["run_smoke/series.csv"] == (
        0.0, ["row 1 cell 2: 'total_mass' != 'total_energy'"])
