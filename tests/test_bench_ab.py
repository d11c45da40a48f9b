"""scripts/bench_ab.py times two copies of the package side by side and writes paired ratios."""
from __future__ import annotations

import json
import subprocess
import sys

from tests.conftest import REPO_ROOT


def test_bench_ab_writes_paired_ratios_of_one_case(tmp_path):
    # The working tree stands in for the parent, so no time is checked.
    out = tmp_path / "BENCH_ab.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_ab.py"),
         "--parent-src", "src/poromoist",
         "--case", "solve_thomas/100", "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert set(data) == {"revisions", "host", "rounds", "timing", "cases"}
    assert data["revisions"]["parent"] == "src/poromoist"
    assert data["revisions"]["change"]
    assert {"python", "numpy", "cpus"} <= set(data["host"])
    assert data["rounds"] == 10
    assert list(data["cases"]) == ["solve_thomas/100"]
    case = data["cases"]["solve_thomas/100"]
    assert set(case) == {"calls_per_timing", "ratios", "ratio", "change_s", "parent_s"}
    assert case["calls_per_timing"] >= 1
    assert len(case["ratios"]) == 10 and all(r > 0 for r in case["ratios"])
    ratio = case["ratio"]
    assert set(ratio) == {"median", "q1", "q3"}
    assert ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert case["change_s"] > 0 and case["parent_s"] > 0


def test_bench_ab_rejects_an_unknown_case(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_ab.py"),
         "--parent-src", "src/poromoist", "--case", "no_such_case",
         "--out", str(tmp_path / "BENCH_ab.json")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2 and "unknown cases: ['no_such_case']" in proc.stderr
    assert not (tmp_path / "BENCH_ab.json").exists()
