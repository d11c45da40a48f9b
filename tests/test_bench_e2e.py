"""scripts/bench_e2e.py summarizes the benchmark's runs as BENCHMARK.json declares them."""
from __future__ import annotations

import json
import shutil

from tests.conftest import REPO_ROOT
from tests.test_bench_layers import load_bench


def stub_result(seed, failed=0):
    values = {"wall_per_gauge": 1.0 + seed, "setup_s": 0.25 + seed / 8,
              "peak_rss_mb": 32.0 + seed}
    return {"correct": not failed, "attempted": 4, "failed": failed,
            "metrics": {name: {"value": value, "unit": "?"}
                        for name, value in values.items()}}


def test_bench_e2e_writes_the_spread_and_the_failures(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch, "bench_e2e")
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "SEEDS", (0, 1, 2, 3, 4))
    calls = []

    def stub(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        if workload == "fine" and seed == 2:
            return 2, None              # the benchmark could not run
        if workload == "stiff" and seed == 0:
            return 1, stub_result(seed, failed=1)
        return 0, stub_result(seed)

    monkeypatch.setattr(bench, "run_workload", stub)
    assert bench.main() == 0
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    assert calls == [(name, seed, spec["run_seconds"]) for name in names
                     for seed in range(5)]

    payload = json.loads((tmp_path / "BENCH_e2e.json").read_text())
    assert set(payload["host"]) == {"platform", "machine", "cpus", "python", "numpy"}
    assert payload["seeds"] == [0, 1, 2, 3, 4]
    workloads = payload["workloads"]
    assert list(workloads) == names
    smoke = workloads["smoke"]
    assert set(smoke) == {"wall_per_gauge", "setup_s", "peak_rss_mb", "failed"}
    assert smoke["wall_per_gauge"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                       "values": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert smoke["setup_s"]["median"] == 0.5
    assert smoke["peak_rss_mb"]["q3"] == 35.0
    assert smoke["failed"] == []
    # a run without a result adds no value and is a failed invocation
    fine = workloads["fine"]
    assert fine["wall_per_gauge"]["values"] == [1.0, 2.0, 4.0, 5.0]
    assert fine["wall_per_gauge"]["median"] == 3.0
    assert fine["failed"] == [{"seed": 2, "exit": 2, "failed": None, "attempted": None}]
    # a run with a failed invocation keeps its values and is listed
    stiff = workloads["stiff"]
    assert stiff["wall_per_gauge"]["values"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stiff["failed"] == [{"seed": 0, "exit": 1, "failed": 1, "attempted": 4}]


def test_bench_e2e_reads_the_last_line(monkeypatch):
    bench = load_bench(monkeypatch, "bench_e2e")

    class Done:
        returncode = 0
        stdout = 'workload smoke\nmetric wall_per_gauge 3 ratio\n{"failed": 0}\n'

    seen = []
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda argv, **kwargs: seen.append(argv) or Done())
    assert bench.run_workload("smoke", 3, 25) == (0, {"failed": 0})
    assert seen[0][1:] == ["perfbench/run.py", "--workload", "smoke", "--seed", "3",
                           "--seconds", "25", "--trace", "0"]
    Done.stdout = "benchmark error\n"
    assert bench.run_workload("smoke", 3, 25) == (0, None)
