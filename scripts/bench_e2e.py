"""Run the end-to-end benchmark on every workload and keep the spread of its metrics.

Usage, from anywhere:

    python3 scripts/bench_e2e.py

Runs ``perfbench/run.py --trace 0`` once for each workload of
``BENCHMARK.json`` and each seed of SEEDS, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json`` as ``--seconds``.  Each run prints
its result as one JSON object on its last line.  Writes
``BENCH_e2e.json`` at the repository root, with the host, Python and numpy
versions.  For each workload and each end-to-end metric (``wall_per_gauge``,
``setup_s`` and ``peak_rss_mb``) it holds the median and the quartiles
over the seeds' values and the values themselves, in seed order, and the
failed invocations: every seed whose run exited nonzero, printed no
result or counted a failed invocation, with its exit code and its
``failed`` and ``attempted`` counts.  A whole pass takes about
len(SEEDS) x 4 x run_seconds.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = (0, 1, 2, 3, 4)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float) -> tuple[int, dict | None]:
    """One perfbench run: its exit code and the JSON object of its last line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result if isinstance(result, dict) else None


def spread(values: list) -> dict:
    """Median and quartiles (linear interpolation) of the values, which are kept."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "values": []}
    q1, median, q3 = np.percentile(values, (25, 50, 75))
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "values": values}


def workload_summary(workload: str, metrics: list, seconds: float) -> dict:
    """Run the workload once per seed and summarize its end-to-end metrics."""
    values = {name: [] for name in metrics}
    failed = []
    for seed in SEEDS:
        code, result = run_workload(workload, seed, seconds)
        counts = result or {}
        if code != 0 or result is None or counts.get("failed", 0):
            failed.append({"seed": seed, "exit": code, "failed": counts.get("failed"),
                           "attempted": counts.get("attempted")})
        for name in metrics:
            value = counts.get("metrics", {}).get(name, {}).get("value")
            if value is not None:
                values[name].append(value)
        print(f"{workload} seed {seed}: exit {code}, " + ", ".join(
            f"{name} {values[name][-1]:.4g}" for name in metrics if values[name]))
    return {**{name: spread(values[name]) for name in metrics}, "failed": failed}


def main() -> int:
    spec = load_benchmark()
    seconds = spec["run_seconds"]
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    workloads = {workload["name"]: workload_summary(workload["name"], metrics, seconds)
                 for workload in spec["workloads"]}
    payload = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "command": (f"perfbench/run.py --workload W --seed S --seconds {seconds} "
                    "--trace 0"),
        "seeds": list(SEEDS),
        "statistics": "median and quartiles (linear interpolation) over the seeds",
        "workloads": workloads,
    }
    path = os.path.join(ROOT, "BENCH_e2e.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, summary in workloads.items():
        print(f"{name}: " + ", ".join(f"{metric} {summary[metric]['median']}"
                                      for metric in metrics)
              + f", {len(summary['failed'])} failed")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
