"""Run the benchmark on several seeds and report how steady each metric is.

Usage, from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1] [--out FILE]
                                    [--against EARLIER_FILE]

Reads the workloads, run length, metrics and bounds from BENCHMARK.json
and runs ``perfbench/run.py --trace 0`` once per workload and seed, one
process at a time, cycling through the workloads for each seed.  For each
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound.  The same statistics of the raw
invocation wall time (wall_s, which run.py prints but does not report
with --trace 0) are printed and recorded without a bound, to show the
host drift that wall_per_gauge cancels.  With ``--against`` each median
is compared with the one recorded in EARLIER_FILE, a file written by
``--out`` from another set of runs.  With ``--out`` it also runs each
workload with ``--trace 1`` on two seeds that both give the shipped
inputs, checks that every exact count repeats, and writes everything,
with the environment, to FILE as JSON.  Exits 1 when a run fails a
check, a median differs from the earlier one by more than its bound, a
count does not repeat, or a spread other than that of setup_s exceeds
its bound.  setup_s is the one bounded time in raw seconds: its unit is
fixed, so it cannot be divided by the gauge as wall_per_gauge is, and
its spread follows the host's drift between runs (the raw wall_s spread
of the same runs shows how far).  Its spread is printed and recorded but
not gated; the shift of its median between two sets is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and every metric printed on a ``metric`` line."""
    argv = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=bench.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, _ = line.split()
            printed[name] = float(value)
    return json.loads(lines[-1]), printed


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)

    spec = bench.load_benchmark()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    raw_walls = {w: [] for w in workloads}
    totals = {w: {"attempted": 0, "failed": 0, "correct": True} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result, printed = run_once(workload, seed, seconds, 0)
            raw_walls[workload].append(printed["wall_s"])
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            totals[workload]["attempted"] += result["attempted"]
            totals[workload]["failed"] += result["failed"]
            totals[workload]["correct"] &= result["correct"]
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                  + f", wall_s {printed['wall_s']:.4g}", flush=True)

    report = {"environment": bench.environment(), "run_seconds": seconds,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    steady = True
    for workload in workloads:
        steady &= totals[workload]["correct"]
        entry = {**totals[workload], "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = spread(values[workload][name])
            stats["bound"] = bound
            notes = [] if stats["spread"] < bound / 3 else ["above a third of the bound"]
            if name != "setup_s":
                steady &= stats["spread"] <= bound
            if earlier is not None:
                before = earlier["workloads"][workload]["metrics"][name]["median"]
                stats["earlier_median"] = before
                stats["change"] = stats["median"] / before - 1.0
                steady &= abs(stats["change"]) <= bound
                notes.append(f"median {stats['change']:+.3f} against the earlier set")
            entry["metrics"][name] = stats
            print(f"{workload:8s} {name:17s} median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.3f} "
                  f"bound {bound}" + "".join(f"  ({note})" for note in notes))
        entry["raw_wall_s"] = spread(raw_walls[workload])
        print(f"{workload:8s} {'wall_s (no bound)':17s} median "
              f"{entry['raw_wall_s']['median']:.5g} spread {entry['raw_wall_s']['spread']:.3f}")
        report["workloads"][workload] = entry

    if args.out:
        # Seeds 0 and len(VARIANTS) both give the shipped inputs, so every
        # exact count must repeat between the two traced runs.
        for workload in workloads:
            traces = [run_once(workload, seed, seconds, 1)[0]["metrics"]
                      for seed in (0, len(bench.VARIANTS))]
            counts = [{k: v["value"] for k, v in t.items() if v["unit"] == "count"}
                      for t in traces]
            steady &= counts[0] == counts[1]
            print(f"{workload:8s} exact counts {counts[0]}, repeat: {counts[0] == counts[1]}")
            report["workloads"][workload]["trace_seed0"] = {
                k: v["value"] for k, v in traces[0].items()}
            report["workloads"][workload]["counts_repeat"] = counts[0] == counts[1]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
