"""Benchmark for poromoist: four workloads through the real CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload smoke --seed 3 --seconds 25 --trace 0

Every workload runs ``python -m poromoist.cli`` in child processes with
``PYTHONPATH=src`` and one BLAS/OpenMP thread, one command at a time.
Each invocation is checked: exit code 0, a passing verdict in
``report.json``, and outputs that match the stored reference of the input
variant within REF_FACTOR times the run's ``picard_tol``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* wall_per_gauge: median over the run's invocations of the invocation's
  wall time (spawn to exit of each command) in units of the gauge, a fixed
  pure-Python loop timed right before and after each command.  The host's
  speed drifts by 50% and more over minutes on a shared 2-core VM; the
  ratio cancels most of that drift, the raw wall time does not;
* setup_s: median wall time of fresh processes that import
  ``poromoist.cli`` and run ``load_config`` and ``build_setup`` on a
  workload config, PROBES_PER_ROUND probes per invocation and at least
  SETUP_PROBES;
* peak_rss_mb: median over invocations of the largest peak resident
  memory among the invocation's commands.

Failed invocations are counted in the result's ``failed`` against
``attempted`` and printed as fail_ratio.  The raw median wall time
(wall_s), cell steps per second over it and the gauge (host.gauge_s) are
printed too and reported with the per-layer metrics.

``--trace 1`` alternates untraced invocations with invocations through
``perfbench/traced.py``, which records spans around each layer's public
functions, and reports, from the traced invocation of median wall time,
each layer's self time, the exact counts, per-step times of
``homotopy_solve``, the remainder of the traced wall time outside every
span (interpreter start, imports, exit) and the tracing overhead (median
traced minus median untraced wall time).  The metric names and units in
the last line are the ones listed in BENCHMARK.json.  Every metric is also
printed on a ``metric NAME VALUE UNIT`` line, the self times of
``harness.*`` and ``model.darcy_velocity`` among them: their spans never
open on some workloads (the harness runs only in studies, the snapshot
velocity only in run), where they read exactly 0 on every run, so they
are printed but left out of the per-layer metrics of BENCHMARK.json.

The seed picks one of the input VARIANTS (seed modulo their number); the
program receives only the generated config files.  Outputs go to a
temporary directory under ``.bench_tmp`` in the repository root, which is
removed at exit.  The last line of standard output is one JSON object;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

from traced import TARGETS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

# Why each workload exists, and which layer it stresses.  Sizes were chosen
# on a 2-core machine so that one invocation takes about 2 s (6 s for
# studies) and no operation fails for any variant.
WORKLOADS = {
    "smoke": {
        "why": "shipped smoke run, n=100 and 1000 steps at about 4 sweeps each: "
               "per-sweep Python overhead and per-step diagnostics dominate, "
               "the mollifier is the identity and the solve is a quarter of the time",
        "commands": (("run", "configs/smoke.json"),),
    },
    "fine": {
        "why": "smoke physics at n=1000 for 200 steps with 21 snapshots: the "
               "pure-Python Thomas solve is half the time and the mollifier is a "
               "19-point convolution, so solver and kernel changes show here",
        "commands": (("run", "perfbench/configs/fine.json"),),
    },
    "stiff": {
        "why": "lambda=30, uniform theta0=1.3, dt=0.01: about 18 sweeps per step "
               "(35 at most against a budget of 50), so sweep count dominates; "
               "kept away from the homotopy-ramp cliff so every variant certifies",
        "commands": (("run", "perfbench/configs/stiff.json"),),
    },
    "studies": {
        "why": "mms, ladder and sweep back to back: the forcing path with the "
               "central scheme, wide mollifier kernels, and one build_setup plus "
               "certify_run per sweep cell.  ladder and sweep use their shipped "
               "configs; mms stops at n=128, because the shipped n=256 level alone "
               "takes 10 s and would leave room for only two invocations per run",
        "commands": (("mms", "perfbench/configs/mms.json"),
                     ("ladder", "configs/ladder.json"),
                     ("sweep", "configs/sweep.json")),
    },
}

# Input variants: (bump center, bump amplitude, uniform theta0 of stiff).
# Variant 0 is the shipped input.  The others stay in a range where every
# workload certifies and the sweep counts move by a few percent at most.
VARIANTS = (
    (0.50, 1.00, 1.30),
    (0.49, 1.03, 1.31),
    (0.51, 0.97, 1.29),
    (0.48, 1.02, 1.30),
    (0.52, 0.98, 1.31),
    (0.50, 1.05, 1.29),
    (0.49, 0.95, 1.32),
    (0.51, 1.01, 1.28),
)

# Outputs must match the reference within REF_FACTOR * picard_tol,
# relative to max(1, |reference|).  Picard stops once the relative update
# falls below picard_tol, so an accepted iterate sits within about
# picard_tol * q / (1 - q) of the step's fixed point, q being the sweep
# contraction (0.3 on stiff); a solver that iterates differently may move
# the trajectory by that much per step, a few hundred steps in all.
REF_FACTOR = 1e3
# mms_study runs with its own picard_tol; the config's stepping section is not used.
MMS_PICARD_TOL = 1e-12
# series.csv columns compared at every snapshot time of a run; with the
# final state they cover the transient as well as the end state, which by
# t_end is close to equilibrium and hides changes to the transport terms.
SERIES_FIELDS = ("total_mass", "mass_energy", "entropy", "min_rho", "min_theta",
                 "max_theta", "l4_accumulator")
# Fields of each sweep cell's certification compared against the reference.
# The mass residual sits at roundoff and is checked by the verdict instead.
SWEEP_FIELDS = ("min_rho", "min_theta", "max_entropy", "entropy_dissipation",
                "max_energy_residual")

SETUP_PROBES = 11
PROBES_PER_ROUND = 2
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import poromoist.cli as cli\n"
    "print(time.perf_counter() - t0)\n"
    "cli.build_setup(cli.load_config(sys.argv[1]))\n"
)
CHILD_TIMEOUT_S = 90
GAUGE_REPS = 2000


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list, log_path: str) -> tuple[float, float, int]:
    """Run one child to completion; return (wall seconds, peak RSS in MB, exit code).

    A child still running after CHILD_TIMEOUT_S is killed and reported by
    its negative exit code.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or commit
    versions = {}
    for package in ("numpy", "jsonschema"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit}


def load_benchmark() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def import_validator():
    """poromoist.config.validate_config from the checkout under test."""
    if not os.path.isfile(os.path.join(ROOT, "src", "poromoist", "cli.py")):
        raise BenchError(f"no poromoist sources under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from poromoist.config import apply_override, validate_config
    return apply_override, validate_config


def prepare(workload: str, variant: int, tmp: str) -> list:
    """Write the workload's configs for one variant; return its commands."""
    apply_override, validate_config = import_validator()
    center, amplitude, theta0 = VARIANTS[variant]
    commands = []
    for command, rel_path in WORKLOADS[workload]["commands"]:
        path = os.path.join(ROOT, rel_path)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BenchError(f"cannot read workload config {path}: {exc}") from exc
        data["initial"]["rho"].update(center=center, amplitude=amplitude)
        if workload == "stiff":
            data["initial"]["theta"]["value"] = theta0
        validate_config(data)
        config_path = os.path.join(tmp, f"{command}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        picard_tol = (MMS_PICARD_TOL if command == "mms"
                      else data["stepping"]["picard_tol"])
        commands.append({"command": command, "config": config_path,
                         "cell_steps": cell_steps(command, data, apply_override),
                         "tol": REF_FACTOR * picard_tol})
    return commands


def _steps(t_end: float, dt: float) -> int:
    return int(round(t_end / dt))


def cell_steps(command: str, data: dict, apply_override) -> int:
    """Sum of n * steps over every run the command marches."""
    n, dt = data["grid"]["n"], data["stepping"]["dt"]
    if command == "run":
        return n * _steps(data["physical"]["t_end"], dt)
    if command == "ladder":
        opts = data["ladder"]
        return opts["rungs"] * n * _steps(opts["t_end"], dt)
    if command == "mms":
        opts = data["mms"]
        sizes = opts["grid_sizes"]
        power = 2 if opts["advection"] == "central" else 1
        return sum(m * opts["steps_coarse"] * (m // sizes[0]) ** power for m in sizes)
    axes = data["sweep"]["axes"]
    total = 0
    for combo in itertools.product(*(axes[k] for k in sorted(axes))):
        cell = data
        for key, value in zip(sorted(axes), combo):
            cell = apply_override(cell, key, value)
        total += cell_steps("run", cell, apply_override)
    return total


def extract(command: str, out: str) -> tuple[dict, int | None]:
    """The outputs compared against the reference, and the untraced sweep count."""
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if command == "run":
        with open(os.path.join(out, "snapshots.csv"), newline="", encoding="utf-8") as fh:
            snapshots = list(csv.reader(fh))[1:]
        with open(os.path.join(out, "series.csv"), newline="", encoding="utf-8") as fh:
            series = list(csv.DictReader(fh))
        final = snapshots[-report["n"]:]
        values = {"rho": [float(r[2]) for r in final],
                  "theta": [float(r[3]) for r in final]}
        times = {r[0] for r in snapshots}
        at_snapshots = [row for row in series if row["t"] in times]
        for field in SERIES_FIELDS:
            values[field] = [float(row[field]) for row in at_snapshots]
        return values, report["picard_total"]
    if command == "mms":
        return {k: report[k] for k in ("rho_errors", "theta_errors")}, None
    if command == "ladder":
        return {k: report[k] for k in ("differences", "entropy_monitors",
                                       "l4_monitors")}, None
    certs = [cell["certification"] or {} for cell in report["cells"]]
    return {k: [c.get(k, math.nan) for c in certs] for k in SWEEP_FIELDS}, None


def verdict(command: str, out: str) -> bool:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if command == "run":
        return report["certification"]["passed"] is True
    return report["passed"] is True


def compare(values: dict, reference: dict, tol: float) -> str | None:
    for key, expected in reference.items():
        got = values.get(key)
        if got is None or len(got) != len(expected):
            return f"{key}: {len(got or [])} values, reference has {len(expected)}"
        worst = max((abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, expected)),
                    default=0.0)
        if not worst <= tol:
            return f"{key} misses the reference by {worst:.3e} (tolerance {tol:.1e})"
    return None


def load_references(workload: str) -> list | None:
    path = os.path.join(HERE, "references", f"{workload}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["variants"]


def invoke(commands: list, tmp: str, tag: str, traced: bool, reference: list | None) -> dict:
    """Run the workload's commands once and check every output.

    An untraced invocation also times the gauge before each command and
    after the last, and reports its wall time in gauge units: the sum over
    commands of the command's wall time over the mean of the two gauges
    around it.
    """
    walls, rss, problems, summaries, outputs = [], 0.0, [], [], []
    gauges = [] if traced else [gauge()]
    for i, cmd in enumerate(commands):
        out = os.path.join(tmp, f"{tag}-{cmd['command']}")
        os.makedirs(out)
        cli_args = [cmd["command"], cmd["config"], "--out", out, "--quiet"]
        spans_path = os.path.join(out, "spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spans_path] + cli_args
        else:
            argv = [sys.executable, "-m", "poromoist.cli"] + cli_args
        log_path = os.path.join(out, "console.log")
        seconds, peak, code = spawn(argv, log_path)
        if not traced:
            gauges.append(gauge())
        walls.append(seconds)
        rss = max(rss, peak)
        label = f"{cmd['command']}: "
        if code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            problems.append(f"{label}exit code {code} {tail}")
            continue
        try:
            if not verdict(cmd["command"], out):
                problems.append(f"{label}verdict in report.json is false")
            values, picard_total = extract(cmd["command"], out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{label}unreadable outputs ({exc!r})")
            continue
        outputs.append({"values": values, "picard_total": picard_total})
        if reference is not None:
            miss = compare(values, reference[i]["values"], cmd["tol"])
            if miss:
                problems.append(label + miss)
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        shutil.rmtree(out)
    totals = [o["picard_total"] for o in outputs if o["picard_total"] is not None]
    per_gauge = sum(w / (0.5 * (a + b)) for w, a, b in zip(walls, gauges, gauges[1:]))
    return {"wall": sum(walls), "per_gauge": per_gauge, "gauges": gauges, "rss": rss,
            "ok": not problems, "problems": problems,
            "sweeps": sum(totals) if totals else None,
            "summaries": summaries, "outputs": outputs}


def probe_setup(commands: list, tmp: str, count: int, first: int = 0) -> tuple[list, list]:
    """Time fresh processes that import the CLI and build the workload's setup.

    Probe k loads the config of command k modulo their number, starting at first.
    """
    walls, imports = [], []
    for k in range(first, first + count):
        config = commands[k % len(commands)]["config"]
        log = os.path.join(tmp, "probe.log")
        wall, _, code = spawn([sys.executable, "-c", SETUP_PROBE, config], log)
        with open(log, encoding="utf-8") as fh:
            text = fh.read()
        if code != 0:
            raise BenchError(f"setup probe failed with exit code {code}:\n{text}")
        walls.append(wall)
        imports.append(float(text.split()[0]))
    return walls, imports


def gauge() -> float:
    """Seconds taken by a fixed pure-Python loop: a gauge of host speed.

    Other tenants of a shared host slow every process down by a factor that
    drifts over seconds to minutes, by 50% and more on a 2-core cloud VM.
    Dividing an invocation's wall time by this gauge, timed right before and
    after it, cancels most of that drift.  The loop is an elimination
    recurrence on Python floats, the kind of interpreter work the program's
    solver and assembly do, and uses no code from the repository.
    """
    d = [1.0 + (i % 7) * 0.125 for i in range(1000)]
    b = [float(i % 13) for i in range(1000)]
    start = time.perf_counter()
    for _ in range(GAUGE_REPS):
        piv, acc = d[0], b[0]
        for i in range(1, 1000):
            w = 0.25 / piv
            piv = d[i] - w * 0.25
            acc = b[i] - w * acc
    return time.perf_counter() - start


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def describe(values: list) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{len(values)} samples, min {min(values):.4g}, q1 {q1:.4g}, "
            f"median {statistics.median(values):.4g}, q3 {q3:.4g}")


def merge_layers(summaries: list) -> dict:
    merged = {}
    for summary in summaries:
        for name, entry in summary["layers"].items():
            slot = merged.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "total_s": 0.0, "cells": 0})
            for key in slot:
                slot[key] += entry[key]
    return merged


def exact_counts(summaries: list) -> dict:
    layers = merge_layers(summaries)
    return {
        "stepper.picard_sweeps": sum(s["sweeps"] for s in summaries),
        "stepper.failed_direct_sweeps": sum(s["failed_direct_sweeps"] for s in summaries),
        "stepper.ramp_steps": sum(s["ramp_steps"] for s in summaries),
        "stepper.steps": sum(len(s["step_s"]) for s in summaries),
        "linalg.solve_thomas.calls": layers.get("linalg.solve_thomas", {}).get("calls", 0),
        "config.build_setup.calls": layers.get("config.build_setup", {}).get("calls", 0),
    }


def layer_metrics(summaries: list, wall: float, import_s: float) -> dict:
    """Per-layer metrics of one traced invocation of the workload."""
    layers = merge_layers(summaries)
    counts = exact_counts(summaries)
    metrics = {f"{name}.self_s": entry["self_s"] for name, entry in layers.items()}
    for module_name, func_name in TARGETS:
        metrics.setdefault(f"{module_name}.{func_name}.self_s", 0.0)
    thomas = layers.get("linalg.solve_thomas", {"self_s": 0.0, "cells": 0})
    steps_s = [d for s in summaries for d in s["step_s"]]
    sweeps, steps = counts["stepper.picard_sweeps"], counts["stepper.steps"]
    metrics.update({
        "config.build_setup.calls": counts["config.build_setup.calls"],
        "cli.import_s": import_s,
        "stepper.picard_sweeps": sweeps,
        "stepper.sweeps_per_step": sweeps / steps if steps else 0.0,
        "stepper.ramp_steps": counts["stepper.ramp_steps"],
        "stepper.sweep_yield": (1.0 - counts["stepper.failed_direct_sweeps"] / sweeps
                                if sweeps else 0.0),
        "stepper.step_ms.p50": 1e3 * percentile(steps_s, 50) if steps_s else 0.0,
        "stepper.step_ms.p99": 1e3 * percentile(steps_s, 99) if steps_s else 0.0,
        "linalg.solve_thomas.calls": counts["linalg.solve_thomas.calls"],
        "linalg.solve_thomas.ns_per_cell": (1e9 * thomas["self_s"] / thomas["cells"]
                                            if thomas["cells"] else 0.0),
        "trace.wall_s": wall,
        "trace.remainder_s": wall - sum(e["self_s"] for e in layers.values()),
    })
    return metrics


def measure(args, commands: list, tmp: str, reference: list) -> dict:
    """Invoke the workload at least once, for about args.seconds.

    Each round times PROBES_PER_ROUND setup probes and one untraced
    invocation, followed by a traced one with --trace 1.  The probes thus
    sample the whole run, and are topped up to SETUP_PROBES at the end.  A
    further round starts only while more than half of the last round's
    duration is left, so the run ends at the round boundary nearest to the
    deadline.
    """
    deadline = time.perf_counter() + args.seconds
    runs = {"plain": [], "traced": [], "setup": [], "import": []}
    for k in itertools.count(1):
        round_start = time.perf_counter()
        setup, imports = probe_setup(commands, tmp, PROBES_PER_ROUND,
                                     k * PROBES_PER_ROUND)
        runs["setup"] += setup
        runs["import"] += imports
        batch = [invoke(commands, tmp, f"u{k}", False, reference)]
        runs["plain"].append(batch[0])
        if args.trace:
            batch.append(invoke(commands, tmp, f"t{k}", True, reference))
            runs["traced"].append(batch[1])
        print(f"invocation {k}: " + ", ".join(
            f"{'traced' if i else 'untraced'} {r['wall']:.3f} s, peak {r['rss']:.1f} MB, "
            + ("ok" if r["ok"] else "FAILED") for i, r in enumerate(batch)))
        for r in batch:
            for problem in r["problems"]:
                print(f"  check failed: {problem}")
        now = time.perf_counter()
        if deadline - now < 0.5 * (now - round_start):
            break
    missing = SETUP_PROBES - len(runs["setup"])
    if missing > 0:
        setup, imports = probe_setup(commands, tmp, missing, (k + 1) * PROBES_PER_ROUND)
        runs["setup"] += setup
        runs["import"] += imports
    return runs


def trace_checks(plain: list, traced: list) -> list:
    """Exact counts repeat across traced invocations and match the untraced sweeps."""
    problems = []
    counts = [exact_counts(r["summaries"]) for r in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"exact counts differ between traced invocations: {counts}")
    untraced = {r["sweeps"] for r in plain if r["ok"]}
    if None not in untraced and untraced != {counts[0]["stepper.picard_sweeps"]}:
        problems.append(f"traced sweeps {counts[0]['stepper.picard_sweeps']} differ "
                        f"from the untraced count {sorted(untraced)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = load_benchmark()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    variant = args.seed % len(VARIANTS)
    reference = load_references(args.workload)
    if reference is None:
        raise BenchError(f"no stored reference for workload {args.workload}")
    reference = reference[variant]

    env = environment()
    load_start = os.getloadavg()
    center, amplitude, theta0 = VARIANTS[variant]
    print(f"workload {args.workload}: {WORKLOADS[args.workload]['why']}")
    print(f"seed {args.seed} -> variant {variant}: bump center {center}, "
          f"amplitude {amplitude}" + (f", theta0 {theta0}" if args.workload == "stiff" else ""))
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items())
          + f", loadavg at start {load_start[0]:.2f}")

    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        commands = prepare(args.workload, variant, tmp)
        probe_setup(commands, tmp, 1)  # warm the bytecode and file caches
        runs = measure(args, commands, tmp, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass

    plain, traced, setup_walls = runs["plain"], runs["traced"], runs["setup"]
    attempted = len(plain) + len(traced)
    failed = sum(1 for r in plain + traced if not r["ok"])
    print(f"fail_ratio {failed / attempted:.4g} ratio "
          f"({failed} of {attempted} invocations failed)")
    cells = sum(c["cell_steps"] for c in commands)
    walls = [r["wall"] for r in plain]
    gauges = [g for r in plain for g in r["gauges"]]
    per_gauge = [r["per_gauge"] for r in plain]
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_per_gauge": statistics.median(per_gauge),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(r["rss"] for r in plain),
        "host.gauge_s": statistics.median(gauges),
    }
    metrics["cell_steps_per_s"] = cells / metrics["wall_s"]
    print(f"invocation wall times: {describe(walls)}")
    print(f"wall time per gauge: {describe(per_gauge)}")
    print(f"gauge: {describe(gauges)}")
    print(f"setup probes: {describe(setup_walls)}")
    print(f"{cells} cell steps per invocation")

    problems = []
    traced_ok = [r for r in traced if r["ok"]]
    if args.trace and not traced_ok:
        problems.append("no traced invocation passed its checks")
    elif args.trace:
        problems = trace_checks(plain, traced_ok)
        chosen = sorted(traced_ok, key=lambda r: r["wall"])[(len(traced_ok) - 1) // 2]
        metrics.update(layer_metrics(chosen["summaries"], chosen["wall"],
                                     statistics.median(runs["import"])))
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced_ok)
                                       - metrics["wall_s"])
        print(f"exact counts: {exact_counts(chosen['summaries'])}")
        self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"accounting: layer self times {self_s:.4f} s + remainder "
              f"{metrics['trace.remainder_s']:.4f} s = traced wall "
              f"{metrics['trace.wall_s']:.4f} s")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems

    print(f"loadavg at end {os.getloadavg()[0]:.2f}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(metrics.items()):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"metric {name} {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"]),
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
