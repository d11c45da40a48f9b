"""Time a parent revision and the working tree in one process, alternately.

Usage, from anywhere:

    python3 scripts/bench_ab.py REV [--case NAME ...] [--out FILE]
    python3 scripts/bench_ab.py --parent-src DIR [...]

The parent is ``src/poromoist`` of git revision REV (through ``git
archive``), or the package directory DIR where there is no git history.
It is loaded beside the working tree's ``src/poromoist`` as a second
package, ``poromoist_parent``: the package imports only relatively, so
each copy has its own modules and classes, and each side builds its own
inputs.

The cases are the layers of ``scripts/bench_layers.py`` at n = 100, 400
and 1000 (``solve_thomas/100`` and so on), each timed as a fixed number
of calls, and whole in-process commands through each side's
``cli.main``: ``run`` on smoke, fine and stiff, ``mms``, ``ladder`` and
``sweep`` on their shipped configs, and ``sweep`` on the harder grid of
``scripts/bench_layers.py`` (``harder_grid``, whose lockstep groups meet
kernel errors), each one call.  In each of ROUNDS
rounds every case is timed on each side, the side that goes first
alternating from round to round (A B, B A, ...), so the host's drift
between rounds cancels in each round's ratio of change over parent.  A
layer's calls of one round are split into SLICES slices per side, taken
in the order A B B A A B B A ..., so the drift within the round cancels
too: the host's speed wanders within a tenth of a second.  ``--case``
(repeatable) keeps only the named cases.

The layer cases call both packages through this tree's ``layer_table``,
with this tree's signatures, so they pair only revisions whose layer API
matches: not a revision whose ``stepper.run`` took initial data where this
tree's takes a start ``State``, nor one whose predictor takes no
tolerance, nor one whose kernel took the step, regularization, physics,
curve and grid as five arguments where this tree's takes one ``Setup``
(``3929668`` and older).  Where building the parent's table or a first call of one of
its layers fails, the script exits 2 and says so, and writes no file.
The command cases go through each side's own ``cli.main``, so they pair
any two revisions; name them with ``--case`` to compare across such a
change.

Writes FILE (default ``BENCH_ab.json`` at the repository root): both
revisions, the host, and per case the paired ratios, their median and
quartiles, and each side's median seconds per call.  A ratio below 1
means the working tree is faster; a gain is claimed only where the upper
quartile is below 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
from bench_layers import SIZES, harder_grid_config, layer_table  # noqa: E402

PARENT = "poromoist_parent"
# Seconds one side's timing of a layer takes per round, which sets its
# number of calls, and the slices those calls are split into.
LAYER_SECONDS = 0.05
SLICES = 8
ROUNDS = 10

COMMANDS = (
    ("run_smoke", ("run", "configs/smoke.json")),
    ("run_fine", ("run", "perfbench/configs/fine.json")),
    ("run_stiff", ("run", "perfbench/configs/stiff.json")),
    ("mms", ("mms", "configs/mms.json")),
    ("ladder", ("ladder", "configs/ladder.json")),
    ("sweep", ("sweep", "configs/sweep.json")),
    # the config is written by bench_layers.harder_grid_config
    ("harder_grid", ("sweep", None)),
)


def load_parent(src: str) -> None:
    """Import the package directory src as poromoist_parent."""
    spec = importlib.util.spec_from_file_location(
        PARENT, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    module = importlib.util.module_from_spec(spec)
    sys.modules[PARENT] = module
    spec.loader.exec_module(module)


def extract(rev: str, into: str) -> str:
    """Write src/poromoist of git revision rev under into; return its path."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev,
                              "src/poromoist"], capture_output=True, check=True).stdout
    # The "data" filter exists from Python 3.11.4 and 3.10.12 on; the
    # archive of our own history needs none where it is missing.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)
    return os.path.join(into, "src", "poromoist")


def describe_tree() -> str:
    """The working tree as HEAD's hash, marked where src/poromoist differs from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else ""
    head = git("rev-parse", "HEAD")
    if not head:
        return "working tree"
    dirty = git("status", "--porcelain", "--", "src/poromoist")
    return f"{head} plus uncommitted changes" if dirty else head


def command_call(package: str, argv: tuple, out: str):
    """One call of package's cli.main on argv, writing into out."""
    cli = importlib.import_module(f"{package}.cli")
    command, config = argv
    args = [command, os.path.join(ROOT, config), "--out", out, "--quiet"]

    def call():
        code = cli.main(args)
        if code != 0:
            raise SystemExit(f"{package} {command} {config} exited {code}")
    return call


class LayerMismatch(Exception):
    """The parent's package does not take this tree's layer calls."""


def parent_layers(n: int, out: str) -> dict:
    """The parent's layer table at n, each layer called once.

    Raises LayerMismatch where building the table or a first call fails,
    as it does where the parent's layer API differs from this tree's.
    """
    try:
        table = layer_table(n, out, PARENT)
        for call in table.values():
            call()
    except Exception as exc:
        raise LayerMismatch(f"{type(exc).__name__}: {exc}") from exc
    return table


def build_cases(out: str, wanted: set) -> dict:
    """Case name -> {side: call}, for the cases in wanted (all where it is empty)."""
    sides = (("change", "poromoist"), ("parent", PARENT))
    cases = {}
    for n in SIZES:
        if wanted and not any(name.endswith(f"/{n}") for name in wanted):
            continue
        tables = {"change": layer_table(n, os.path.join(out, "change")),
                  "parent": parent_layers(n, os.path.join(out, "parent"))}
        for layer in tables["change"]:
            name = f"{layer}/{n}"
            if not wanted or name in wanted:
                cases[name] = {side: table[layer] for side, table in tables.items()}
    for name, (command, config) in COMMANDS:
        if not wanted or name in wanted:
            argv = (command, config or harder_grid_config(out))
            cases[name] = {side: command_call(package, argv, os.path.join(out, side, name))
                           for side, package in sides}
    return cases


def seconds(call, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def paired_seconds(sides: dict, number: int, order: tuple) -> dict:
    """Seconds per call of each side over number calls, in alternating slices.

    A case of at least SLICES calls is timed in SLICES slices per side, in
    the order of order, then reversed, then as given again, and so on.
    """
    slices = SLICES if number >= SLICES else 1
    total = dict.fromkeys(sides, 0.0)
    for i in range(slices):
        for side in order if i % 2 == 0 else order[::-1]:
            total[side] += seconds(sides[side], number // slices)
    return {side: t / slices for side, t in total.items()}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("rev", nargs="?", help="git revision of the parent")
    which.add_argument("--parent-src", help="the parent's package directory")
    parser.add_argument("--case", action="append", default=[],
                        help="keep only this case (repeatable)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ab.json"))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        if args.parent_src:
            load_parent(os.path.abspath(args.parent_src))
            parent = args.parent_src
        else:
            load_parent(extract(args.rev, workdir))
            parent = subprocess.run(["git", "-C", ROOT, "rev-parse", args.rev],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        for side in ("change", "parent"):
            os.makedirs(os.path.join(workdir, side))
        try:
            cases = build_cases(workdir, set(args.case))
        except LayerMismatch as exc:
            parser.error(
                f"the parent's layers do not take this tree's calls ({exc}), so the "
                "layer cases (such as solve_thomas/100) cannot be paired; name the "
                "command cases with --case: "
                + " ".join(f"--case {name}" for name, _ in COMMANDS))
        unknown = set(args.case) - set(cases)
        if unknown:
            parser.error(f"unknown cases: {sorted(unknown)}")
        # One call of each side fills caches and finishes lazy set-up; a
        # layer's count of calls per timing is sized on the change side.
        numbers = {}
        for name, sides in cases.items():
            for call in sides.values():
                call()
            numbers[name] = 1
            if name not in dict(COMMANDS):
                number = max(1, round(LAYER_SECONDS / seconds(sides["change"], 3)))
                numbers[name] = number // SLICES * SLICES or number
        timings = {name: {"change": [], "parent": []} for name in cases}
        for r in range(ROUNDS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name, sides in cases.items():
                for side, t in paired_seconds(sides, numbers[name], order).items():
                    timings[name][side].append(t)
            print(f"round {r + 1} of {ROUNDS}", file=sys.stderr)

    results = {}
    for name, sides in timings.items():
        ratios = [c / p for c, p in zip(sides["change"], sides["parent"])]
        results[name] = {"calls_per_timing": numbers[name],
                         "ratios": ratios, "ratio": summary(ratios),
                         "change_s": statistics.median(sides["change"]),
                         "parent_s": statistics.median(sides["parent"])}
    payload = {
        "revisions": {"change": describe_tree(), "parent": parent},
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "rounds": ROUNDS,
        "timing": ("per round and case, each side's seconds per call over "
                   "calls_per_timing calls, the side that goes first alternating "
                   f"and a layer's calls split into {SLICES} slices per side, "
                   "A B B A ...; ratios are change over parent; a call of "
                   "step_record_per_level folds a whole block of levels"),
        "cases": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, case in results.items():
        r = case["ratio"]
        print(f"{name:32s} {r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
