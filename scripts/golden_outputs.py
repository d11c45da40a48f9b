"""Write the deterministic CLI outputs of every shipped study into one tree.

Usage, from anywhere:

    python3 scripts/golden_outputs.py OUTDIR

Runs ``python -m poromoist`` from this checkout's ``src`` on the shipped
configs (``run`` on smoke, ``mms``, ``ladder`` and ``sweep``, ``run`` on
smoke with central advection), ``run`` on ``perfbench/configs/fine.json``
and ``stiff.json``, and ``validate-saturation`` on smoke.  Each case writes
its files into ``OUTDIR/<case>/`` plus ``console.txt`` holding the exit
code and the console output.  Then it runs each script in ``demos/`` and
writes its exit code and output into ``OUTDIR/demo_<name>/console.txt``.
Every file is deterministic, so a refactor that must not change results is
checked by running this script on the parent and on the change and
comparing the two trees with ``diff -r``.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CASES = (
    ("run_smoke", ["run", "configs/smoke.json"]),
    ("run_smoke_central", ["run", "configs/smoke.json", "--advection", "central"]),
    ("mms", ["mms", "configs/mms.json"]),
    ("ladder", ["ladder", "configs/ladder.json"]),
    ("sweep", ["sweep", "configs/sweep.json"]),
    ("run_fine", ["run", "perfbench/configs/fine.json"]),
    ("run_stiff", ["run", "perfbench/configs/stiff.json"]),
    ("validate_saturation", ["validate-saturation", "configs/smoke.json"]),
)


def _capture(out: str, name: str, command) -> None:
    """Run command from the checkout root; write its exit code and output."""
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    with open(os.path.join(out, "console.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    print(f"{name}: exit {proc.returncode}")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: golden_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out_root = os.path.abspath(argv[0])
    for name, args in CASES:
        out = os.path.join(out_root, name)
        _capture(out, name, [sys.executable, "-m", "poromoist", *args, "--out", out])
    demos = os.path.join(ROOT, "demos")
    for script in sorted(f for f in os.listdir(demos) if f.endswith(".py")):
        name = "demo_" + script[:-len(".py")]
        _capture(os.path.join(out_root, name), name,
                 [sys.executable, os.path.join(demos, script)])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
