"""Write the stored reference outputs of every workload and input variant.

Usage, from the repository root:

    python3 perfbench/make_references.py

Runs each workload once per variant through the CLI, untraced, and stores
the outputs that perfbench/run.py compares against in
perfbench/references/<workload>.json.  Every run must exit 0 with a
passing verdict.  Values are stored to 12 significant digits, far below
the comparison tolerance.  Regenerate only from a commit whose outputs are
known to be right: a reference taken from a wrong program hides the defect.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run as bench


def main() -> int:
    os.makedirs(bench.SCRATCH, exist_ok=True)
    out_dir = os.path.join(bench.HERE, "references")
    os.makedirs(out_dir, exist_ok=True)
    commit = bench.environment()["commit"]
    for workload in sorted(bench.WORKLOADS):
        variants = []
        for variant in range(len(bench.VARIANTS)):
            tmp = tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=bench.SCRATCH)
            try:
                commands = bench.prepare(workload, variant, tmp)
                result = bench.invoke(commands, tmp, "ref", False, None)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if not result["ok"]:
                print(f"{workload} variant {variant}: {result['problems']}", file=sys.stderr)
                return 1
            for output in result["outputs"]:
                output["values"] = {key: [float(f"{v:.12g}") for v in values]
                                    for key, values in output["values"].items()}
            variants.append(result["outputs"])
            print(f"{workload} variant {variant}: {result['wall']:.2f} s, "
                  f"sweeps {result['sweeps']}")
        with open(os.path.join(out_dir, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"commit": commit, "variants": variants}, fh)
            fh.write("\n")
    os.rmdir(bench.SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
