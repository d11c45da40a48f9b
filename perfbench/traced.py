"""Run one poromoist CLI command with a span around each layer's public functions.

Usage, from the repository root with ``PYTHONPATH=src``:

    python3 perfbench/traced.py SPANS_JSON CLI_ARG...

The CLI arguments are passed to ``poromoist.cli.main`` unchanged.  Each
function in TARGETS is wrapped under every name that refers to it in a
loaded ``poromoist`` module, because callers look functions up by the name
they imported (``cli`` imports ``run``, ``stepper`` imports
``solve_thomas``); a wrapper on the defining module alone would record
nothing.  Spans stay in memory and are summarised into SPANS_JSON when the
command ends.  The process exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module under poromoist, public function).  The span name is "module.function".
TARGETS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("config", "build_setup"),
    ("stepper", "run"),
    ("stepper", "homotopy_solve"),
    ("stepper", "picard_step"),
    ("stepper", "compute_flux_coefficients"),
    ("stepper", "assemble_rho_system"),
    ("stepper", "assemble_theta_system"),
    ("linalg", "solve_thomas"),
    ("model", "darcy_velocity"),
    ("diagnostics", "step_record"),
    ("diagnostics", "certify_run"),
    ("harness", "mms_study"),
    ("harness", "regularization_ladder"),
    ("harness", "sweep"),
)

NAME, PARENT, START, END, RAISED, CELLS = range(6)


class Tracer:
    """Records nested spans: name, parent index, start, end, raised, cells."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sized = name == "linalg.solve_thomas"

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False,
                    args[0].n if sized else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "poromoist" or key.startswith("poromoist.")]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"poromoist.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def summary(self, import_s: float) -> dict:
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        layers = {}
        failed_direct_sweeps = 0
        for i, span in enumerate(spans):
            duration = span[END] - span[START]
            entry = layers.setdefault(span[NAME], {"calls": 0, "self_s": 0.0,
                                                   "total_s": 0.0, "cells": 0})
            entry["calls"] += 1
            entry["self_s"] += duration - child_s[i]
            entry["total_s"] += duration
            entry["cells"] += span[CELLS]
            parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
            if (span[NAME] == "stepper.assemble_rho_system" and parent is not None
                    and parent[NAME] == "stepper.picard_step" and parent[RAISED]):
                failed_direct_sweeps += 1
        steps = [s[END] - s[START] for s in spans if s[NAME] == "stepper.homotopy_solve"]
        roots = [s[END] - s[START] for s in spans if s[PARENT] < 0]
        return {
            "import_s": import_s,
            "spans": len(spans),
            "root_s": sum(roots),
            "layers": layers,
            "sweeps": layers.get("stepper.assemble_rho_system", {}).get("calls", 0),
            "failed_direct_sweeps": failed_direct_sweeps,
            "ramp_steps": sum(1 for s in spans
                              if s[NAME] == "stepper.picard_step" and s[RAISED]),
            "step_s": steps,
        }


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS_JSON CLI_ARG...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    import poromoist.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = poromoist.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
