"""Command-line front end.

Subcommands:

* run                time-march one configured problem and certify it
* mms                manufactured-solution convergence study
* ladder             regularization-refinement (Cauchy) study
* sweep              cartesian parameter sweep with per-cell isolation
* validate-saturation  the configured curve's closed-form admissibility condition

Exit codes: 0 all requested certifications passed, 1 a certification or
the solver failed, 2 the configuration was unusable.  All file outputs
are deterministic: floats are written with repr (shortest round-trip
form), JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain, repeat

import numpy as np

from .config import apply_override, build_setup, load_config
from .diagnostics import SERIES_COLUMNS, certify_run
from .errors import ConfigError, PoromoistError
from .harness import make_default_mms_case, mms_study, regularization_ladder, sweep
from .model import darcy_velocity
from .stepper import mollified_initial_data, run, step_count

MMS_ORDER_FLOOR = {"central": 1.9, "upwind": 0.9}
LADDER_VARIATION_CAP = 0.10


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_fields(path: str, header, rows) -> None:
    """_write_csv for fields that never need quoting, written as joined text.

    Each row is its fields joined by commas and ended by \r\n, which is
    what csv.writer writes for them: repr floats and the fixed headers hold
    no comma, quote or line break.  The lines stream into the file, as
    csv.writer's rows do, so no copy of the whole file is held.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in chain((header,), rows))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load_with_flags(args) -> dict:
    """The run config with the --cadence and --advection overrides applied.

    The loaded document belongs to this call, so it is edited in place;
    build_setup validates the result.
    """
    data = load_config(args.config)
    if args.cadence is not None:
        data.setdefault("output", {})["cadence"] = args.cadence
    if args.advection is not None:
        data["stepping"]["advection"] = args.advection
    return data


def _snapshot_indices(steps: int, cadence: float, dt: float) -> list[int]:
    picked = set(range(0, steps + 1, step_count(cadence, dt)))
    picked.add(steps)
    return sorted(picked)


# Whole columns go through tolist() and map(repr, ...) in both writers:
# Python floats and ints print as _fmt prints their numpy counterparts.
def _write_series(path: str, result) -> None:
    """series.csv: t and the SERIES_COLUMNS, one row per time level."""
    columns = [result.t] + [result.series[name] for name in SERIES_COLUMNS]
    _write_fields(path, ("t",) + SERIES_COLUMNS,
                  zip(*(map(repr, column.tolist()) for column in columns)))


def _write_snapshots(path: str, result, setup) -> None:
    """snapshots.csv: cell values and Darcy velocity at every snapshot time."""
    steps = len(result.t) - 1
    x_text = list(map(repr, setup.grid.centers.tolist()))
    rows = []
    for k in _snapshot_indices(steps, setup.cadence, setup.step.dt):
        rho, theta = result.rho[k], result.theta[k]
        u_face = darcy_velocity(rho, theta, setup.grid, params=setup.params)
        u_cell = 0.5 * (u_face[:-1] + u_face[1:])
        t_text = repr(result.t[k].item())
        rows.extend(zip(repeat(t_text), x_text, map(repr, rho.tolist()),
                        map(repr, theta.tolist()), map(repr, u_cell.tolist())))
    _write_fields(path, ("t", "x", "rho", "theta", "u"), rows)


def _cmd_run(args) -> int:
    setup = build_setup(_load_with_flags(args))
    result = run(mollified_initial_data(setup.initial, setup.reg, setup.grid),
                 setup.step, setup.reg, setup.params, setup.model, setup.grid)
    cert = certify_run(result)

    os.makedirs(args.out, exist_ok=True)
    _write_series(os.path.join(args.out, "series.csv"), result)
    _write_snapshots(os.path.join(args.out, "snapshots.csv"), result, setup)

    steps = len(result.t) - 1
    report = {
        "command": "run",
        "n": setup.grid.n,
        "dt": setup.step.dt,
        "t_end": result.t_end,
        "steps": steps,
        "advection": setup.step.advection,
        "eps": setup.reg.eps,
        "nu": setup.reg.nu,
        "certification": cert.summary(),
        "picard_total": int(result.series["picard_iterations"].sum()),
        "picard_max": int(result.series["picard_iterations"].max()),
    }
    _write_json(os.path.join(args.out, "report.json"), report)

    verdict = "PASS" if cert.passed else "FAIL"
    _say(args, f"certification: {verdict} "
               f"(mass residual {cert.max_mass_residual:.3e}, "
               f"envelope slack {cert.envelope_min_slack:.3e})")
    for failure in cert.failures:
        _say(args, f"  - {failure}")
    return 0 if cert.passed else 1


def _cmd_mms(args) -> int:
    data = load_config(args.config)
    setup = build_setup(data)
    opts = data.get("mms", {})
    if args.advection is not None:
        opts["advection"] = args.advection
    case = make_default_mms_case(setup.params, setup.model)
    report = mms_study(case, setup.params, setup.model, **opts)
    advection = report.advection
    floor = MMS_ORDER_FLOOR[advection]
    passed = (report.rho_orders[-1] >= floor and report.theta_orders[-1] >= floor)

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for i, n in enumerate(report.grid_sizes):
        rows.append((str(n), _fmt(report.dts[i]),
                     _fmt(float(report.rho_errors[i])),
                     _fmt(float(report.theta_errors[i])),
                     _fmt(float(report.rho_orders[i - 1])) if i else "",
                     _fmt(float(report.theta_orders[i - 1])) if i else ""))
    _write_csv(os.path.join(args.out, "mms.csv"),
               ("n", "dt", "rho_error", "theta_error", "rho_order", "theta_order"),
               rows)
    _write_json(os.path.join(args.out, "report.json"), {
        "command": "mms",
        "case": case.name,
        "advection": advection,
        "order_floor": floor,
        "grid_sizes": list(report.grid_sizes),
        "dts": list(report.dts),
        "rho_errors": report.rho_errors.tolist(),
        "theta_errors": report.theta_errors.tolist(),
        "rho_orders": report.rho_orders.tolist(),
        "theta_orders": report.theta_orders.tolist(),
        "passed": bool(passed),
    })
    _say(args, f"observed orders (finest pair): rho {report.rho_orders[-1]:.3f}, "
               f"theta {report.theta_orders[-1]:.3f} (floor {floor})")
    return 0 if passed else 1


def _cmd_ladder(args) -> int:
    data = load_config(args.config)
    setup = build_setup(data)
    opts = data.get("ladder", {})
    report = regularization_ladder(setup.initial, setup.step, setup.params,
                                   setup.model, setup.grid, **opts)
    variation_ok = all(v <= LADDER_VARIATION_CAP for v in report.monitor_variation.values())
    passed = report.monotone and variation_ok

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for j, (eps_j, nu_j) in enumerate(zip(report.eps_values, report.nu_values)):
        diff = _fmt(float(report.differences[j - 1])) if j else ""
        rows.append((str(j), _fmt(eps_j), _fmt(nu_j), diff,
                     _fmt(float(report.entropy_monitors[j])),
                     _fmt(float(report.l4_monitors[j]))))
    _write_csv(os.path.join(args.out, "ladder.csv"),
               ("rung", "eps", "nu", "difference", "entropy", "l4"), rows)
    _write_json(os.path.join(args.out, "report.json"), {
        "command": "ladder",
        "eps_values": list(report.eps_values),
        "nu_values": list(report.nu_values),
        "differences": report.differences.tolist(),
        "entropy_monitors": report.entropy_monitors.tolist(),
        "l4_monitors": report.l4_monitors.tolist(),
        "monotone": bool(report.monotone),
        "monitor_variation": report.monitor_variation,
        "variation_cap": LADDER_VARIATION_CAP,
        "passed": bool(passed),
    })
    _say(args, f"ladder: monotone={report.monotone}, "
               f"variation={report.monitor_variation}")
    return 0 if passed else 1


def _cmd_sweep(args) -> int:
    data = load_config(args.config)
    if "sweep" not in data:
        raise ConfigError(f"{args.config}: config has no sweep section")
    axes = data["sweep"]["axes"]

    def run_cell(overrides: dict):
        cell = data
        for path, value in overrides.items():
            cell = apply_override(cell, path, value)
        setup = build_setup(cell)
        result = run(mollified_initial_data(setup.initial, setup.reg, setup.grid),
                     setup.step, setup.reg, setup.params, setup.model, setup.grid)
        return certify_run(result).summary()

    report = sweep(axes, run_cell)
    keys = sorted(axes)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    all_ok = True
    for cell in report.cells:
        certified = cell.status == "ok" and cell.payload["passed"]
        all_ok = all_ok and certified
        rows.append(tuple(_fmt(cell.overrides[k]) for k in keys)
                    + (cell.status, str(certified).lower(), cell.detail))
    _write_csv(os.path.join(args.out, "sweep.csv"),
               tuple(keys) + ("status", "certified", "detail"), rows)
    _write_json(os.path.join(args.out, "report.json"), {
        "command": "sweep",
        "axes": {k: list(v) for k, v in axes.items()},
        "cells": [
            {"overrides": cell.overrides, "status": cell.status,
             "detail": cell.detail,
             "certification": cell.payload if cell.status == "ok" else None}
            for cell in report.cells
        ],
        "passed": all_ok,
    })
    _say(args, f"sweep: {len(report.cells)} cells, "
               f"{len(report.failures)} raised, passed={all_ok}")
    return 0 if all_ok else 1


def _cmd_validate_saturation(args) -> int:
    """Report the curve's closed-form condition; build_setup rejects a failing one."""
    data = load_config(args.config)
    model = build_setup(data).model
    kind = data["saturation"]["kind"]
    condition = model.condition
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "report.json"), {
            "command": "validate-saturation",
            "kind": kind,
            "eta": model.eta,
            "condition": condition.formula,
            "values": condition.values,
            "passed": condition.holds,
        })
    _say(args, f"saturation model: PASS ({kind}, eta {model.eta!r}, "
               f"{condition.formula}: {condition.values})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poromoist",
        description="Verified solver for coupled vapor/heat transport in a porous slab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cadence=False, advection=False):
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--quiet", action="store_true", help="suppress console summary")
        if cadence:
            p.add_argument("--cadence", type=float, default=None,
                           help="override snapshot cadence (time units)")
        if advection:
            p.add_argument("--advection", choices=("upwind", "central"), default=None,
                           help="override the advection discretization")

    common(sub.add_parser("run", help="time-march one problem and certify it"),
           cadence=True, advection=True)
    common(sub.add_parser("mms", help="manufactured-solution convergence study"),
           advection=True)
    common(sub.add_parser("ladder", help="regularization refinement study"))
    common(sub.add_parser("sweep", help="cartesian parameter sweep"))
    p_val = sub.add_parser("validate-saturation",
                           help="closed-form admissibility of the saturation curve")
    p_val.add_argument("config", help="path to a JSON config file")
    p_val.add_argument("--out", default=None, help="optional report directory")
    p_val.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "mms": _cmd_mms,
        "ladder": _cmd_ladder,
        "sweep": _cmd_sweep,
        "validate-saturation": _cmd_validate_saturation,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PoromoistError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
