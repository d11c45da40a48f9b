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
from dataclasses import asdict
from itertools import repeat

import numpy as np

from .config import build_setup, load_config
from .diagnostics import SERIES_COLUMNS, certify_run
from .errors import ConfigError, PoromoistError
from .harness import make_default_mms_case, mms_study, regularization_ladder, sweep
from .model import darcy_velocity
from .stepper import mollified_initial_data, run, step_count


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_columns(path: str, columns: dict) -> None:
    """A CSV with one named column per entry of columns, each value by _fmt.

    A column shorter than the first is blank in its top rows, so a column
    of differences between successive rows ends level with the rest.
    """
    height = len(next(iter(columns.values())))
    padded = [[""] * (height - len(column)) + [_fmt(value) for value in column]
              for column in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*padded))


def _write_fields(path: str, header, blocks) -> None:
    """A CSV of fields that never need quoting, one block of rows at a time.

    Each row is its fields joined by commas and ended by \r\n, which is
    what csv.writer writes for them: repr floats and the fixed headers are
    nonempty and hold no comma, quote or line break.  After the header each
    block of rows is joined into one text and written with its final \r\n,
    so only one block's text is held at a time; a block with no rows writes
    nothing.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            text = "\r\n".join(map(",".join, block))
            if text:
                fh.write(text)
                fh.write("\r\n")


def _write_json(path: str, payload: dict) -> None:
    """payload as sorted, indented JSON, numpy arrays and scalars by tolist()."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=lambda value: value.tolist())
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
    """series.csv: t and the SERIES_COLUMNS, one row per time level, one block."""
    columns = [result.t] + [result.series[name] for name in SERIES_COLUMNS]
    _write_fields(path, ("t",) + SERIES_COLUMNS,
                  (zip(*(map(repr, column.tolist()) for column in columns)),))


def _write_snapshots(path: str, result, cadence: float) -> None:
    """snapshots.csv: cell values and Darcy velocity every cadence time units.

    Each snapshot is one block of rows, made as it is written, so the text
    of one snapshot is held at a time.
    """
    setup, steps = result.setup, len(result.t) - 1
    x_text = list(map(repr, setup.grid.centers.tolist()))

    def blocks():
        for k in _snapshot_indices(steps, cadence, setup.step.dt):
            rho, theta = result.rho[k], result.theta[k]
            u_face = darcy_velocity(rho, theta, setup.grid, params=setup.params)
            u_cell = 0.5 * (u_face[:-1] + u_face[1:])
            t_text = repr(result.t[k].item())
            yield zip(repeat(t_text), x_text, map(repr, rho.tolist()),
                      map(repr, theta.tolist()), map(repr, u_cell.tolist()))

    _write_fields(path, ("t", "x", "rho", "theta", "u"), blocks())


def _cmd_run(args) -> int:
    data = _load_with_flags(args)
    setup = build_setup(data)
    result = run(setup, mollified_initial_data(setup))
    cert = certify_run(result)

    os.makedirs(args.out, exist_ok=True)
    _write_series(os.path.join(args.out, "series.csv"), result)
    cadence = float(data.get("output", {}).get("cadence", setup.params.t_end))
    _write_snapshots(os.path.join(args.out, "snapshots.csv"), result, cadence)

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

    os.makedirs(args.out, exist_ok=True)
    _write_columns(os.path.join(args.out, "mms.csv"), {
        "n": report.grid_sizes, "dt": report.dts,
        "rho_error": report.rho_errors, "theta_error": report.theta_errors,
        "rho_order": report.rho_orders, "theta_order": report.theta_orders})
    _write_json(os.path.join(args.out, "report.json"),
                {"command": "mms", "case": case.name, **asdict(report)})
    _say(args, f"observed orders (finest pair): rho {report.rho_orders[-1]:.3f}, "
               f"theta {report.theta_orders[-1]:.3f} (floor {report.order_floor})")
    return 0 if report.passed else 1


def _cmd_ladder(args) -> int:
    data = load_config(args.config)
    setup = build_setup(data)
    opts = data.get("ladder", {})
    report = regularization_ladder(setup, **opts)

    os.makedirs(args.out, exist_ok=True)
    _write_columns(os.path.join(args.out, "ladder.csv"), {
        "rung": range(len(report.eps_values)), "eps": report.eps_values,
        "nu": report.nu_values, "difference": report.differences,
        "entropy": report.entropy_monitors, "l4": report.l4_monitors})
    _write_json(os.path.join(args.out, "report.json"),
                {"command": "ladder", **asdict(report)})
    _say(args, f"ladder: monotone={report.monotone}, "
               f"variation={report.monitor_variation}")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    data = load_config(args.config)
    if "sweep" not in data:
        raise ConfigError(f"{args.config}: config has no sweep section")
    report = sweep(data, data["sweep"]["axes"])
    cells = report.cells

    os.makedirs(args.out, exist_ok=True)
    _write_columns(os.path.join(args.out, "sweep.csv"), {
        **{key: [cell.overrides[key] for cell in cells] for key in sorted(report.axes)},
        "status": [cell.status for cell in cells],
        "certified": [str(cell.certified).lower() for cell in cells],
        "detail": [cell.detail for cell in cells]})
    _write_json(os.path.join(args.out, "report.json"),
                {"command": "sweep", **asdict(report)})
    _say(args, f"sweep: {len(cells)} cells, "
               f"{len(report.failures)} raised, passed={report.passed}")
    return 0 if report.passed else 1


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
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PoromoistError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
