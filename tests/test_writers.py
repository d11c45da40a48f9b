"""The CSV writers of cli: csv.writer's bytes, one snapshot held at a time."""
from __future__ import annotations

import copy
import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from poromoist import cli
from poromoist.config import build_setup
from poromoist.diagnostics import SERIES_COLUMNS
from poromoist.model import darcy_velocity
from poromoist.stepper import mollified_initial_data, run

ODD_FLOATS = (-0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan,
              -1.5, 0.1, 1.0, -2.220446049250313e-16)


def csv_writer_bytes(rows) -> bytes:
    """What csv.writer writes for rows, encoded as cli's writers encode it."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def written_fields(path, header, blocks) -> bytes:
    cli._write_fields(str(path), header, blocks)
    return path.read_bytes()


def test_write_fields_writes_what_csv_writer_writes(tmp_path):
    texts = list(map(repr, ODD_FLOATS))
    header = ("t", "x", "rho")
    one_row = [texts[:3]]
    several = [texts[3:6], texts[6:9], texts[9:12], texts[:3]]
    blocks = [one_row, [], several, one_row]
    expected = csv_writer_bytes([header, *one_row, *several, *one_row])
    assert written_fields(tmp_path / "lists.csv", header, blocks) == expected
    # cli hands each block over as a zip of text columns
    zipped = [zip(*zip(*block)) for block in blocks]
    assert written_fields(tmp_path / "zips.csv", header, zipped) == expected
    assert written_fields(tmp_path / "header.csv", header, []) == csv_writer_bytes([header])


def test_write_fields_writes_what_csv_writer_writes_on_generated_blocks(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Fields as cli writes them: repr floats, and text that needs no quoting
    # (nonempty, no comma, quote or control character).
    field = st.one_of(st.floats().map(repr),
                      st.text(st.characters(blacklist_categories=("Cs", "Cc"),
                                            blacklist_characters=',"'), min_size=1))
    row = st.lists(field, min_size=1, max_size=5)
    path = tmp_path / "generated.csv"

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(row, st.lists(st.lists(row, max_size=4), max_size=4))
    def check(header, blocks):
        rows = [header] + [r for block in blocks for r in block]
        assert written_fields(path, header, blocks) == csv_writer_bytes(rows)

    check()


def march(data):
    setup = build_setup(data)
    return setup, run(setup, mollified_initial_data(setup))


def test_run_outputs_are_csv_writer_rows_of_repr_texts(smoke_config, tmp_path):
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 32
    data["physical"]["t_end"] = 0.05
    data["output"]["cadence"] = 0.025      # snapshots at steps 0, 25 and 50
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--quiet", "--out", str(out)]) == 0

    setup, result = march(data)
    series = [("t",) + SERIES_COLUMNS] + [
        [cli._fmt(result.t[k])] + [cli._fmt(result.series[name][k]) for name in SERIES_COLUMNS]
        for k in range(len(result.t))]
    assert (out / "series.csv").read_bytes() == csv_writer_bytes(series)

    snapshots = [("t", "x", "rho", "theta", "u")]
    for k in (0, 25, 50):
        u_face = darcy_velocity(result.rho[k], result.theta[k], setup.grid,
                                params=setup.params)
        u_cell = 0.5 * (u_face[:-1] + u_face[1:])
        snapshots.extend([cli._fmt(result.t[k]), cli._fmt(x), cli._fmt(rho),
                          cli._fmt(theta), cli._fmt(u)]
                         for x, rho, theta, u in zip(setup.grid.centers, result.rho[k],
                                                     result.theta[k], u_cell))
    assert (out / "snapshots.csv").read_bytes() == csv_writer_bytes(snapshots)


def test_snapshot_writer_holds_one_snapshot(smoke_config, tmp_path):
    # fine's shape: 21 snapshots of 1000 cells, about 5.8 MB as whole-file rows
    data = copy.deepcopy(smoke_config)
    data["grid"]["n"] = 1000
    data["physical"]["t_end"] = 20 * data["stepping"]["dt"]
    data["output"]["cadence"] = data["stepping"]["dt"]
    setup, result = march(data)
    assert len(result.t) == 21 and np.all(np.isfinite(result.rho))

    path = str(tmp_path / "snapshots.csv")
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        cli._write_snapshots(path, result, data["output"]["cadence"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(path, "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 21 * 1000
    assert peak - held < 1_000_000
