"""Compare two trees written by scripts/golden_outputs.py, number by number.

Usage, from anywhere:

    python3 scripts/compare_outputs.py PARENT CHANGE

Walks both trees and prints one line per file, in path order: a file found
on one side only is named as such; a file on both sides gets the largest
|a - b| / max(1, |a|) over its numeric fields, a from PARENT and b from
CHANGE, and its count of text differences with the first of them.  The numeric fields are the cells of a ``.csv`` file and the
numbers of a ``.json`` file that parse as finite numbers on both sides.
Every other difference is a text difference: a cell, a JSON value or key
set, a row or list of another length, and any line of another file (such
as ``console.txt``).  The script only reports; it applies no threshold,
and it exits 0 whatever it finds (2 on a usage error).
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys


def numeric_gap(a, b) -> float | None:
    """|a - b| / max(1, |a|) when both are finite numbers, else None."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return abs(x - y) / max(1.0, abs(x))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_json(a, b, where: str, gaps: list, texts: list) -> None:
    if _is_number(a) and _is_number(b):
        gap = numeric_gap(a, b)
        if gap is not None:
            gaps.append(gap)
            return
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _compare_json(a[key], b[key], f"{where}.{key}", gaps, texts)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, f"{where}[{i}]", gaps, texts)
    elif a != b:
        texts.append(f"{where or '$'}: {json.dumps(a)} != {json.dumps(b)}")


def _compare_csv(a_lines: list, b_lines: list, gaps: list, texts: list) -> None:
    a_rows, b_rows = list(csv.reader(a_lines)), list(csv.reader(b_lines))
    if len(a_rows) != len(b_rows):
        texts.append(f"{len(a_rows)} rows != {len(b_rows)} rows")
    for i, (x_row, y_row) in enumerate(zip(a_rows, b_rows), start=1):
        if len(x_row) != len(y_row):
            texts.append(f"row {i}: {len(x_row)} cells != {len(y_row)} cells")
            continue
        for j, (x, y) in enumerate(zip(x_row, y_row), start=1):
            gap = numeric_gap(x, y) if x != y else 0.0
            if gap is None:
                texts.append(f"row {i} cell {j}: {x!r} != {y!r}")
            else:
                gaps.append(gap)


def compare_file(a_path: str, b_path: str) -> tuple[float, list]:
    """One file's largest numeric gap (0 without numbers) and its text differences."""
    with open(a_path, encoding="utf-8") as fh:
        a_text = fh.read()
    with open(b_path, encoding="utf-8") as fh:
        b_text = fh.read()
    gaps, texts = [], []
    if a_text != b_text:
        if a_path.endswith(".csv"):
            _compare_csv(a_text.splitlines(), b_text.splitlines(), gaps, texts)
        elif a_path.endswith(".json"):
            try:
                a_data, b_data = json.loads(a_text), json.loads(b_text)
            except json.JSONDecodeError:
                texts.append("not valid JSON on both sides")
            else:
                _compare_json(a_data, b_data, "", gaps, texts)
        else:
            a_lines, b_lines = a_text.splitlines(), b_text.splitlines()
            if len(a_lines) != len(b_lines):
                texts.append(f"{len(a_lines)} lines != {len(b_lines)} lines")
            texts += [f"line {i}: {x!r} != {y!r}" for i, (x, y)
                      in enumerate(zip(a_lines, b_lines), start=1) if x != y]
    return max(gaps, default=0.0), texts


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names}


def compare(parent: str, change: str) -> dict:
    """Relative path -> "only in PARENT", "only in CHANGE" or compare_file's pair."""
    a_files, b_files = _files(parent), _files(change)
    report = {}
    for path in sorted(a_files | b_files):
        if path not in b_files:
            report[path] = "only in PARENT"
        elif path not in a_files:
            report[path] = "only in CHANGE"
        else:
            report[path] = compare_file(os.path.join(parent, path),
                                        os.path.join(change, path))
    return report


def main(argv) -> int:
    if len(argv) != 2 or not all(os.path.isdir(root) for root in argv):
        print("usage: compare_outputs.py PARENT CHANGE (two directories)",
              file=sys.stderr)
        return 2
    for path, result in compare(*argv).items():
        if isinstance(result, str):
            print(f"{path}: {result}")
            continue
        gap, texts = result
        line = f"{path}: max rel {gap:.3g}"
        if texts:
            line += f"; {len(texts)} text differences, first {texts[0]}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
