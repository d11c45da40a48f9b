"""Count the code lines and dataclasses of each module of a package.

Usage, from anywhere:

    python3 scripts/code_size.py [PATH ...]

PATH is a directory, whose ``*.py`` files are counted (not those of its
subdirectories), or one ``.py`` file; the default is this checkout's
``src/poromoist``.  A code line is a line that holds part of a token other
than a comment or a docstring (the string that opens a module, class or
function body).  So docstrings, comments and blank lines are left out, and
a statement or a string literal spread over several lines counts each of
them.  A dataclass is a class decorated with ``dataclass``,
bare or called, under any module prefix.  Prints one line per module, in
name order, with its code lines and dataclasses, then their totals.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree: ast.Module) -> set:
    """Where every module, class and function docstring starts: (line, column)."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def measure(source: str) -> tuple[int, int]:
    """The code lines and the dataclasses of one module's source."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE and not (token.type == tokenize.STRING
                                               and token.start in docstrings):
            code.update(range(token.start[0], token.end[0] + 1))
    dataclasses = sum(1 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                      and any(map(_is_dataclass, node.decorator_list)))
    return len(code), dataclasses


def modules(paths: list) -> list:
    """The .py files of paths: each directory's own, in name order, and each file."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += [os.path.join(path, name) for name in sorted(os.listdir(path))
                      if name.endswith(".py")]
        else:
            files.append(path)
    return files


def main(argv) -> int:
    paths = argv or [os.path.join(ROOT, "src", "poromoist")]
    total_code = total_classes = 0
    for path in modules(paths):
        with open(path, encoding="utf-8") as fh:
            code, classes = measure(fh.read())
        total_code += code
        total_classes += classes
        print(f"{os.path.basename(path):<20} {code:6d} code lines {classes:4d} dataclasses")
    print(f"{'total':<20} {total_code:6d} code lines {total_classes:4d} dataclasses")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
