"""No module of the package, its scripts or its demos imports a name it never uses."""
from __future__ import annotations

import ast

import pytest

from tests.conftest import REPO_ROOT

SOURCES = [path for folder in ("src/poromoist", "scripts", "demos")
           for path in sorted((REPO_ROOT / folder).glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never read.

    A name counts as read where it appears as a name anywhere in the code,
    annotations included (so a TYPE_CHECKING import used in annotations is
    read), or in the module's __all__.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*":
                    imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                             key=lambda item: item[1])
            if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import TYPE_CHECKING\n"
              "from .a import kept, dropped\n"
              "if TYPE_CHECKING:\n"
              "    from .b import Hint, Unread\n"
              "__all__ = ['kept']\n"
              "def f(x: Hint) -> None:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["line 2: sys", "line 4: dropped", "line 6: Unread"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: path.relative_to(REPO_ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
