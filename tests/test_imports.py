"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "framehom"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name ``source`` imports and never reads.

    An import whose line carries ``# noqa`` is kept on purpose, and
    ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(a.lineno, name) for a, name in imported
            if name not in used and "# noqa" not in lines[a.lineno - 1]]


def test_the_check_sees_unused_and_kept_imports():
    source = ("import math, os\nfrom x import (\n    a,\n    b,  # noqa: F401\n    c as d,\n)\n"
              "from __future__ import annotations\nprint(os.sep, a)\n")
    assert unused_imports(source) == [(1, "math"), (5, "d")]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_imports_only_names_it_uses(path):
    # __init__.py is left out: its imports are the package's public names
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []
