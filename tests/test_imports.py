"""Every module of the package uses each name it imports and each private
function it defines, and the package exports or uses each public function
and class."""

import ast
from collections import Counter
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


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private function or method defined in
    ``sources`` ({module: source}) that no code in ``sources`` refers to, as
    a name or an attribute, outside its own body."""
    return _unreferenced(sources, lambda tree: [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")])


def unreferenced_public_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public module-level function or class in
    ``sources`` that no code in ``sources`` imports (an export from
    ``__init__`` counts) or refers to outside its own body."""
    return _unreferenced(sources, lambda tree: [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")])


def _unreferenced(sources: dict[str, str], definitions) -> list[str]:
    """``module.name`` of each node of ``definitions(tree)`` whose name no
    code in ``sources`` refers to outside its own body."""
    refs, defs = Counter(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        refs.update(_references(tree))
        defs += [(module, node) for node in definitions(tree)]
    return [f"{module}.{node.name}" for module, node in defs
            if refs[node.name] - _references(node)[node.name] <= 0]


def _references(tree) -> Counter:
    return Counter([n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
                   + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
                   + [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                      for a in n.names])


def test_the_check_sees_unreferenced_private_functions():
    sources = {"a": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n"
                    "class C:\n    def _helper(self):\n        pass\n\n"
                    "    def __init__(self):\n        pass\n",
               "b": "from a import _used\nprint(_used)\n"}
    assert unreferenced_private_functions(sources) == ["a._recursive", "a._helper"]


def test_the_check_sees_unexported_public_functions():
    sources = {"a": "def exported():\n    pass\n\ndef used():\n    pass\n\n"
                    "def orphan(n):\n    return orphan(n - 1)\n\n"
                    "class C:\n    def method(self):\n        return used()\n\n"
                    "class Dead:\n    @classmethod\n    def make(cls) -> Dead:\n"
                    "        return Dead()\n\nprint(C)\n",
               "__init__": "from .a import exported\n"}
    assert unreferenced_public_definitions(sources) == ["a.orphan", "a.Dead"]


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_every_private_function_is_used_in_the_package():
    # a private helper that only the tests call has no place in the package
    assert unreferenced_private_functions(_package_sources()) == []


def test_every_public_function_is_exported_or_used_in_the_package():
    # a public function that is neither API nor called by the package is dead code
    assert unreferenced_public_definitions(_package_sources()) == []


def identity_keys(source: str) -> list[int]:
    """Line of each read of the builtin ``id`` in ``source``: a call
    ``id(x)`` or the function handed on, as in ``map(id, xs)``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Name) and n.id == "id" and isinstance(n.ctx, ast.Load))


def test_the_check_sees_calls_of_id():
    source = ("key = id(a)\nkeys = dict(zip(map(id, b), b))\nc.id = 1\n"
              "print(c.id, 'id(d)')\n")
    assert identity_keys(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_keys_on_object_identity(path):
    # a stalk map's sharing is stored in its table's slots, so no reader
    # rediscovers it by object identity
    assert identity_keys((SRC / path).read_text(encoding="utf-8")) == []
