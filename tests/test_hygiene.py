"""Source hygiene: every module-level import of the library is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heisenrep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` that no name
    in the module reads (``import a.b`` binds ``a``)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from math import gcd, lcm as least\n"
              "def f():\n    return sys.argv, least(2, 3)\n")
    assert unused_imports(source) == [(2, "os"), (4, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
