"""Source hygiene: every module-level import of the library is used,
every module-level definition is referenced, every function and public
method is used by the library, its README or its benchmarks unless an
allowlist gives the reason it stays, an import inside a function is there
only to break an import cycle, and the verification module keeps no cache
between calls."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "heisenrep"
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


def definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def references(source, own=True):
    """Names that ``source`` reads, imports or reads as attributes, each
    outside every def or class of the same name (so a recursive call is
    not a use).  With ``own`` false, names that ``source`` defines itself
    are left out: there they mean its own definitions."""
    tree = ast.parse(source)
    out = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name is not None and name not in owners:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return out if own else out - {node.name for node in definitions(tree)}


def unreferenced(module, used):
    """The (line, name) of each module-level def or class of the source
    ``module`` whose name is not in ``used``."""
    return [(node.lineno, node.name) for node in definitions(ast.parse(module))
            if node.name not in used]


def test_unreferenced_definitions_are_found():
    module = ("def used():\n    return 1\n"
              "def recursive(k):\n    return recursive(k - 1) if k else used()\n"
              "class Named:\n    pass\n"
              "def imported():\n    pass\n"
              "def shadowed():\n    pass\n")
    other = ("from m import imported\n"
             "def shadowed():\n    pass\n"
             "shadowed()\n")
    used = references(module) | references(other, own=False) | {"Named"}
    assert unreferenced(module, used) == [(3, "recursive"), (9, "shadowed")]


def test_every_definition_is_referenced():
    """Each definition is referenced by its own module, by another source
    in src/ or tests/ (where that source does not define the name itself),
    or by a word of README.md."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    foreign = {path: references(path.read_text(), own=False) for path in paths}
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    found = {}
    for path in MODULES:
        source = path.read_text()
        used = references(source).union(
            words, *(refs for other, refs in foreign.items() if other != path))
        found[path.name] = unreferenced(source, used)
    assert {name: names for name, names in found.items() if names} == {}


# The functions and public methods of src/ that neither src/ nor a word of
# README.md or of a file in benchmarks/ names, each with the reason it
# stays in the library rather than in tests/dense_oracle.py.
SURFACE_ALLOWLIST = {
    "kmat.mat_inverse": "the acceptance suite imports it",
    "kmat.mat_from_json": "the acceptance suite imports it",
    "reduction.ReductionData.alpha": "the paper's reduction homomorphism",
    "canonrep.CanonicalRep.act": "library API: the action of an element "
                                 "of H, of Sp(M) or of their product",
    "canonrep.TensorRep.act": "library API, as CanonicalRep.act",
}


def surface(module, source):
    """The qualified name of each module-level function of ``source`` and
    of each public method of its module-level classes."""
    out = []
    for node in definitions(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            out.append("%s.%s" % (module, node.name))
        else:
            out.extend("%s.%s.%s" % (module, node.name, item.name)
                       for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("_"))
    return out


def test_unused_surface_is_found():
    module = ("def used():\n    return 1\n"
              "def recursive(k):\n    return recursive(k - 1) if k else used()\n"
              "class Model:\n"
              "    def act(self):\n        return self.act()\n"
              "    def read(self):\n        return self.act()\n"
              "    def _private(self):\n        pass\n")
    names = [name for name in surface("m", module)
             if name.rsplit(".", 1)[1] not in references(module)]
    assert names == ["m.recursive", "m.Model.read"]


def test_library_surface_is_used_or_allowed():
    """Every function and public method of src/ is named by src/, by a
    word of README.md or by a word of a file in benchmarks/ (the tracer
    wraps methods by their name strings); the rest is exactly the
    allowlist.  Test-only helpers belong in tests/.  A name the package
    exports from ``__init__`` counts as used."""
    sources = {path.stem: path.read_text() for path in MODULES}
    used = references((SRC / "__init__.py").read_text()).union(
        *map(references, sources.values()))
    texts = [ROOT / "README.md"] + [p for p in (ROOT / "benchmarks").glob("*")
                                    if p.is_file()]
    for path in texts:
        used.update(re.findall(r"\w+", path.read_text()))
    unused = [name for module, source in sources.items()
              for name in surface(module, source)
              if name.rsplit(".", 1)[1] not in used]
    assert sorted(unused) == sorted(SURFACE_ALLOWLIST)


def library_modules(node):
    """The library modules an import statement names: ``from .a import f``
    names a and ``from . import a`` names a; absolute imports name none."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return set()
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def inner_imports(sources):
    """The (module, line) of each import inside a function or class of the
    sources {module name: source}, except those that break a cycle: an
    import that names only library modules which already reach the
    importer through module-level imports."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    edges = {name: set().union(*map(library_modules, tree.body))
             for name, tree in trees.items()}

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name == goal:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(edges.get(name, ()))
        return False

    found = []
    for name, tree in trees.items():
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and id(node) not in top):
                named = library_modules(node)
                if not named or not all(reaches(m, name) for m in named):
                    found.append((name, node.lineno))
    return sorted(found)


def test_inner_imports_are_found():
    sources = {
        "a": "from .b import f\ndef g():\n    from .c import h\n"
             "    import json\n",
        "b": "def f():\n    from .a import g\n",
        "c": "def h():\n    from . import b\n",
    }
    assert inner_imports(sources) == [("a", 3), ("a", 4), ("c", 2)]


def test_function_level_imports_only_break_cycles():
    """An import inside a function is kept only where the module it names
    imports the importer, directly or not, at module level."""
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert inner_imports(sources) == []


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)


def module_level_caches(source):
    """The (line, name) of each dict, list or set that ``source`` binds at
    module level (a display, a comprehension or a call of dict, list or
    set) and of each function or class, at any depth, decorated with
    ``lru_cache`` or ``cache`` (by name or as ``functools.`` attribute,
    called or not)."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")):
            found.extend((node.lineno, ast.unparse(t)) for t in targets)
    for node in ast.walk(tree):
        for deco in getattr(node, "decorator_list", ()):
            deco = deco.func if isinstance(deco, ast.Call) else deco
            name = deco.attr if isinstance(deco, ast.Attribute) else \
                getattr(deco, "id", None)
            if name in ("lru_cache", "cache"):
                found.append((node.lineno, node.name))
    return sorted(found)


def test_module_level_caches_are_found():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "KEPT = (1, 2)\nseen = {}\nlog: list = []\nmade = set()\n"
              "squares = [k * k for k in KEPT]\n"
              "@lru_cache(maxsize=None)\ndef a():\n    local = {}\n"
              "@cache\ndef b():\n    pass\n"
              "def c():\n    @functools.lru_cache\n    def d():\n"
              "        pass\n")
    assert module_level_caches(source) == [
        (4, "seen"), (5, "log"), (6, "made"), (7, "squares"), (9, "a"),
        (12, "b"), (16, "d")]


def test_verify_keeps_no_module_level_cache():
    """Every check of ``verify`` starts cold: whatever it memoizes lives
    for one call, so the module binds no dict, list or set and decorates
    nothing with a cache."""
    assert module_level_caches((SRC / "verify.py").read_text()) == []


def test_models_and_intertwiners_keep_no_other_module_level_cache():
    """``verify_svn`` builds its models afresh on every call, so a cache
    keyed by a model's id could hand a new model the tables of a dead one.
    A model keeps what it memoizes on itself, and ``intertwine`` memoizes
    only tables keyed by primes and sizes."""
    found = {name: [n for _line, n in module_level_caches(
        (SRC / name).read_text())] for name in ("heisenberg.py", "intertwine.py")}
    assert found == {"heisenberg.py": [],
                     "intertwine.py": ["_box_tables", "_inverse_gauss_power"]}
