"""Source hygiene: every imported name is used in the module that imports it,
and every private module-level name, every method of a private class and every
module-level UPPER_CASE constant in the package is used somewhere in it.

The checks are stdlib `ast` scans, since no linter is part of the toolchain.
The package `__init__.py` is left out of the import check: its imports are the
public re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/qtorus").glob("*.py"))
SOURCES = sorted(
    p for d in ("src/qtorus", "tests", "scripts") for p in (ROOT / d).glob("*.py")
    if p.relative_to(ROOT).as_posix() != "src/qtorus/__init__.py"
)


def unused_imports(source: str):
    """(line, name) of each name an import binds and no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in used)


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"dynamics.py", "test_hygiene.py", "redundancy_sweep.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    src = ("from __future__ import annotations\nimport os\nimport os.path\n"
           "import numpy as np\nfrom x import a, b\n\ndef f(g: a):\n    return np.pi\n")
    assert unused_imports(src) == [(2, "os"), (3, "os"), (5, "b")]


def private_definitions(tree):
    """Module-level functions, classes and constants named _x, the methods of
    such classes (dunders excepted throughout), and module-level constants
    named in UPPER_CASE."""
    names, methods = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            methods += [item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in names
            if (name.startswith("_") and not name.startswith("__")) or name.isupper()
            ] + [name for name in methods if not name.startswith("__")]


def unreferenced_privates(sources: dict):
    """(module, name) of each private definition or constant that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, tree in trees.items()
                  for name in private_definitions(tree) if name not in read)


def test_package_private_names_are_all_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert "dynamics.py" in sources
    assert unreferenced_privates(sources) == []


def test_scan_flags_an_unreferenced_private():
    sources = {"a.py": "_A = 1\n_B: int = 2\n__all__ = []\n\ndef _f():\n    return _A\n\n"
                       "class _C:\n    def __init__(self):\n        pass\n\n"
                       "    def used(self):\n        pass\n\n"
                       "    def orphan(self):  # a body left with no caller\n        pass\n\n"
                       "def g():\n    return m._C().used()\n",
               "b.py": "from a import _B\n\ndef _h(_f):\n    _f = 3\n\n"
                       "class Public:\n    def spare(self):\n        pass\n",
               "c.py": "BLOCK = 256\nCHUNK = 16  # orphaned\nTAG: str = 'x'\nlower = 1\n\n"
                       "def f(x=BLOCK):\n    return b.TAG\n"}
    assert unreferenced_privates(sources) == [("a.py", "_B"), ("a.py", "_f"), ("a.py", "orphan"),
                                              ("b.py", "_h"), ("c.py", "CHUNK")]
