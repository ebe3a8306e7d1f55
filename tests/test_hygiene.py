"""Source hygiene: every imported name is used in the module that imports it.

The check is a stdlib `ast` scan, since no linter is part of the toolchain.
The package `__init__.py` is left out: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
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
