"""Source hygiene: every imported name is used in the module that imports it,
and every private module-level name, every method of a private class and every
module-level UPPER_CASE constant in the package is used somewhere in it.
Integer type tests live in errors alone, band limits are read off a window
and compared in grids alone, and the run record is built and written in
cli.run alone.  Every row of the mutation table finds its old
text, so a stale mutant shows here, not only in the slow mutation run.

The checks are stdlib `ast` scans, since no linter is part of the toolchain.
The package `__init__.py` is left out of the import check: its imports are the
public re-exports.
"""

import ast
import importlib.util
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


def integer_type_tests(source: str):
    """(line, text) of each integer type test: a reference to numbers.Integral
    or np.integer, or an isinstance of int.  In the package these belong in
    errors._require_integer alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (node.attr == "Integral" or (
                node.attr == "integer" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "Integral":
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            found += [(node.lineno, "int") for kind in kinds
                      if isinstance(kind, ast.Name) and kind.id == "int"]
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_integer_type_tests_only_in_errors(path):
    assert integer_type_tests(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_integer_type_test():
    src = ("import numbers\nimport numpy as np\nfrom numbers import Integral\n\n"
           "def f(n, k, l):\n    if not isinstance(n, (int, np.integer)):\n        pass\n"
           "    if isinstance(k, numbers.Integral) or isinstance(l, Integral):\n        pass\n"
           "    return type(n) is int, isinstance(n, float), np.iinfo(np.int64)\n")
    assert integer_type_tests(src) == [(6, "int"), (6, "np.integer"), (8, "Integral"),
                                       (8, "numbers.Integral")]


def band_limit_rules(source: str):
    """(line, text) of each parity test (x % 2) and each == or != comparison
    with a .n attribute.  In the package these belong in grids alone, where
    _window_band_limit reads N off a window and require_same_size compares
    band limits."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant) and node.right.value == 2):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                isinstance(side, ast.Attribute) and side.attr == "n"
                for side in [node.left, *node.comparators]):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "grids.py"],
                         ids=lambda p: p.name)
def test_band_limit_rules_only_in_grids(path):
    assert band_limit_rules(path.read_text(encoding="utf-8")) == []


def test_scan_flags_a_band_limit_rule():
    src = ("def f(x, a, b, m):\n    if m % 2 != 1:\n        pass\n"
           "    if a.n != b.n or 3 == x.lam.n:\n        pass\n"
           "    return x.n is None, x.n < 2, m % 3, m // 2, a.m == b.m\n")
    assert band_limit_rules(src) == [(2, "m % 2"), (4, "3 == x.lam.n"), (4, "a.n != b.n")]


def run_records_outside_run(source: str, module: str):
    """(line, text) of each RunManifest(...) construction or .write_for(...) call
    outside cli.run.  The CLI's run builds every run's record from the roles of
    its arguments and writes every sidecar; a handler does neither."""
    found = []
    for top in ast.parse(source).body:
        if module == "cli.py" and isinstance(top, ast.FunctionDef) and top.name == "run":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "RunManifest"
                    or getattr(node.func, "attr", None) in ("RunManifest", "write_for")):
                found.append((node.lineno, ast.unparse(node.func)))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_run_record_only_in_cli_run(path):
    assert run_records_outside_run(path.read_text(encoding="utf-8"), path.name) == []


def test_scan_flags_a_run_record_outside_run():
    src = ("from .gridio import RunManifest\nfrom . import gridio\n\n"
           "def cmd_x(args):\n    m = RunManifest([], {})\n    m.write_for(args.out)\n\n"
           "def run(argv):\n    manifest = RunManifest([], {})\n    manifest.write_for('o')\n\n"
           "class Sidecar:\n    def write_for(self, path):\n        gridio.RunManifest([], {})\n")
    assert run_records_outside_run(src, "cli.py") == [(5, "RunManifest"), (6, "m.write_for"),
                                                      (14, "gridio.RunManifest")]
    assert run_records_outside_run(src, "gridio.py") == [
        (5, "RunManifest"), (6, "m.write_for"), (9, "RunManifest"), (10, "manifest.write_for"),
        (14, "gridio.RunManifest")]


def stale_mutants(rows, root: pathlib.Path):
    """Name of each (name, file, old text, ...) row whose old text is not in its file."""
    return [row[0] for row in rows if row[2] not in (root / row[1]).read_text(encoding="utf-8")]


def test_every_mutant_finds_its_old_text():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutation/test_mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)  # builds the table; no mutant runs
    assert len(mutants.MUTANTS) > 50
    assert stale_mutants(mutants.MUTANTS, ROOT) == []


def test_scan_flags_a_stale_mutant(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    rows = [("kept", "a.py", "x = 1", "x = 2", ["t"]), ("stale", "a.py", "y = 1", "", ["t"])]
    assert stale_mutants(rows, tmp_path) == ["stale"]
