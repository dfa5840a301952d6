"""Every imported name is used: an AST scan of the package modules (not the
__init__ re-exports), the scripts and the tests, with the standard library
only.  Every name the benchmark tracer hooks exists."""

import ast
import importlib
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sources():
    yield from (f for f in sorted((_ROOT / "src" / "hermquot").glob("*.py"))
                if f.name != "__init__.py")
    yield from sorted((_ROOT / "scripts").glob("*.py"))
    yield from sorted((_ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every identifier read or written, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _used(ast.parse(note.value, mode="eval"))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(_ROOT)}:{line}: {name}"
        for path in _sources()
        for name, line in unused_imports(path)
    ]
    assert found == []


def test_scan_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import comb, gcd\n"
        "def f(x: \"Fraction\") -> int:\n    return comb(x, 2) + j.loads('1')\n"
        "from fractions import Fraction\n"
    )
    assert unused_imports(src) == [("os", 2), ("gcd", 4)]


def test_tracer_targets_exist():
    # TARGETS read from the source, not imported, so nothing is written
    # under perfbench/; a method must sit in its class's own __dict__
    tree = ast.parse((_ROOT / "perfbench" / "tracer.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    targets = ast.literal_eval(value)
    assert targets
    missing = []
    for mod_name, cls_name, attr, _ in targets:
        mod = importlib.import_module("hermquot." + mod_name)
        if cls_name is None:
            found = callable(getattr(mod, attr, None))
        else:
            found = attr in vars(getattr(mod, cls_name, object))
        if not found:
            missing.append((mod_name, cls_name, attr))
    assert missing == []
