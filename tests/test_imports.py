"""Every imported name is used: an AST scan of the package modules (not the
__init__ re-exports), the scripts and the tests, with the standard library
only.  Every module-level function and class of the package is named in
the package, the scripts or __all__, and every method of a package class
in the package modules, the scripts or the benchmark.  Every name the
benchmark tracer hooks exists."""

import ast
import importlib
import pathlib

import hermquot

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


def _named(tree):
    """Every identifier read or written, and every attribute read."""
    return _used(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _named_in(trees, users):
    """Every name _named finds in the trees or the user files."""
    return set().union(*map(_named, trees.values()), *map(_named, _trees(users).values()))


def unnamed_definitions(modules, users, exported):
    """(module, name, line) of every module-level function or class of the
    modules that no module or user names and exported does not hold; an
    import alone names nothing."""
    trees = _trees(modules)
    named = set(exported) | _named_in(trees, users)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (path.name, node.name, node.lineno)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, kinds) and node.name not in named
    ]


def test_every_definition_is_named():
    found = unnamed_definitions(
        sorted((_ROOT / "src" / "hermquot").glob("*.py")),
        sorted((_ROOT / "scripts").glob("*.py")),
        hermquot.__all__,
    )
    assert found == []


def test_scan_flags_an_unnamed_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from math import gcd\n"
        "def used(x):\n    return gcd(x, 2)\n"
        "def _leftover(n):\n    return n\n"
        "class Exported:\n    pass\n"
        "class _Helper:\n    pass\n"
        "def called_as_attribute():\n    pass\n"
    )
    other = tmp_path / "other.py"
    other.write_text("from mod import _leftover\nimport mod\nmod.called_as_attribute()\n")
    script = tmp_path / "script.py"
    script.write_text("print(used(3))\n")
    assert unnamed_definitions([mod, other], [script], ["Exported"]) == [
        ("mod.py", "_leftover", 4), ("mod.py", "_Helper", 8)
    ]


def unnamed_methods(modules, users):
    """(module, class, method, line) of every non-dunder method of a
    module-level class of the modules that no module or user names."""
    trees = _trees(modules)
    named = _named_in(trees, users)
    return [
        (path.name, cls.name, node.name, node.lineno)
        for path, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]


def test_every_method_is_named():
    # the tests do not count: a method only they call is a leftover
    found = unnamed_methods(
        [f for f in sorted((_ROOT / "src" / "hermquot").glob("*.py")) if f.name != "__init__.py"],
        sorted((_ROOT / "scripts").glob("*.py")) + sorted((_ROOT / "perfbench").glob("*.py")),
    )
    assert found == []


def test_scan_flags_an_unnamed_method(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class Ctx:\n"
        "    def __init__(self):\n        self.n = self.used()\n"
        "    def used(self):\n        return 1\n"
        "    def _leftover(self):\n        return 2\n"
        "    def called_elsewhere(self):\n        return 3\n"
        "    @property\n    def unread(self):\n        return 4\n"
        "def f(x):\n    return x\n"
    )
    script = tmp_path / "script.py"
    script.write_text("from mod import Ctx\nprint(Ctx().called_elsewhere())\n")
    assert unnamed_methods([mod], [script]) == [
        ("mod.py", "Ctx", "_leftover", 6), ("mod.py", "Ctx", "unread", 11)
    ]


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
