"""A lint of the library that needs nothing beyond the standard library.

It walks the syntax tree of every ``dgtwolevel`` module but the package
``__init__`` (whose imports are the public surface) and fails on

* an imported name that the module never reads,
* a local that a function assigns but never reads, nested functions
  included in the reading; ``_`` is the name for a value left unread, and
* a private module-level function, class or constant (one name with a
  leading underscore, not a dunder) that no module of the package reads,
  by name, as an attribute or in an import; tests do not count.
"""

import ast
from pathlib import Path

import pytest

import dgtwolevel

PACKAGE = sorted(Path(dgtwolevel.__file__).parent.glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]


def _loaded(node: ast.AST) -> set:
    """Names read anywhere under ``node``; an augmented assignment reads its target."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    names.update(
        n.target.id for n in ast.walk(node) if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)
    )
    return names


def unread_imports(tree: ast.Module) -> list:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    loaded = _loaded(tree)
    return sorted(name for name in imported if name not in loaded)


def unread_locals(tree: ast.Module) -> list:
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {
            name
            for node in ast.walk(function)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        stored = {
            node.id
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        loaded = _loaded(function)
        found += [f"{function.name}: {name}" for name in sorted(stored - loaded - declared - {"_"})]
    return found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def read_names(tree: ast.Module) -> set:
    """Names a module reads: loaded, taken as an attribute or imported."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_privates(tree: ast.Module, package: list) -> list:
    """Private module-level names of ``tree`` that no module of
    ``package``, a list of syntax trees, reads."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    read = set().union(*map(read_names, package))
    return sorted(name for name in set(defined) if _private(name) and name not in read)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unread_import_or_local(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unread_imports(tree) == []
    assert unread_locals(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unread_private_name(path):
    assert unread_privates(_parse(path), list(map(_parse, PACKAGE))) == []


def test_the_lint_sees_both_faults():
    tree = ast.parse(
        "import os\nimport math\n\n"
        "def f(x):\n    y, _ = x\n    z = math.pi\n    w = 2\n"
        "    def g():\n        return w\n    return g\n"
    )
    assert unread_imports(tree) == ["os"]
    assert unread_locals(tree) == ["f: y", "f: z"]


def test_the_lint_sees_an_unread_private_name():
    module = ast.parse(
        "_SERIES = (1, 2)\n_LIMIT: float = 1e-3\n_A = _B = 0\n__all__ = []\n\n"
        "def _unused():\n    return _LIMIT\n\n"
        "def _used():\n    pass\n\n"
        "class _Named:\n    pass\n\n"
        "class _Unread:\n    pass\n\n"
        "def public():\n    return _used()\n"
    )
    other = ast.parse("from .module import _Named\nfrom . import module\nmodule._A\n")
    assert unread_privates(module, [module, other]) == ["_B", "_SERIES", "_Unread", "_unused"]
