"""A lint of the library that needs nothing beyond the standard library.

It walks the syntax tree of every ``dgtwolevel`` module but the package
``__init__`` (whose imports are the public surface) and fails on

* an imported name that the module never reads, and
* a local that a function assigns but never reads, nested functions
  included in the reading; ``_`` is the name for a value left unread.
"""

import ast
from pathlib import Path

import pytest

import dgtwolevel

SOURCES = sorted(
    path for path in Path(dgtwolevel.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unread_import_or_local(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unread_imports(tree) == []
    assert unread_locals(tree) == []


def test_the_lint_sees_both_faults():
    tree = ast.parse(
        "import os\nimport math\n\n"
        "def f(x):\n    y, _ = x\n    z = math.pi\n    w = 2\n"
        "    def g():\n        return w\n    return g\n"
    )
    assert unread_imports(tree) == ["os"]
    assert unread_locals(tree) == ["f: y", "f: z"]
