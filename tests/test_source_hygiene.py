"""No dead imports or helpers in the package modules.

Every module-level import of a module other than ``__init__`` must be used in
that module, and every module-private top-level name (one leading underscore)
must be referenced in the module that defines it.  Read with ``ast`` only, so
nothing is imported or run.
"""

import ast
from pathlib import Path

import pytest

import relugeo

MODULES = sorted(p for p in Path(relugeo.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _loaded_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _imported(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported(tree)) - _loaded_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_top_level_names_are_referenced(path):
    tree = ast.parse(path.read_text())
    dead = sorted(set(_private_definitions(tree)) - _loaded_names(tree))
    assert not dead, f"{path.name} defines {dead} but never refers to them"
