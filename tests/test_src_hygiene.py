"""Static checks of the package source, with the standard library's `ast`:
every import a module makes is used in it, and every private top-level
name is referenced somewhere in the package.  `__init__.py` only
re-exports, so its imports are exempt, as are `from __future__` imports and
dunder names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rolling_twistor"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _imported_names(tree):
    """(bound name, line) of each top-level or nested import of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _loaded_names(tree):
    """Every name the module reads, and every attribute it reads off a name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _private_definitions(tree):
    """(name, line) of the module's private top-level functions, classes
    and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = set(_loaded_names(tree))
    unused = [f"{module}:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert not unused


def test_every_private_top_level_name_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced.update(_loaded_names(tree))
        referenced.update(alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for alias in node.names)
    unreferenced = [f"{module}:{line} {name}" for module, tree in MODULES.items()
                    for name, line in _private_definitions(tree) if name not in referenced]
    assert not unreferenced
