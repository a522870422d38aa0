"""Static checks that keep dead code out of the package."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "cubechar").glob("*.py"))


def _loaded_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [name for name in imported if name not in _loaded_names(tree)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text())
    private = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert [name for name in private if name not in _loaded_names(tree)] == []
