"""Package hygiene: each module uses what it imports, and the public names resolve."""

import ast
from pathlib import Path

import pytest

import mcastmob

MODULES = sorted(Path(mcastmob.__file__).parent.glob("*.py"))


def _unused_imports(tree):
    """Names bound by an import that no expression reads and `__all__` does not export."""
    imported = set()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_every_exported_name_resolves():
    assert [name for name in mcastmob.__all__ if not hasattr(mcastmob, name)] == []
