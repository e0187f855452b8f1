"""Package hygiene: each module and test module uses what it imports, the package
imports nothing outside the standard library, and the public names resolve."""

import ast
import sys
from pathlib import Path

import pytest

import mcastmob

MODULES = sorted(Path(mcastmob.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
BENCH_MODULES = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


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


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda path: path.stem if path in MODULES else f"tests/{path.stem}")
def test_every_import_is_used(path):
    assert _unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_imports_only_the_standard_library(path):
    """Every module the package imports is in the standard library or the package itself."""
    allowed = sys.stdlib_module_names | {mcastmob.__name__}
    outside = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []  # a relative import is the package's
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in allowed]
    assert outside == []


@pytest.mark.parametrize("path", MODULES + TEST_MODULES + BENCH_MODULES,
                         ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_no_starred_subscript(path):
    """`x[a, *b]` is Python 3.11 syntax, and the package supports 3.10.

    The syntax tree of `x[(a, *b)]`, which 3.10 takes, is the same, and
    `ast.parse(..., feature_version=(3, 10))` accepts both, so every star in
    a subscript is refused: bind the key first.
    """
    starred = [node.lineno for node in ast.walk(_parse(path)) if isinstance(node, ast.Subscript)
               and any(isinstance(part, ast.Starred)
                       for part in getattr(node.slice, "elts", [node.slice]))]
    assert starred == []


def test_every_exported_name_resolves():
    assert [name for name in mcastmob.__all__ if not hasattr(mcastmob, name)] == []
