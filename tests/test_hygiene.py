"""Static checks that stand in for a linter: public names exist, imports are used."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "bo3").glob("*.py") if p.stem != "__init__")
SOURCES = sorted((ROOT / "src" / "bo3").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    module = importlib.import_module(f"bo3.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"bo3.{name}.__all__ names missing attributes: {missing}"


def _unused_imports(path: Path) -> list:
    """Names an import binds in the file and nothing reads.

    A name listed in ``__all__`` counts as read, and an import marked
    ``# noqa: F401`` (a deliberate re-export) is skipped.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1: node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {bound}")
    return unused


def test_no_unused_imports():
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
