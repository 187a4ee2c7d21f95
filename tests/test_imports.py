"""Every name a package module imports is used in that module, so a
deletion leaves no stale import behind, and no module imports another's
private (underscore-prefixed) name. ``__init__.py`` re-exports and is
exempt."""
import ast

import pytest

from conftest import REPO

MODULES = sorted(p for p in (REPO / "src" / "bcastopt").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    # An underscore-prefixed name is private to its module; a name another
    # package module needs is public.
    tree = ast.parse(path.read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("bcastopt"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
