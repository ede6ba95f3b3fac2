"""Checks on the library's source text."""
import ast
from pathlib import Path

import pytest

import smartlong

MODULES = sorted(p for p in Path(smartlong.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    # a name left imported after the code that used it is deleted
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(f"{name} (line {line})" for line, name in unused)
