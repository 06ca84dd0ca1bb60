"""Every name a module of the package imports is used in it (no linter
is a dependency, so this check stands in for one).  __init__.py re-exports
what it imports, so it is exempt."""

import ast
from pathlib import Path

import pytest

import ultrafit

MODULES = sorted(p for p in Path(ultrafit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom .core import a, b as c\nnp.zeros(a)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: c"]
