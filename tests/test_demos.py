"""The demos run to completion (demo 04, a timing sweep, is left out), and
every demo compiles and imports only names that ultrafit has."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize(
    "demo", ["01_exact_fit.py", "02_fast_approximation.py", "03_linkage_comparison.py"]
)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_compiles_and_its_ultrafit_imports_resolve(demo):
    path = ROOT / "demos" / demo
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    compile(tree, str(path), "exec")
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ultrafit"
        for alias in node.names
    ]
    assert names
    missing = [f"{mod}.{name}" for mod, name in names if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
