"""The benchmark's tracer (ufbench/tracer.py) wraps ultrafit functions by
module and attribute name, so renaming one in src/ breaks traced runs.
This test reads the tracer's site list; it does not install any wrapper."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "ufbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("ufbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves():
    sites = _tracer().all_sites()
    assert sites
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sites
        if not (mod.startswith("ultrafit.") and callable(getattr(importlib.import_module(mod), attr, None)))
    ]
    assert missing == []
