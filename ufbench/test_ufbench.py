"""Self-tests of the benchmark: python3 -m pytest -q ufbench"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tr
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = 0.2


def _smoke(name, trace, tmp_path, tamper=None):
    return run.run_workload(WORKLOADS[name].smoke(), 1, SMOKE_SECONDS, trace, tmp_path, tamper)


def _no_wrappers():
    return not [site for site in tr.all_sites() if tr.is_wrapped(run._lookup(site))]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    rec = _smoke(name, False, tmp_path)
    assert rec["problems"] == [] and rec["correct"] and rec["failed"] == 0
    assert rec["attempted"] == 1 + run.MIN_OPS  # warm-up and timed ops
    assert list(rec["metrics"]) == list(run.END_TO_END_UNITS)
    for name_, m in rec["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name_
    assert _no_wrappers()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name, tmp_path):
    rec = _smoke(name, True, tmp_path)
    assert rec["problems"] == [] and rec["correct"]
    assert list(rec["metrics"]) == list(tr.per_layer_units())
    layers = sum(rec["metrics"][f"{layer}.self_s"]["value"] for layer in tr.LAYERS)
    assert layers == pytest.approx(rec["metrics"]["trace.op_s"]["value"], rel=1e-6)
    assert rec["metrics"]["core.cdist_calls"]["value"] > 0
    assert {s["op"] for s in rec["spans"]} == set(range(1, rec["samples"] + 1))
    assert _no_wrappers()


def _rewrite_merges(out: Path, edit):
    rows = [line.split() for line in out.read_text().splitlines()]
    out.write_text("\n".join(" ".join(edit(i, r)) for i, r in enumerate(rows)) + "\n")


def halve_heights(out):
    _rewrite_merges(out, lambda i, r: [r[0], r[1], repr(float(r[2]) / 2), r[3]])


def swap_first_row(out):
    _rewrite_merges(out, lambda i, r: [r[1], r[0], r[2], r[3]] if i == 0 else r)


def perturb_compare_row(out):
    doc = json.loads(out.read_text())
    doc["rows"][1]["max_distortion"] *= 1.0 + 1e-12
    out.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "name,tamper",
    [
        ("approx-blobs-11k", halve_heights),
        ("approx-blobs-11k", swap_first_row),
        ("compare-highd-1800", perturb_compare_row),
    ],
)
def test_corrupted_output_counts_as_failed(name, tamper, tmp_path):
    rec = _smoke(name, False, tmp_path, tamper)
    # every op after the reference (the warm-up) is corrupted
    assert rec["failed"] == rec["attempted"] - 1
    assert rec["metrics"]["ok_frac"]["value"] == pytest.approx(1 / rec["attempted"])
    assert not rec["correct"]
    assert any("differs from the run's first op" in p for p in rec["problems"])


def test_wrappers_are_refused_during_an_untraced_op(tmp_path):
    w = WORKLOADS["compare-highd-1800"].smoke()
    cli = run.load_program()
    csv = tmp_path / "in.csv"
    from workloads import write_csv

    write_csv(csv, w.points(1))
    runner = run.Runner(cli, w, csv, tmp_path)
    with tr.installed(tr.Tracer().wrappers()):
        with pytest.raises(RuntimeError, match="wrappers left installed"):
            runner.run("timed")
    assert _no_wrappers()
    assert runner.run("timed").problems == []


def test_seed_fixes_the_inputs():
    for w in WORKLOADS.values():
        s = w.smoke()
        assert np.array_equal(s.points(3), s.points(3))
        assert not np.array_equal(s.points(3), s.points(4))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.per_layer_units()
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ufbench", tmp_path / "ufbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ufbench/run.py", "--workload", "compare-highd-1800", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "ultrafit sources not found" in proc.stderr
