import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ultrafit.cli import main, parse_points_csv, worker_cap

COLLINEAR_CSV = "0.0\n1.0\n3.0\n"


def run_cli(argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "ultrafit", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_fit_exact_merge_rows(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "dendro.txt")
    assert main(["fit", "--input", csv, "--algo", "exact", "--format", "merges", "--out", out]) == 0
    assert open(out).read() == "0 1 1.0 2\n3 2 3.0 3\n"
    sidecar = json.load(open(out + ".json"))
    assert sidecar["n"] == 3 and sidecar["d"] == 1 and sidecar["algorithm"] == "exact"
    assert set(sidecar["stage_timings_ms"]) == {"mst", "cutweight", "cartesian"}


def test_fit_empty_csv_exit_4(tmp_path):
    csv = write(tmp_path, "empty.csv", "")
    assert main(["fit", "--input", csv, "--algo", "exact"]) == 4


def test_fit_header_only_csv_exit_4(tmp_path):
    csv = write(tmp_path, "h.csv", "x,y\n")
    assert main(["fit", "--input", csv, "--algo", "exact"]) == 4


def test_fit_unknown_algorithm_exit_3(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    assert main(["fit", "--input", csv, "--algo", "slink"]) == 3


def test_fit_unknown_format_exit_3(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    assert main(["fit", "--input", csv, "--algo", "exact", "--format", "xml"]) == 3


def test_fit_malformed_csv_names_row_and_column(tmp_path, capsys):
    csv = write(tmp_path, "bad.csv", "0.0,1.0\n2.0,oops\n")
    assert main(["fit", "--input", csv, "--algo", "exact"]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "column 2" in err


def test_fit_ragged_csv_exit_2(tmp_path, capsys):
    csv = write(tmp_path, "ragged.csv", "0.0,1.0\n2.0\n")
    assert main(["fit", "--input", csv, "--algo", "exact"]) == 2
    assert "row 2" in capsys.readouterr().err


def test_fit_non_finite_rejected(tmp_path):
    csv = write(tmp_path, "inf.csv", "0.0\ninf\n")
    assert main(["fit", "--input", csv, "--algo", "exact"]) == 2


def test_parse_csv_header_autodetect_and_crlf(tmp_path):
    csv = write(tmp_path, "h.csv", "x,y\r\n0.0,0.0\r\n1.0,0.0\r\n")
    pts = parse_points_csv(csv)
    assert pts.n == 2 and pts.d == 2


def test_parse_csv_duplicate_rows_collapse_in_fit(tmp_path):
    csv = write(tmp_path, "dup.csv", "0.0\n0.0\n1.0\n")
    out = str(tmp_path / "d.txt")
    assert main(["fit", "--input", csv, "--algo", "exact", "--out", out]) == 0
    rows = open(out).read().splitlines()
    assert len(rows) == 2  # 3 leaves -> 2 merges, duplicates at height 0
    assert rows[0].split()[2] == "0.0"
    sidecar = json.load(open(out + ".json"))
    assert sidecar["n"] == 3 and sidecar["n_unique"] == 2


def test_fit_newick_output(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "t.nwk")
    assert main(["fit", "--input", csv, "--algo", "exact", "--format", "newick", "--out", out]) == 0
    assert open(out).read() == "((0:1,1:1):2,2:3);\n"


def test_fit_json_output(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "t.json")
    assert main(["fit", "--input", csv, "--algo", "exact", "--format", "json", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["n"] == 3
    assert doc["merges"] == [[0, 1, 1.0, 2], [3, 2, 3.0, 3]]


def test_fit_normalize_adds_scale_and_distortion(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "t.txt")
    assert main(
        ["fit", "--input", csv, "--algo", "single", "--normalize", "--out", out]
    ) == 0
    sidecar = json.load(open(out + ".json"))
    assert sidecar["scale"] == 1.5
    assert sidecar["max_distortion"] == 1.5


def test_fit_determinism_across_runs_and_threads(tmp_path):
    rng = np.random.default_rng(0)
    csv = write(tmp_path, "r.csv", "\n".join(",".join(map(str, row)) for row in rng.random((40, 3))))
    blobs = []
    for threads in ("1", "2", "4"):
        out = str(tmp_path / f"out{threads}.txt")
        proc = run_cli(
            ["fit", "--input", csv, "--algo", "approx", "--seed", "7", "--out", out],
            env={"ULTRAFIT_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(open(out, "rb").read())
    assert blobs[0] == blobs[1] == blobs[2]


def test_eval_round_trip_matches_fit(tmp_path):
    rng = np.random.default_rng(5)
    csv = write(tmp_path, "r.csv", "\n".join(str(x) for x in rng.random(25)))
    out = str(tmp_path / "d.txt")
    assert main(
        ["fit", "--input", csv, "--algo", "exact", "--normalize", "--out", out]
    ) == 0
    fit_side = json.load(open(out + ".json"))
    rep_out = str(tmp_path / "rep.json")
    assert main(["eval", "--input", csv, "--dendrogram", out, "--out", rep_out]) == 0
    rep = json.load(open(rep_out))
    assert rep["max"] == fit_side["max_distortion"]
    assert rep["n"] == 25


def test_eval_round_trip_with_duplicate_rows(tmp_path):
    csv = write(tmp_path, "dup.csv", "0.0\n0.0\n1.0\n3.0\n3.0\n")
    out = str(tmp_path / "d.txt")
    assert main(["fit", "--input", csv, "--algo", "exact", "--normalize", "--out", out]) == 0
    fit_side = json.load(open(out + ".json"))
    rep_out = str(tmp_path / "rep.json")
    assert main(["eval", "--input", csv, "--dendrogram", out, "--out", rep_out]) == 0
    rep = json.load(open(rep_out))
    assert rep["max"] == fit_side["max_distortion"]
    assert rep["n"] == 3  # deduped count


def test_eval_normalize_matches_fit_sidecar(tmp_path):
    rng = np.random.default_rng(8)
    csv = write(tmp_path, "r.csv", "\n".join(",".join(map(repr, row)) for row in rng.random((40, 3)).tolist()))
    raw = str(tmp_path / "raw.txt")
    fitted = str(tmp_path / "norm.txt")
    assert main(["fit", "--input", csv, "--algo", "single", "--out", raw]) == 0
    assert main(["fit", "--input", csv, "--algo", "single", "--normalize", "--out", fitted]) == 0
    fit_side = json.load(open(fitted + ".json"))
    rep_out = str(tmp_path / "rep.json")
    assert main(["eval", "--input", csv, "--dendrogram", raw, "--normalize", "--out", rep_out]) == 0
    rep = json.load(open(rep_out))
    assert rep["scale"] == fit_side["scale"]
    assert rep["max"] == fit_side["max_distortion"]
    # normalize rounds its factor up, so the output dominates the metric exactly
    assert rep["min"] >= 1.0
    assert rep["min"] == pytest.approx(1.0, rel=4 * np.finfo(float).eps)


def test_eval_leaf_count_mismatch_exit_5(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    dendro = write(tmp_path, "d.txt", "0 1 1.0 2\n")
    assert main(["eval", "--input", csv, "--dendrogram", dendro]) == 5


def test_eval_truncated_merge_file_exit_2(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    dendro = write(tmp_path, "d.txt", "0 1 1.0\n3 2 3.0 3\n")
    assert main(["eval", "--input", csv, "--dendrogram", dendro]) == 2


def test_eval_non_monotone_heights_exit_2(tmp_path, capsys):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    dendro = write(tmp_path, "d.txt", "0 1 2.0 2\n3 2 1.0 3\n")
    assert main(["eval", "--input", csv, "--dendrogram", dendro]) == 2
    assert "monotone" in capsys.readouterr().err


def test_compare_all_algorithms_table(tmp_path, capsys):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "cmp.json")
    code = main(["compare", "--input", csv, "--algo", "exact,single", "--seed", "1", "--out", out])
    assert code == 0
    table = capsys.readouterr().out
    assert "exact" in table and "single" in table
    doc = json.load(open(out))
    by_algo = {r["algorithm"]: r for r in doc["rows"]}
    assert by_algo["exact"]["max_distortion"] == pytest.approx(1.5)
    assert by_algo["single"]["max_distortion"] == pytest.approx(1.5)  # normalized


def test_compare_single_row(tmp_path, capsys):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    assert main(["compare", "--input", csv, "--algo", "exact"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith(("-", "algorithm"))]
    assert len(lines) == 1


def test_compare_unknown_algorithm_exit_3(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    assert main(["compare", "--input", csv, "--algo", "exact,upgma"]) == 3


def test_worker_cap_parsing(monkeypatch):
    monkeypatch.delenv("ULTRAFIT_THREADS", raising=False)
    assert worker_cap() == 1
    monkeypatch.setenv("ULTRAFIT_THREADS", "8")
    assert worker_cap() == 8
    monkeypatch.setenv("ULTRAFIT_THREADS", "junk")
    assert worker_cap() == 1
    monkeypatch.setenv("ULTRAFIT_THREADS", "-2")
    assert worker_cap() == 1


def test_console_entry_point_runs(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    proc = run_cli(["fit", "--input", csv, "--algo", "exact"])
    assert proc.returncode == 0
    assert proc.stdout == "0 1 1.0 2\n3 2 3.0 3\n"
