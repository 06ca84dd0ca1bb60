import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ultrafit import PointSet, normalize, parse_merge_list
from ultrafit import cli as cli_mod
from ultrafit import dendro as dendro_mod
from ultrafit import core as core_mod
from ultrafit.cli import EXIT_BAD_INPUT, EXIT_EMPTY, CliError, main, parse_points_csv
from ultrafit.core import cross_distances

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
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_fit_exact_merge_rows(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "dendro.txt")
    assert main(["fit", "--input", csv, "--algo", "exact", "--format", "merges", "--out", out]) == 0
    assert Path(out).read_text() == "0 1 1.0 2\n3 2 3.0 3\n"
    sidecar = json.loads(Path(out + ".json").read_text())
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


@pytest.mark.parametrize("algo", ["approx", "exact", "average"])
def test_fit_rejects_coordinates_whose_distances_overflow(tmp_path, capsys, algo):
    # finite coordinates whose pairwise distances exceed float64: approx used
    # to write NaN scale and distortion, exact and average to fail inside
    x = np.random.default_rng(0).random((50, 4)) * 1e160
    csv = write(tmp_path, "far.csv", "\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")
    out = str(tmp_path / "dendro.txt")
    assert main(["fit", "--normalize", "--algo", algo, "--input", csv, "--out", out]) == EXIT_BAD_INPUT
    assert "squared bounding-box diameter overflows" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("scale", [1e153, 4e153])
def test_fit_ward_refuses_coordinates_its_update_overflows(tmp_path, capsys, scale):
    # the squared diameter is finite, but ward's size-weighted squares are
    # not: it used to warn and fail on a garbled merge list
    x = np.random.default_rng(0).random((50, 4)) * scale
    csv = write(tmp_path, "far.csv", "\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")
    out = str(tmp_path / "dendro.txt")
    assert main(["fit", "--normalize", "--algo", "ward", "--input", csv, "--out", out]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "ward linkage would overflow float64" in err
    assert not os.path.exists(out)
    for algo in ("average", "approx"):
        assert main(["fit", "--normalize", "--algo", algo, "--input", csv, "--out", out]) == 0


def test_parse_csv_header_autodetect_and_crlf(tmp_path):
    csv = write(tmp_path, "h.csv", "x,y\r\n0.0,0.0\r\n1.0,0.0\r\n")
    pts = parse_points_csv(csv)
    assert pts.n == 2 and pts.d == 2


def test_parse_csv_duplicate_rows_collapse_in_fit(tmp_path):
    csv = write(tmp_path, "dup.csv", "0.0\n0.0\n1.0\n")
    out = str(tmp_path / "d.txt")
    assert main(["fit", "--input", csv, "--algo", "exact", "--out", out]) == 0
    rows = Path(out).read_text().splitlines()
    assert len(rows) == 2  # 3 leaves -> 2 merges, duplicates at height 0
    assert rows[0].split()[2] == "0.0"
    sidecar = json.loads(Path(out + ".json").read_text())
    assert sidecar["n"] == 3 and sidecar["n_unique"] == 2


def test_fit_newick_output(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "t.nwk")
    assert main(["fit", "--input", csv, "--algo", "exact", "--format", "newick", "--out", out]) == 0
    assert Path(out).read_text() == "((0:1,1:1):2,2:3);\n"


def test_fit_json_output(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "t.json")
    assert main(["fit", "--input", csv, "--algo", "exact", "--format", "json", "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["n"] == 3
    assert doc["merges"] == [[0, 1, 1.0, 2], [3, 2, 3.0, 3]]


def test_fit_normalize_adds_scale_and_distortion(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "t.txt")
    assert main(
        ["fit", "--input", csv, "--algo", "single", "--normalize", "--out", out]
    ) == 0
    sidecar = json.loads(Path(out + ".json").read_text())
    assert sidecar["scale"] == 1.5
    assert sidecar["max_distortion"] == 1.5


def test_fit_determinism_across_runs_and_threads(tmp_path):
    # --normalize runs the evaluator, whose screened blocks (300 points have
    # merges above the screening size) rank entries with BLAS GEMMs
    rng = np.random.default_rng(0)
    csv = write(tmp_path, "r.csv", "\n".join(",".join(map(str, row)) for row in rng.random((300, 3))))
    blobs = []
    for threads in ("1", "2", "4"):
        out = str(tmp_path / f"out{threads}.txt")
        proc = run_cli(
            ["fit", "--input", csv, "--algo", "approx", "--seed", "7", "--normalize", "--out", out],
            env={var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(Path(out).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_eval_round_trip_matches_fit(tmp_path):
    rng = np.random.default_rng(5)
    csv = write(tmp_path, "r.csv", "\n".join(str(x) for x in rng.random(25)))
    out = str(tmp_path / "d.txt")
    assert main(
        ["fit", "--input", csv, "--algo", "exact", "--normalize", "--out", out]
    ) == 0
    fit_side = json.loads(Path(out + ".json").read_text())
    rep_out = str(tmp_path / "rep.json")
    assert main(["eval", "--input", csv, "--dendrogram", out, "--out", rep_out]) == 0
    rep = json.loads(Path(rep_out).read_text())
    assert rep["max"] == fit_side["max_distortion"]
    assert rep["n"] == 25


def test_eval_round_trip_with_duplicate_rows(tmp_path):
    csv = write(tmp_path, "dup.csv", "0.0\n0.0\n1.0\n3.0\n3.0\n")
    out = str(tmp_path / "d.txt")
    assert main(["fit", "--input", csv, "--algo", "exact", "--normalize", "--out", out]) == 0
    fit_side = json.loads(Path(out + ".json").read_text())
    rep_out = str(tmp_path / "rep.json")
    assert main(["eval", "--input", csv, "--dendrogram", out, "--out", rep_out]) == 0
    rep = json.loads(Path(rep_out).read_text())
    assert rep["max"] == fit_side["max_distortion"]
    assert rep["n"] == 3  # deduped count


@pytest.mark.parametrize("normalize", [[], ["--normalize"]], ids=["raw", "normalize"])
@pytest.mark.parametrize("text", ["1,2\n", "1,2\n1,2\n1,2\n"], ids=["one-row", "all-duplicates"])
def test_eval_of_one_distinct_point_reports_nulls(tmp_path, text, normalize):
    # fit writes a merge list for such an input, so eval reads it back
    csv = write(tmp_path, "pts.csv", text)
    out = str(tmp_path / "d.txt")
    assert main(["fit", "--input", csv, "--out", out]) == 0
    rep_out = str(tmp_path / "rep.json")
    assert main(["eval", "--input", csv, "--dendrogram", out, "--out", rep_out, *normalize]) == 0
    rep = json.loads(Path(rep_out).read_text())
    assert rep == {"max": None, "min": None, "mean": None, "argmax_pair": None, "n": 1, "algorithm": "", "scale": None}


def test_eval_normalize_matches_fit_sidecar(tmp_path):
    rng = np.random.default_rng(8)
    csv = write(tmp_path, "r.csv", "\n".join(",".join(map(repr, row)) for row in rng.random((40, 3)).tolist()))
    raw = str(tmp_path / "raw.txt")
    fitted = str(tmp_path / "norm.txt")
    assert main(["fit", "--input", csv, "--algo", "single", "--out", raw]) == 0
    assert main(["fit", "--input", csv, "--algo", "single", "--normalize", "--out", fitted]) == 0
    fit_side = json.loads(Path(fitted + ".json").read_text())
    rep_out = str(tmp_path / "rep.json")
    assert main(["eval", "--input", csv, "--dendrogram", raw, "--normalize", "--out", rep_out]) == 0
    rep = json.loads(Path(rep_out).read_text())
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


def test_eval_merge_list_separating_copies_exit_2(tmp_path, capsys):
    csv = write(tmp_path, "pts.csv", "0\n0\n1\n")
    dendro = write(tmp_path, "d.txt", "0 2 1.0 2\n3 1 2.0 3\n")
    assert main(["eval", "--input", csv, "--dendrogram", dendro]) == 2
    assert "copies of a duplicate point are separated: rows 0, 1" in capsys.readouterr().err


def test_compare_all_algorithms_table(tmp_path, capsys):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "cmp.json")
    code = main(["compare", "--input", csv, "--algo", "exact,single", "--seed", "1", "--out", out])
    assert code == 0
    table = capsys.readouterr().out
    assert "exact" in table and "single" in table
    doc = json.loads(Path(out).read_text())
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


def test_compare_rows_of_the_mst_fitters_equal_separate_fits(tmp_path):
    # acc, exact and single share one exact MST in compare; each fit below
    # parses its own point set and computes its own
    rng = np.random.default_rng(12)
    x = rng.random((200, 6))
    x[150:] = x[:50]  # duplicates: compare and fit both dedupe
    csv = write(tmp_path, "r.csv", "\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")
    cmp_out = str(tmp_path / "cmp.json")
    assert main(["compare", "--input", csv, "--algo", "acc,exact,single", "--out", cmp_out]) == 0
    rows = {r["algorithm"]: r for r in json.loads(Path(cmp_out).read_text())["rows"]}
    for algo in ("acc", "exact", "single"):
        out = str(tmp_path / f"{algo}.txt")
        assert main(["fit", "--input", csv, "--algo", algo, "--normalize", "--out", out]) == 0
        side = json.loads(Path(out + ".json").read_text())
        assert (rows[algo]["max_distortion"], rows[algo]["scale"]) == (side["max_distortion"], side["scale"]), algo


def test_linkage_larger_than_the_memory_available_exits_2(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(13)
    csv = write(tmp_path, "r.csv", "\n".join(",".join(map(repr, row)) for row in rng.random((40, 3)).tolist()))
    monkeypatch.setattr(core_mod, "_available_bytes", lambda: 1000)
    out = str(tmp_path / "d.txt")
    for argv in (["fit", "--algo", "average", "--out", out], ["compare"]):
        assert main([*argv, "--input", csv]) == EXIT_BAD_INPUT, argv
        err = capsys.readouterr().err
        assert "n = 40 needs an n x n distance matrix of 12800 bytes, but only 1000 bytes" in err, argv
    assert not os.path.exists(out)
    assert main(["compare", "--input", csv, "--algo", "approx,acc,exact,single"]) == 0


def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    dendro = write(tmp_path, "d.txt", "0 1 1.0 2\n3 2 3.0 3\n")
    evaluate = ["eval", "--input", csv, "--dendrogram", dendro]
    for argv in (
        [*evaluate, "--gamma", "2.0"],
        [*evaluate, "--seed", "1"],
        ["compare", "--input", csv, "--algo", "exact", "--normalize"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(evaluate) == 0  # the same call without the flag parses


def test_spanner_flags_on_a_fit_without_spanner_are_usage_errors(tmp_path, capsys):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    for algo in ("acc", "exact", "single", "average"):
        for flag, value in (("--gamma", "9"), ("--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["fit", "--input", csv, "--algo", algo, flag, value])
            assert exc.value.code == 2, (algo, flag)
            assert f"{flag} applies to --algo approx only" in capsys.readouterr().err
        assert main(["fit", "--input", csv, "--algo", algo]) == 0
    # approx reads them, and compare passes them to its approx row
    assert main(["fit", "--input", csv, "--algo", "approx", "--gamma", "9", "--seed", "1"]) == 0
    assert main(["compare", "--input", csv, "--algo", "approx,average", "--gamma", "9", "--seed", "1"]) == 0


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--gamma", "inf", "gamma must be a finite number >= 1, got inf"),
        ("--gamma", "nan", "gamma must be a finite number >= 1, got nan"),
        ("--gamma", "0.5", "gamma must be a finite number >= 1, got 0.5"),
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ],
)
def test_spanner_flags_out_of_range_exit_2_naming_the_flag(tmp_path, capsys, flag, value, message):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    out = str(tmp_path / "t.txt")
    for argv in (["fit", "--algo", "approx", "--out", out], ["compare", "--algo", "approx,average"]):
        assert main([argv[0], "--input", csv, *argv[1:], flag, value]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert f"error: {message}\n" == captured.err and captured.out == ""
    assert not os.path.exists(out) and not os.path.exists(out + ".json")


def test_fit_sidecar_names_gamma_and_seed_only_when_the_fit_used_them(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)

    def spanner_keys(*argv):
        out = str(tmp_path / "t.txt")
        assert main(["fit", "--input", csv, *argv, "--out", out]) == 0
        side = json.loads(Path(out + ".json").read_text())
        return {k: side[k] for k in ("gamma", "seed") if k in side}

    assert spanner_keys("--algo", "approx") == {"gamma": 2.5, "seed": 0}
    assert spanner_keys("--algo", "approx", "--gamma", "3", "--seed", "7") == {"gamma": 3.0, "seed": 7}
    for algo in ("acc", "exact", "single", "average", "ward"):
        assert spanner_keys("--algo", algo) == {}


def test_console_entry_point_runs(tmp_path):
    csv = write(tmp_path, "pts.csv", COLLINEAR_CSV)
    proc = run_cli(["fit", "--input", csv, "--algo", "exact"])
    assert proc.returncode == 0
    assert proc.stdout == "0 1 1.0 2\n3 2 3.0 3\n"


# -- the per-cell CSV loop the line parser replaced, kept as the oracle


def _cell_loop_parse(path):
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        parsed = []
        bad_col = None
        for ci, cell in enumerate(cells, start=1):
            try:
                val = float(cell)
                if not np.isfinite(val):
                    raise ValueError
                parsed.append(val)
            except ValueError:
                bad_col = ci
                break
        if bad_col is not None:
            if not rows and ln == 1:
                continue  # header row
            raise CliError(EXIT_BAD_INPUT, f"{path}: row {ln}, column {bad_col}: not a finite number")
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise CliError(EXIT_BAD_INPUT, f"{path}: row {ln}: expected {width} columns, got {len(parsed)}")
        rows.append(parsed)
    if not rows:
        raise CliError(EXIT_EMPTY, f"{path}: no data rows")
    return PointSet(np.array(rows, dtype=np.float64))


def _random_csv(rng):
    """A CSV mixing the cases the parser must keep: headers, blank and
    whitespace lines, CRLF, padded and unusual number spellings (some only
    float() reads), the extremes of float64, and now and then a bad cell, a
    non-finite cell or a ragged row.  Most files have 0-7 rows; one in six
    has a few hundred, with those cases rare or absent, for the C reader."""
    d = int(rng.integers(1, 5))
    cells = ["0", "-1.5", " 2.25 ", "\t3e-2", "1E+3", "+.5", "7.", "1_000.5", " 4 ", "-0.0",
             "\u0661\u0662", "\xa05", "5e-324", "1.7976931348623157e308",
             repr(float(rng.standard_normal()))]
    odd = ["inf", "-inf", "nan", "1e999", "x", "", "1,5", "0x10", "--1", "1e", " "]
    big = rng.random() < 1 / 6
    # scales the chance of every irregular line and spelling in a long file
    rate = float(rng.choice([0.0, 0.002, 0.02])) if big else 1.0
    lines = []
    if rng.random() < 0.4:
        lines.append(",".join(rng.choice(["x", "y", "nan", "inf", "1.0", "label"], d)))
    for _ in range(int(rng.integers(100, 400)) if big else int(rng.integers(0, 8))):
        r = rng.random()
        if r < 0.1 * rate:
            lines.append(rng.choice(["", "   ", "\t"]))
            continue
        width = d + (int(rng.choice([-1, 1])) if r < 0.16 * rate and d > 1 else 0)
        row = [rng.choice(cells) if rng.random() < 0.5 * rate else repr(float(rng.random() * 10)) for _ in range(width)]
        if r > 1 - 0.07 * rate:
            row[int(rng.integers(0, width))] = rng.choice(odd)
        lines.append(",".join(row))
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.7 else "")


def test_parse_csv_matches_cell_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(20)
    line_loop = cli_mod._parse_lines
    fell_back = []
    monkeypatch.setattr(cli_mod, "_parse_lines", lambda *a: fell_back.append(True) or line_loop(*a))
    outcomes = set()
    for i in range(400):
        path = write(tmp_path, f"r{i}.csv", _random_csv(rng))
        fell_back.clear()
        try:
            expect = _cell_loop_parse(path)
        except (CliError, ValueError) as exc:  # ValueError: PointSet refuses the span
            with pytest.raises(type(exc)) as got:
                parse_points_csv(path)
            assert (getattr(got.value, "code", None), str(got.value)) == (getattr(exc, "code", None), str(exc))
            outcomes.add(getattr(exc, "code", "overflow"))
            continue
        got = parse_points_csv(path)
        assert got.coords.shape == expect.coords.shape
        assert got.coords.tobytes() == expect.coords.tobytes()
        outcomes.add((0, bool(fell_back)))
    # both the C reader and the per-line loop produced some of the arrays
    assert outcomes == {(0, False), (0, True), EXIT_BAD_INPUT, EXIT_EMPTY, "overflow"}


def test_parse_csv_reads_plain_files_without_the_line_loop(tmp_path, monkeypatch):
    x = np.random.default_rng(24).standard_normal((300, 5)) * 10.0 ** np.arange(-150, 151, 75)
    body = "\n".join(",".join(map(repr, row)) for row in x.tolist())
    expect = {}
    for name, text in [("plain", body + "\n"), ("header-crlf", "a,b,c,d,e\r\n" + body.replace("\n", "\r\n"))]:
        expect[name] = _cell_loop_parse(write(tmp_path, f"{name}.csv", text)).coords
    monkeypatch.setattr(cli_mod, "_parse_lines", pytest.fail)
    for name, coords in expect.items():
        got = parse_points_csv(str(tmp_path / f"{name}.csv")).coords
        assert got.tobytes() == coords.tobytes() == x.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_parse_csv_skips_a_utf8_byte_order_mark(tmp_path, newline):
    # a BOM used to make line 1 fail float() and be dropped as a header
    bom = b"\xef\xbb\xbf"
    for text, n in [("1,2|3,4|5,7|", 3), ("x,y|1,2|3,4|", 2)]:
        data = text.replace("|", newline).encode()
        path = tmp_path / "bom.csv"
        path.write_bytes(bom + data)
        got = parse_points_csv(str(path)).coords
        assert got.shape == (n, 2)
        assert got.tobytes() == _cell_loop_parse(write(tmp_path, "plain.csv", data.decode())).coords.tobytes()


@pytest.mark.parametrize("text", ["", "x,y\n", "\n\n", " \n\t\r\n", "x,y\r\n\r\n\r\n"])
def test_csv_without_data_rows_exits_4_without_a_warning(tmp_path, capsys, text):
    csv = write(tmp_path, "nodata.csv", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", "--input", csv, "--algo", "exact"]) == EXIT_EMPTY
    assert caught == []
    assert capsys.readouterr().err.strip() == f"error: {csv}: no data rows"


@pytest.mark.parametrize(
    "text",
    [
        "1,2\n3,inf\n4\n",  # a non-finite cell before a ragged row
        "1,2\n3\n4,nan\n",  # a ragged row before a non-finite cell
        "1,2\n3,nan,4\n",  # a ragged row with a non-finite cell
        "1,2\nnan,2\n5,x\n",  # a non-finite cell before a bad one
        "nan,1\n1,2\n",  # a non-finite first line is a header
        "x\n\n1e999\n",  # overflow to inf
    ],
)
def test_parse_csv_error_order_matches_cell_loop(tmp_path, text):
    path = write(tmp_path, "e.csv", text)
    try:
        expect = _cell_loop_parse(path).coords.tobytes()
    except CliError as exc:
        expect = str(exc)
    try:
        got = parse_points_csv(path).coords.tobytes()
    except CliError as exc:
        got = str(exc)
    assert got == expect


# -- evaluation inside the CLI


def _fit_input(tmp_path):
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.standard_normal((150, 5)), rng.standard_normal((150, 5)) + 4.0])
    return write(tmp_path, "blobs.csv", "\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")


def test_fit_normalize_and_compare_skip_the_mean_scan(tmp_path, monkeypatch):
    calls = []
    inv_sums = dendro_mod.Dendrogram.inv_sums

    def counting(self, points):
        calls.append(1)
        return inv_sums(self, points)

    monkeypatch.setattr(dendro_mod.Dendrogram, "inv_sums", counting)
    csv = _fit_input(tmp_path)
    out = str(tmp_path / "t.txt")
    assert main(["fit", "--input", csv, "--algo", "approx", "--normalize", "--out", out]) == 0
    assert main(["compare", "--input", csv, "--algo", "approx,acc,single"]) == 0
    assert calls == []
    assert main(["eval", "--input", csv, "--dendrogram", out, "--out", str(tmp_path / "e.json")]) == 0
    assert calls == [1]


def _parent_mean(points, dendro):
    """The mean as the pre-screening kernel summed it: 1 / d over each
    merge's cdist blocks of at most 2^18 entries, in row-major order."""
    order, lo, hi = dendro.leaf_spans()
    Y = points.coords[order]
    inv_sum = np.empty(len(dendro.height))
    for i, (l, r) in enumerate(zip(dendro.left.tolist(), dendro.right.tolist())):
        a0, a1, b0, b1 = lo[l], hi[l], lo[r], hi[r]
        cols = min(b1 - b0, 1 << 18)
        rows = max(1, (1 << 18) // cols)
        inv = 0.0
        for ra in range(a0, a1, rows):
            for cb in range(b0, b1, cols):
                block = cross_distances(Y[ra : min(ra + rows, a1)], Y[cb : min(cb + cols, b1)])
                inv += np.reciprocal(block, out=block).sum()
        inv_sum[i] = inv
    return float((dendro.height * inv_sum).sum()) / (points.n * (points.n - 1) // 2)


@pytest.mark.parametrize("algo", ["approx", "exact"])
def test_eval_mean_matches_parent_loop_bitwise(tmp_path, algo):
    csv = _fit_input(tmp_path)
    out = str(tmp_path / "t.txt")
    assert main(["fit", "--input", csv, "--algo", algo, "--out", out]) == 0
    points = parse_points_csv(csv)
    dendro = parse_merge_list(Path(out).read_text())
    for extra, d in (([], dendro), (["--normalize"], normalize(dendro, points)[0])):
        rep = str(tmp_path / "e.json")
        assert main(["eval", "--input", csv, "--dendrogram", out, "--out", rep, *extra]) == 0
        assert json.loads(Path(rep).read_text())["mean"] == _parent_mean(points, d)


def test_cli_evaluation_runs_inside_cli_normalize_and_distortion(tmp_path, monkeypatch):
    # the benchmark's eval_s stopwatch wraps exactly these two names
    inside = []
    scans = []
    for name in ("normalize", "distortion"):
        fn = getattr(cli_mod, name)

        def wrapped(*args, _fn=fn, **kwargs):
            inside.append(1)
            try:
                return _fn(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(cli_mod, name, wrapped)

    def spy(a, b):
        scans.append(bool(inside))
        return cross_distances(a, b)

    monkeypatch.setattr(dendro_mod, "cross_distances", spy)
    csv = _fit_input(tmp_path)
    assert main(["fit", "--input", csv, "--algo", "approx", "--normalize", "--out", str(tmp_path / "t.txt")]) == 0
    assert scans and all(scans)
    scans.clear()
    assert main(["compare", "--input", csv, "--algo", "approx,single,average"]) == 0
    assert scans and all(scans)
