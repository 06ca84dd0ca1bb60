"""Command-line surface: CSV ingestion, fitting, comparison, evaluation.

Exit codes: 0 ok, 2 malformed input file or unwritable output path,
3 unknown or missing algorithm or format, 4 empty input, 5 leaf-count
mismatch between dendrogram and points.
"""

import argparse
import json
import os
import sys

import numpy as np

from .core import PointSet, dedupe
from .dendro import (
    contract_duplicates,
    expand_duplicates,
    format_merge_list,
    normalize,
    parse_merge_list,
    to_merge_rows,
    to_newick,
)
from .evaluate import distortion
from .pipeline import ALGORITHMS, run_algorithm
from .spanner import SpannerConfig

FORMATS = ("merges", "newick", "json")

EXIT_BAD_INPUT = 2
EXIT_BAD_CHOICE = 3
EXIT_EMPTY = 4
EXIT_LEAF_MISMATCH = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def parse_points_csv(path: str) -> PointSet:
    """Comma-separated rows of float64 coordinates; optional header row.

    Accepts LF/CRLF and a UTF-8 byte-order mark, requires dot decimal
    separators, rejects non-finite values, and reports the offending row
    and column on failure.  A first line with a cell that is not a finite
    number is taken as a header.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except OSError as exc:
        raise CliError(EXIT_BAD_INPUT, f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_BAD_INPUT, f"{path} is not UTF-8: {exc}") from None
    lines = text.splitlines()
    body = lines[1:] if lines and _bad_column(lines[0]) is not None else lines
    # numpy's C reader takes the plain files; whatever it refuses or reads
    # as non-finite goes through the per-line loop, which accepts every
    # spelling float() does (1_000.5, non-ASCII digits, whitespace-only
    # lines) and names the first bad row and column in line order.  It is
    # fed the splitlines() lines, not the path, so that both split lines
    # alike; with no non-empty line it would warn "input contained no data".
    if any(body):
        try:
            X = np.loadtxt(body, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            pass
        else:
            if len(X) and np.isfinite(X).all():
                return PointSet(X)
    return PointSet(_parse_lines(path, lines))


def _parse_lines(path: str, lines: list[str]) -> np.ndarray:
    """The rows of parse_points_csv, one line at a time."""
    rows: list[list[float]] = []
    row_lines: list[int] = []  # line number of each row, for messages
    width = None
    for ln, line in enumerate(lines, start=1):
        try:
            parsed = list(map(float, line.split(",")))
        except ValueError:
            parsed = None
        if parsed is None or (ln == 1 and not np.isfinite(parsed).all()):
            bad_col = _bad_column(line)
            if bad_col is None or ln == 1:
                continue  # blank line or header row
            _finite_array(path, rows, row_lines)
            raise CliError(
                EXIT_BAD_INPUT, f"{path}: row {ln}, column {bad_col}: not a finite number"
            )
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            _finite_array(path, rows, row_lines)
            _finite_array(path, [parsed], [ln])
            raise CliError(
                EXIT_BAD_INPUT,
                f"{path}: row {ln}: expected {width} columns, got {len(parsed)}",
            )
        rows.append(parsed)
        row_lines.append(ln)
    if not rows:
        raise CliError(EXIT_EMPTY, f"{path}: no data rows")
    return _finite_array(path, rows, row_lines)


def _bad_column(line: str) -> int | None:
    """1-based column of the first cell that is not a finite number; None
    for a blank line."""
    if not line.strip():
        return None
    for ci, cell in enumerate(line.split(","), start=1):
        try:
            val = float(cell)
        except ValueError:
            return ci
        if not np.isfinite(val):
            return ci
    return None


def _finite_array(path: str, rows: list[list[float]], row_lines: list[int]) -> np.ndarray:
    """Equally long rows as an array; names the first non-finite cell, in line order."""
    X = np.array(rows, dtype=np.float64)
    bad = ~np.isfinite(X)
    if bad.any():
        r, c = np.argwhere(bad)[0].tolist()
        raise CliError(
            EXIT_BAD_INPUT, f"{path}: row {row_lines[r]}, column {c + 1}: not a finite number"
        )
    return X


SPANNER_FLAGS = ("gamma", "seed")


def _spanner_config(args) -> SpannerConfig:
    """SpannerConfig from the spanner flags given; SpannerConfig's defaults otherwise."""
    return SpannerConfig(**{k: getattr(args, k) for k in SPANNER_FLAGS if getattr(args, k) is not None})


def _check_writable(*paths: str):
    """Refuse, before any input is read, an output path whose directory
    does not exist or that names an existing directory: exit 2 with
    "cannot write <path>: ...", and no file is created.  Other write
    errors (permissions, a full disk) surface in _write."""
    for path in paths:
        if os.path.isdir(path):
            raise CliError(EXIT_BAD_INPUT, f"cannot write {path}: it is a directory")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise CliError(EXIT_BAD_INPUT, f"cannot write {path}: no directory {directory}")


def _write(path: str | None, payload: str):
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
        except OSError as exc:
            raise CliError(EXIT_BAD_INPUT, f"cannot write {path}: {exc}") from None
    else:
        sys.stdout.write(payload)


def _render(dendro, fmt: str, algorithm: str) -> str:
    if fmt == "merges":
        return format_merge_list(dendro)
    if fmt == "newick":
        return to_newick(dendro) + "\n"
    doc = {
        "n": dendro.n,
        "algorithm": algorithm,
        "merges": [list(r) for r in to_merge_rows(dendro)],
        "leaf_labels": list(range(dendro.n)),
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def cmd_fit(args) -> int:
    if args.algo not in ALGORITHMS:
        raise CliError(EXIT_BAD_CHOICE, f"unknown algorithm {args.algo!r}; choose from {ALGORITHMS}")
    if args.format not in FORMATS:
        raise CliError(EXIT_BAD_CHOICE, f"unknown format {args.format!r}; choose from {FORMATS}")
    if args.algo != "approx":  # only approx builds a spanner
        for name in SPANNER_FLAGS:
            if getattr(args, name) is not None:
                args.parser.error(f"--{name} applies to --algo approx only")
    if args.out:
        _check_writable(args.out, args.out + ".json")
    points = parse_points_csv(args.input)
    unique, groups = dedupe(points)
    result = run_algorithm(args.algo, unique, _spanner_config(args))
    dendro = result.dendrogram
    sidecar = {
        "n": points.n,
        "d": points.d,
        "algorithm": args.algo,
        "stage_timings_ms": result.timings_ms,
    }
    for key in ("gamma", "seed"):  # set by the fitters that use them
        if getattr(result, key) is not None:
            sidecar[key] = getattr(result, key)
    if unique.n != points.n:
        sidecar["n_unique"] = unique.n
    if args.normalize and unique.n > 1:
        dendro, scale = normalize(dendro, unique)
        report = distortion(unique, dendro, algorithm=args.algo)
        sidecar["scale"] = scale
        sidecar["max_distortion"] = report.max_ratio
    exported = expand_duplicates(dendro, groups) if unique.n != points.n else dendro
    _write(args.out, _render(exported, args.format, args.algo))
    if args.out:
        _write(args.out + ".json", json.dumps(sidecar, sort_keys=True) + "\n")
    return 0


def cmd_compare(args) -> int:
    import time

    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    if not algos:
        raise CliError(EXIT_BAD_CHOICE, f"no algorithm given; choose from {ALGORITHMS}")
    for a in algos:
        if a not in ALGORITHMS:
            raise CliError(EXIT_BAD_CHOICE, f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
    if args.out:
        _check_writable(args.out)
    points = parse_points_csv(args.input)
    unique, _ = dedupe(points)
    cfg = _spanner_config(args)
    rows = []
    for name in algos:
        t0 = time.perf_counter()
        res = run_algorithm(name, unique, cfg)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rep = (
            distortion(unique, res.dendrogram, normalize_first=True, algorithm=name)
            if unique.n > 1
            else None
        )
        rows.append(
            {
                "algorithm": name,
                "max_distortion": rep.max_ratio if rep else None,
                "scale": rep.scale if rep else None,
                "mean_wall_ms": wall_ms,
                "stage_ms": res.timings_ms,
            }
        )
    header = f"{'algorithm':<10} {'max_distortion':>15} {'scale':>12} {'wall_ms':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        md = f"{r['max_distortion']:.4f}" if r["max_distortion"] is not None else "-"
        sc = f"{r['scale']:.6g}" if r["scale"] is not None else "-"
        lines.append(f"{r['algorithm']:<10} {md:>15} {sc:>12} {r['mean_wall_ms']:>12.2f}")
    print("\n".join(lines))
    if args.out:
        _write(args.out, json.dumps({"n": points.n, "d": points.d, "rows": rows}, sort_keys=True) + "\n")
    return 0


def cmd_eval(args) -> int:
    if args.out:
        _check_writable(args.out)
    points = parse_points_csv(args.input)
    try:
        with open(args.dendrogram, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(EXIT_BAD_INPUT, f"cannot read {args.dendrogram}: {exc}") from None
    try:
        dendro = parse_merge_list(text)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"{args.dendrogram}: {exc}") from None
    if dendro.n != points.n:
        raise CliError(
            EXIT_LEAF_MISMATCH,
            f"dendrogram has {dendro.n} leaves but {args.input} has {points.n} rows",
        )
    unique, groups = dedupe(points)
    if unique.n == 1:  # no pair to measure; fit writes such lists
        report = dict.fromkeys(("max", "min", "mean", "argmax_pair", "scale")) | {"n": 1, "algorithm": ""}
    else:
        try:
            if unique.n != points.n:
                dendro = contract_duplicates(dendro, groups)
            report = distortion(unique, dendro, normalize_first=args.normalize).to_dict()
        except ValueError as exc:
            raise CliError(EXIT_BAD_INPUT, str(exc)) from None
    payload = json.dumps(report, sort_keys=True) + "\n"
    _write(args.out, payload)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="points CSV (rows = points)")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")


def _add_spanner(p: argparse.ArgumentParser):
    p.add_argument("--gamma", type=float, default=None, help="target stretch (>= 1; default 2.5)")
    p.add_argument("--seed", type=int, default=None, help="hash seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ultrafit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit an ultrametric and export the dendrogram")
    _add_common(fit)
    _add_spanner(fit)
    fit.add_argument("--normalize", action="store_true", help="scale output to dominate the metric")
    fit.add_argument("--algo", default="approx", help=f"one of {ALGORITHMS}")
    fit.add_argument("--format", default="merges", help=f"one of {FORMATS}")
    fit.set_defaults(func=cmd_fit, parser=fit)

    cmp_ = sub.add_parser("compare", help="normalized max distortion and timing per algorithm")
    _add_common(cmp_)
    _add_spanner(cmp_)
    cmp_.add_argument("--algo", default=",".join(ALGORITHMS), help="comma-separated algorithm list")
    cmp_.set_defaults(func=cmd_compare)

    ev = sub.add_parser("eval", help="distortion report for an exported merge list")
    _add_common(ev)
    ev.add_argument("--normalize", action="store_true", help="rescale to dominate the metric first")
    ev.add_argument("--dendrogram", required=True, help="merge-list file from fit")
    ev.set_defaults(func=cmd_eval)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # invalid parameter values (e.g. gamma < 1)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
