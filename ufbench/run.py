"""Closed-loop benchmark of the ultrafit command line.

    python3 ufbench/run.py --workload approx-blobs-11k --seed 1 --seconds 40 --trace 0
    python3 -m pytest -q ufbench          # self-tests, on small inputs

One client in one process: each op is an in-process `ultrafit.cli.main`
call on the workload's generated CSV, issued only after the previous op
returned and its output was checked.  BLAS and OpenMP are pinned to one
thread before numpy is imported.

Every op is checked (exit code, parsable output, byte-identical to the
run's first op, normalize scale); once per run the first op's output gets
the quality checks of `run_checks`.  A failed check counts the op as failed.

--trace 0 prints the end-to-end metrics (medians over the timed ops).
--trace 1 alternates traced and untraced ops and prints the per-layer
metrics of the traced ones; the spans are written to .ufbench_out/ at exit.
The last line of standard output is the result as one JSON object; the
full record, with the environment, is written to .ufbench_out/.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["ULTRAFIT_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tr  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".ufbench_out"

END_TO_END_UNITS = {
    "op_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "setup_s": "s",
    "peak_mb": "MiB",
    "ok_frac": "fraction",
    "max_distortion": "ratio",
    "gamma_emp": "ratio",
}

MIN_OPS = 3  # timed ops per run, however long each takes
SETUP_REPS = 3  # data generation + CSV write, repeated; the median is reported
CERTIFIED = ("approx", "acc", "exact")  # normalized output must dominate the metric
REL = 1e-9  # float slack of the certified bounds, as in the acceptance tests


def load_program():
    """Import ultrafit from the checkout's src/ and nowhere else."""
    pkg = ROOT / "src" / "ultrafit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: ultrafit sources not found at {pkg}")
    if str(pkg.parent) not in sys.path:
        sys.path.insert(0, str(pkg.parent))
    import ultrafit.cli

    if Path(ultrafit.cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported ultrafit from {ultrafit.cli.__file__}, not {pkg}")
    return ultrafit.cli


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in (*THREAD_VARS, "ULTRAFIT_THREADS")},
        "python_threads": threading.active_count(),
        "platform": platform.platform(),
    }


@dataclass
class Op:
    kind: str  # warmup | timed | traced | untraced
    wall_s: float
    fit_s: float | None = None
    eval_s: float | None = None
    problems: list = field(default_factory=list)
    results: list = field(default_factory=list)  # FitResults, kept for the reference op only


class Runner:
    """Runs and checks the ops of one workload on one CSV."""

    def __init__(self, cli, workload, csv: Path, workdir: Path, tamper=None):
        self.cli = cli
        self.w = workload
        self.out = workdir / f"{workload.name}.out"
        self.sidecar = Path(str(self.out) + ".json")
        self.argv = [*workload.argv, "--input", str(csv), "--out", str(self.out)]
        self.tamper = tamper  # self-tests corrupt the output of non-reference ops with it
        self.stopwatch = tr.Stopwatch()
        self.reference = None  # fingerprint of the first op's output
        self.ref_doc = None
        self.max_distortion = math.nan  # of the first algorithm, from the reference output

    def run(self, kind: str, tracer=None, memory=False) -> Op:
        """One op; with memory=True it runs under tracemalloc and sets peak_bytes."""
        for p in (self.out, self.sidecar):
            p.unlink(missing_ok=True)
        wrapped = [site for site in tr.all_sites() if tr.is_wrapped(_lookup(site))]
        if wrapped:
            raise RuntimeError(f"wrappers left installed before an op: {wrapped}")
        self.stopwatch.reset()
        wrappers = tracer.wrappers() if tracer else self.stopwatch.wrappers()
        gc.collect()
        stdout = io.StringIO()
        error = None
        with tr.installed(wrappers), contextlib.redirect_stdout(stdout):
            if memory:
                tracemalloc.start()
            if tracer:
                tracer.op += 1
                root = tracer.open("cli.main")
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(self.argv))
            except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed run
                rc, error = None, repr(exc)
            wall = time.perf_counter() - t0
            if tracer:
                tracer.close(root)
                wall = root.end - root.start
            if memory:
                self.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        op = Op(kind, wall)
        if not tracer:
            op.fit_s = self.stopwatch.totals["fit_s"]
            op.eval_s = self.stopwatch.totals["eval_s"]
        is_reference = self.reference is None
        if self.tamper and not is_reference:
            self.tamper(self.out)
        op.problems = [error] if error else self.check(rc)
        if is_reference and not op.problems:
            op.results = self.stopwatch.results
        return op

    def check(self, rc) -> list[str]:
        """Checks one op's output; the first passing op becomes the reference."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            if self.w.argv[0] == "fit":
                text = self.out.read_text(encoding="utf-8")
                self.cli.parse_merge_list(text, n_leaves=self.w.n)
                side = json.loads(self.sidecar.read_text(encoding="utf-8"))
                scales = {side["algorithm"]: side["scale"]}
                doc = {"merges": text, "scale": side["scale"], "max_distortion": side["max_distortion"]}
                first_md = side["max_distortion"]
            else:
                rows = json.loads(self.out.read_text(encoding="utf-8"))["rows"]
                scales = {r["algorithm"]: r["scale"] for r in rows}
                doc = {"rows": [[r["algorithm"], r["max_distortion"], r["scale"]] for r in rows]}
                first_md = rows[0]["max_distortion"]
                if [r[0] for r in doc["rows"]] != self.w.algorithms:
                    return [f"compare rows {[r[0] for r in doc['rows']]}, expected {self.w.algorithms}"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = [
            f"{algo}: normalize scale {s!r} > 1: output does not dominate the metric"
            for algo, s in scales.items()
            if algo in CERTIFIED and not s <= 1 + REL
        ]
        fingerprint = json.dumps(doc, sort_keys=True)
        if self.reference is None:
            if not problems:
                self.reference, self.ref_doc, self.max_distortion = fingerprint, doc, first_md
        elif fingerprint != self.reference:
            problems.append("output differs from the run's first op")
        return problems


def _lookup(site):
    return getattr(sys.modules[site[0]], site[1])


def run_checks(cli, w, x, runner, reference: Op) -> tuple[float, list[str]]:
    """Once-per-run quality checks on the reference op, outside timing.

    Returns gamma_emp, the approximate-Kruskal factor of the first
    algorithm's tree, and any problems found.
    """
    from ultrafit import PointSet, contract_duplicates, dedupe, distortion, kt_factor, normalize

    unique, groups = dedupe(PointSet(x))
    results = {r.algorithm: r for r in reference.results}
    first = results[w.algorithms[0]]
    gamma = kt_factor(unique, first.tree)
    problems = []
    doc = runner.ref_doc
    if "merges" in doc:
        # the reference output itself must be normalized: dominating and tight
        dendro = cli.parse_merge_list(doc["merges"], n_leaves=w.n)
        if unique.n != w.n:
            dendro = contract_duplicates(dendro, groups)
        _, scale = normalize(dendro, unique)
        if abs(scale - 1.0) > REL:
            problems.append(f"exported merge list is not normalized: rescale factor {scale!r}")
    else:
        norm = {algo: md for algo, md, _ in doc["rows"]}
        alpha = norm["exact"]
        problems += [
            f"{algo}: normalized max distortion {md!r} < exact's {alpha!r}"
            for algo, md in norm.items()
            if md < alpha * (1 - REL)
        ]
        raw_acc = distortion(unique, results["acc"].dendrogram).max_ratio
        if raw_acc > 5 * alpha * (1 + REL):
            problems.append(f"acc: raw max distortion {raw_acc!r} > 5 * alpha_opt {alpha!r}")
        raw_apx = distortion(unique, results["approx"].dendrogram).max_ratio
        if raw_apx > 5 * gamma * alpha * (1 + REL):
            problems.append(
                f"approx: raw max distortion {raw_apx!r} > 5 * gamma_emp {gamma!r} * alpha_opt {alpha!r}"
            )
    return gamma, problems


def run_workload(w, seed: int, seconds: float, trace: bool, workdir: Path = OUT_DIR, tamper=None) -> dict:
    """Set up, run the closed loop, check, and return the full result record."""
    t0 = time.perf_counter()
    cli = load_program()
    import_s = time.perf_counter() - t0
    from workloads import write_csv

    workdir.mkdir(parents=True, exist_ok=True)
    csv = workdir / f"{w.name}.csv"
    prep = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        x = w.points(seed)
        write_csv(csv, x)
        prep.append(time.perf_counter() - t)
    runner = Runner(cli, w, csv, workdir, tamper)
    # The warm-up op is cold, is the reference output for every later op and,
    # untimed by op_s, gives peak_mb: tracemalloc slows an op 1.8-2.8x.
    warm = runner.run("warmup", memory=not trace)
    setup_s = import_s + statistics.median(prep) + warm.wall_s
    ops = [warm]
    tracer = tr.Tracer() if trace else None
    try:
        start = time.perf_counter()
        timed = []
        # an op is started only if an op of the median length so far ends in time
        while len(timed) < MIN_OPS or (
            time.perf_counter() - start + statistics.median(op.wall_s for op in timed) <= seconds
        ):
            if tracer:
                kind = "untraced" if len(timed) % 2 else "traced"
                timed.append(runner.run(kind, tracer if kind == "traced" else None))
            else:
                timed.append(runner.run("timed"))
        ops += timed
        problems = [f"{op.kind} op {i}: {p}" for i, op in enumerate(ops) for p in op.problems]
        gamma = math.nan
        if warm.results:
            try:
                gamma, run_problems = run_checks(cli, w, x, runner, warm)
            except Exception:  # a check that cannot run is a failed check, not a lost result
                run_problems = [f"quality checks raised:\n{traceback.format_exc()}"]
            problems += run_problems
        else:
            problems.append("first op failed: no reference for the quality checks")
    finally:
        for p in (csv, runner.out, runner.sidecar):
            p.unlink(missing_ok=True)

    failed = sum(bool(op.problems) for op in ops)
    med = statistics.median
    if trace:
        per_op = []
        for k, spans in enumerate(tracer.by_op()):
            m = tr.layer_metrics(spans)
            unattributed = m["trace.op_s"] - sum(m[f"{layer}.self_s"] for layer in tr.LAYERS)
            if abs(unattributed) > 1e-6:
                problems.append(f"traced op {k}: layer self times miss {unattributed!r} s of the op")
            per_op.append(m)
        metrics = {name: med([m[name] for m in per_op]) for name in per_op[0]}
        metrics["trace.untraced_op_s"] = med([op.wall_s for op in timed if op.kind == "untraced"])
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - metrics["trace.untraced_op_s"]
        units = tr.per_layer_units()
        samples = len(per_op)
    else:
        metrics = {
            "op_s": med([op.wall_s for op in timed]),
            "fit_s": med([op.fit_s for op in timed]),
            "eval_s": med([op.eval_s for op in timed]),
            "setup_s": setup_s,
            "peak_mb": runner.peak_bytes / 2**20,
            "ok_frac": 1 - failed / len(ops),
            "max_distortion": runner.max_distortion,
            "gamma_emp": gamma,
        }
        units = END_TO_END_UNITS
        samples = len(timed)
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "command": ["ultrafit", *w.argv, "--input", "<csv>", "--out", "<out>"],
        "generator": w.generator,
        "n": w.n,
        "d": w.d,
        "environment": environment(),
        "setup": {"import_s": import_s, "prepare_s": prep, "warmup_s": warm.wall_s},
        "ops": [{"kind": op.kind, "wall_s": op.wall_s, "fit_s": op.fit_s, "eval_s": op.eval_s} for op in ops],
        "problems": problems,
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "samples": samples,
        # a metric a failed run could not measure (NaN) is reported as null
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else None, "unit": units[name]}
            for name in units
        },
    }
    if trace:
        record["spans"] = [tr.span_record(s, start) for s in tracer.spans]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    record = run_workload(w, args.seed, args.seconds, bool(args.trace))
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"{w.name} seed={args.seed} n={w.n} d={w.d}: ultrafit {' '.join(w.argv)}")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} BLAS/OpenMP threads=1")
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    for name, m in record["metrics"].items():
        print(f"{name:>28} = {m['value']} {m['unit']}")
    print(f"{record['samples']} measured ops (median), {record['attempted']} attempted, "
          f"{record['failed']} failed; details in {OUT_DIR.name}/{stem}.json")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
