"""Spans and stopwatches installed from outside the ultrafit package.

ultrafit modules bind their imports at import time (`from .mst import
kruskal`), so a function is wrapped at every module that calls it, under
the name that module uses.  Nothing inside `src/` is edited.  Every
installed wrapper is removed by the `installed` context manager.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("cli", "core", "spanner", "mst", "cutweight", "dendro", "linkage", "evaluate", "pipeline")

# Layers whose code calls the distance kernel; their per-layer kernel counts are reported.
KERNEL_CALLERS = ("spanner", "mst", "cutweight", "dendro", "linkage", "evaluate")


def _spanner_counts(args, result):
    return {"edges": result.edge_count, "tree_edges": args[0].n - 1}


def _kruskal_counts(args, result):
    edges = args[1]
    return {"edges_in": len(edges[0]) if isinstance(edges, tuple) else len(edges)}


# (calling module, attribute, span name, counter hook).  A span's layer is
# the part of its name before the dot.
SITES = (
    ("ultrafit.cli", "parse_points_csv", "cli.parse", None),
    ("ultrafit.cli", "dedupe", "core.dedupe", None),
    ("ultrafit.cli", "run_algorithm", "pipeline.run_algorithm", None),
    ("ultrafit.cli", "normalize", "dendro.normalize", None),
    ("ultrafit.cli", "distortion", "evaluate.distortion", None),
    ("ultrafit.cli", "expand_duplicates", "dendro.expand_duplicates", None),
    ("ultrafit.cli", "contract_duplicates", "dendro.contract_duplicates", None),
    ("ultrafit.cli", "parse_merge_list", "dendro.parse", None),
    ("ultrafit.cli", "format_merge_list", "dendro.export", None),
    ("ultrafit.cli", "to_merge_rows", "dendro.export", None),
    ("ultrafit.cli", "to_newick", "dendro.export", None),
    ("ultrafit.pipeline", "build_spanner", "spanner.build", _spanner_counts),
    ("ultrafit.pipeline", "kruskal", "mst.kruskal", _kruskal_counts),
    ("ultrafit.pipeline", "connect_components", "mst.connect_components", None),
    ("ultrafit.pipeline", "exact_mst", "mst.exact_mst", None),
    ("ultrafit.pipeline", "approximate_cut_weights", "cutweight.approx", None),
    ("ultrafit.pipeline", "exact_cut_weights", "cutweight.exact", None),
    ("ultrafit.pipeline", "build_dendrogram", "dendro.build", None),
    ("ultrafit.pipeline", "from_merge_rows", "dendro.from_merge_rows", None),
    ("ultrafit.pipeline", "single_linkage", "linkage.single", None),
    ("ultrafit.pipeline", "agglomerate", "linkage.agglomerate", None),
    ("ultrafit.mst", "kruskal", "mst.kruskal", _kruskal_counts),
    ("ultrafit.mst", "canonical_edges", "core.canonical_edges", None),
    ("ultrafit.linkage", "exact_mst", "mst.exact_mst", None),
    ("ultrafit.linkage", "from_merge_rows", "dendro.from_merge_rows", None),
    ("ultrafit.dendro", "build_dendrogram", "dendro.build", None),  # single_linkage's call
    ("ultrafit.evaluate", "normalize", "dendro.normalize", None),
    ("ultrafit.spanner", "edge_distances", "core.edge_distances", None),
    ("ultrafit.spanner", "paired_distances", "core.paired_distances", None),
)

# The single distance kernel: every distance in the package is a cdist call in core.
KERNEL = ("ultrafit.core", "cdist")


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans
    cdist_calls: int = 0  # kernel calls made directly inside this span
    cdist_entries: int = 0
    cdist_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        """Duration not covered by child spans or by kernel calls (kernel time is core's)."""
        return self.end - self.start - self.child_s - self.cdist_s


class Tracer:
    """Keeps every span in memory; `op` tags the spans of one CLI command."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        assert popped is span, "spans must close in LIFO order"
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    def by_op(self) -> list[list[Span]]:
        """Spans grouped by op, each group starting with its root span."""
        groups: dict[int, list[Span]] = {}
        for span in self.spans:
            groups.setdefault(span.op, []).append(span)
        return list(groups.values())

    def span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                span.counts.update(hook(args, result))
            return result

        return traced

    def kernel_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            if self.stack:
                top = self.stack[-1]
                top.cdist_calls += 1
                top.cdist_entries += out.size
                top.cdist_s += dt
            return out

        return counted

    def wrappers(self):
        """(module, attribute, wrapper factory) for every site and the kernel."""
        for mod, attr, name, hook in SITES:
            yield mod, attr, functools.partial(self.span_wrapper, name, hook=hook)
        yield (*KERNEL, self.kernel_wrapper)


class Stopwatch:
    """Accumulates wall time spent in the CLI's calls to the fitter and the
    evaluator, and keeps the FitResults the fitter returned.  These three
    calls happen a handful of times per command, so the cost is a few
    microseconds per op."""

    GROUPS = {"run_algorithm": "fit_s", "normalize": "eval_s", "distortion": "eval_s"}

    def __init__(self):
        self.reset()

    def reset(self):
        self.totals = {"fit_s": 0.0, "eval_s": 0.0}
        self.results = []

    def _wrap(self, group, fn, keep):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.totals[group] += time.perf_counter() - t0
            if keep:
                self.results.append(out)
            return out

        return timed

    def wrappers(self):
        for attr, group in self.GROUPS.items():
            yield "ultrafit.cli", attr, functools.partial(
                self._wrap, group, keep=attr == "run_algorithm"
            )


# Self time of single functions, as metric -> span name.
FUNCTION_METRICS = {
    "spanner.build_s": "spanner.build",
    "mst.kruskal_s": "mst.kruskal",
    "mst.exact_mst_s": "mst.exact_mst",
    "cutweight.approx_s": "cutweight.approx",
    "cutweight.exact_s": "cutweight.exact",
    "dendro.build_s": "dendro.build",
    "dendro.normalize_s": "dendro.normalize",
    "dendro.export_s": "dendro.export",
    "evaluate.distortion_s": "evaluate.distortion",
    "linkage.agglomerate_s": "linkage.agglomerate",
    "linkage.single_s": "linkage.single",
    "cli.parse_s": "cli.parse",
    "core.dedupe_s": "core.dedupe",
    "core.canonical_edges_s": "core.canonical_edges",
    "core.edge_distances_s": "core.edge_distances",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({metric: "s" for metric in FUNCTION_METRICS})
    units.update({"spanner.edges": "count", "spanner.tree_edge_frac": "fraction"})
    units.update({"mst.kruskal_edges_in": "count", "mst.exact_mst_calls": "count"})
    units.update({"core.cdist_s": "s", "core.cdist_calls": "count", "core.cdist_entries": "count"})
    for layer in KERNEL_CALLERS:
        units[f"{layer}.cdist_calls"] = "count"
        units[f"{layer}.cdist_entries"] = "count"
    units.update({"trace.op_s": "s", "trace.untraced_op_s": "s", "trace.overhead_s": "s"})
    return units


MARK = "__ufbench_wrapped__"


def is_wrapped(fn) -> bool:
    return hasattr(fn, MARK)


@contextmanager
def installed(wrappers):
    """Replace each (module, attribute) with factory(original); restore on exit."""
    saved = []
    try:
        for mod_name, attr, factory in wrappers:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            if is_wrapped(original):
                raise RuntimeError(f"{mod_name}.{attr} is already wrapped")
            wrapper = factory(original)
            setattr(wrapper, MARK, True)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def all_sites():
    """Every (module, attribute) any wrapper in this file can replace."""
    names = {(m, a) for m, a, _, _ in SITES} | {KERNEL}
    names |= {("ultrafit.cli", a) for a in Stopwatch.GROUPS}
    return sorted(names)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for the spans of one op (root span first)."""
    by_id = {s.id: s for s in spans}

    def owner_layer(span):
        # kernel calls made inside core helpers count for the layer that called the helper
        while span.layer == "core" and span.parent is not None:
            span = by_id[span.parent]
        return span.layer

    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer in KERNEL_CALLERS:
        m[f"{layer}.cdist_calls"] = 0
        m[f"{layer}.cdist_entries"] = 0
    fn = {}
    counts = {"edges": 0, "tree_edges": 0, "edges_in": 0}
    m["core.cdist_s"] = m["core.cdist_calls"] = m["core.cdist_entries"] = 0
    m["mst.exact_mst_calls"] = 0
    for s in spans:
        m[f"{s.layer}.self_s"] += s.self_s
        m["core.self_s"] += s.cdist_s
        m["core.cdist_s"] += s.cdist_s
        m["core.cdist_calls"] += s.cdist_calls
        m["core.cdist_entries"] += s.cdist_entries
        if s.cdist_calls:
            owner = owner_layer(s)
            if owner in KERNEL_CALLERS:
                m[f"{owner}.cdist_calls"] += s.cdist_calls
                m[f"{owner}.cdist_entries"] += s.cdist_entries
        fn[s.name] = fn.get(s.name, 0.0) + s.self_s
        m["mst.exact_mst_calls"] += s.name == "mst.exact_mst"
        for k, v in s.counts.items():
            counts[k] += v
    for metric, span_name in FUNCTION_METRICS.items():
        m[metric] = fn.get(span_name, 0.0)
    m["spanner.edges"] = counts["edges"]
    m["spanner.tree_edge_frac"] = counts["tree_edges"] / counts["edges"] if counts["edges"] else 0.0
    m["mst.kruskal_edges_in"] = counts["edges_in"]
    root = spans[0]
    m["trace.op_s"] = root.end - root.start
    return m


def span_record(span: Span, t0: float) -> dict:
    """A span as written to the spans file, with times relative to t0."""
    return {
        "op": span.op, "id": span.id, "name": span.name, "parent": span.parent,
        "start": span.start - t0, "end": span.end - t0, "self_s": span.self_s,
        "cdist_calls": span.cdist_calls, "cdist_entries": span.cdist_entries,
        "cdist_s": span.cdist_s, "counts": span.counts,
    }
