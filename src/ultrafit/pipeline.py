"""End-to-end ultrametric fitting pipelines.

Three fitters share the tree -> cut weights -> cartesian tree skeleton:

* approx_ult: spanner, Kruskal on it, 5-estimated cut weights.  Runs in
  roughly n^(1+1/gamma^2) time and over-estimates by at most
  5 * gamma_emp * alpha_opt, where gamma_emp is the measured
  approximate-Kruskal factor of its tree.
* approx_acc_ult: exact MST plus 5-estimated cut weights (gamma_emp = 1).
* farach_exact: exact MST plus exact cut weights; achieves the optimal
  distortion alpha_opt.

brute_force_opt_alpha is the independent optimality oracle for tiny
inputs: it enumerates every labeled rooted binary topology.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .core import PointSet, cross_distances
from .cutweight import approximate_cut_weights, exact_cut_weights
from .dendro import Dendrogram, build_dendrogram, from_merge_rows
from .linkage import METHODS, agglomerate, single_linkage
from .mst import SpanningTree, connect_components, exact_mst, kruskal
from .spanner import SpannerConfig, build_spanner, spanner_forests

ALGORITHMS = ("approx", "acc", "exact") + METHODS

_ORACLE_LIMIT = 7

# ufbench/tracer.py wraps these names at this module, so they stay
# importable here, though no fit calls them any more
_TRACED = (build_spanner, connect_components)


@dataclass
class FitResult:
    dendrogram: Dendrogram
    algorithm: str
    gamma: float | None = None
    seed: int | None = None
    timings_ms: dict[str, float] = field(default_factory=dict)
    tree: SpanningTree | None = None


def _require_distinct(points: PointSet):
    if len(np.unique(points.coords, axis=0)) != points.n:
        raise ValueError("input contains duplicate points; dedupe before fitting")


def _fit(algorithm: str, points: PointSet, grow_tree, cut_weights, **meta) -> FitResult:
    """The skeleton the tree-based fitters share: tree -> cut weights ->
    cartesian tree, each stage timed into timings_ms.

    grow_tree(stage) returns the spanning tree, running each of its steps
    as stage(name, fn, *args).  Fitters pass the stage functions as this
    module's globals resolve at call time, so wrappers installed on those
    names see every call.
    """
    if points.n == 1:
        return FitResult(dendrogram=from_merge_rows(1, [], [], []), algorithm=algorithm, **meta)
    _require_distinct(points)
    timings_ms: dict[str, float] = {}

    def stage(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings_ms[name] = (time.perf_counter() - t0) * 1e3
        return out

    tree = grow_tree(stage)
    heights = stage("cutweight", cut_weights, points, tree)
    dendro = stage("cartesian", build_dendrogram, tree, heights)
    return FitResult(
        dendrogram=dendro,
        algorithm=algorithm,
        timings_ms=timings_ms,
        tree=tree,
        **meta,
    )


def approx_ult(points: PointSet, config: SpannerConfig | None = None) -> FitResult:
    """Spanner -> Kruskal -> 5-estimated cut weights -> cartesian tree.

    The spanner stage hands Kruskal the coarsest-scale star and one
    minimum spanning forest per scale process (spanner_forests), whose
    tree is kruskal(build_spanner(points, config)) edge for edge."""
    config = config or SpannerConfig()

    def grow_tree(stage):
        edges = stage("spanner", spanner_forests, points, config)
        return stage("mst", kruskal, points.n, edges)

    return _fit("approx", points, grow_tree, approximate_cut_weights, gamma=config.gamma, seed=config.seed)


def approx_acc_ult(points: PointSet) -> FitResult:
    """Exact MST with 5-estimated cut weights."""
    return _fit("acc", points, lambda stage: stage("mst", exact_mst, points), approximate_cut_weights)


def farach_exact(points: PointSet) -> FitResult:
    """Optimal-distortion baseline: exact MST and exact cut weights."""
    return _fit("exact", points, lambda stage: stage("mst", exact_mst, points), exact_cut_weights)


def run_algorithm(name: str, points: PointSet, config: SpannerConfig | None = None) -> FitResult:
    """Dispatch by algorithm tag: approx | acc | exact | single | complete | average | ward."""
    if name == "approx":
        return approx_ult(points, config)
    if name == "acc":
        return approx_acc_ult(points)
    if name == "exact":
        return farach_exact(points)
    if name in METHODS:
        t0 = time.perf_counter()
        dendro = single_linkage(points) if name == "single" else agglomerate(points, name)
        return FitResult(
            dendrogram=dendro,
            algorithm=name,
            timings_ms={"linkage": (time.perf_counter() - t0) * 1e3},
        )
    raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")


# -- tiny-instance optimality oracle -----------------------------------------


def _topologies(n: int):
    """All labeled rooted binary tree shapes over leaves 0..n-1.

    Trees are nested tuples of leaf ids; leaf m is inserted at every
    position of every shape over 0..m-1, which enumerates each of the
    (2n-3)!! shapes exactly once.
    """
    def insert_everywhere(t, leaf):
        yield (t, leaf)
        if isinstance(t, tuple):
            a, b = t
            for sub in insert_everywhere(a, leaf):
                yield (sub, b)
            for sub in insert_everywhere(b, leaf):
                yield (a, sub)

    shapes = [(0, 1)] if n >= 2 else [0]
    for leaf in range(2, n):
        shapes = [s for t in shapes for s in insert_everywhere(t, leaf)]
    return shapes


def brute_force_opt_alpha(points: PointSet) -> float:
    """Optimal distortion by exhaustive search; n <= 7 only.

    For each topology, heights are the minimal feasible assignment
    h(v) = max(largest cross-pair distance at v, children heights); the
    distortion of a topology is then max over internal nodes v of
    h(v) / (smallest cross-pair distance at v).  Returns the minimum over
    all topologies.
    """
    n = points.n
    if n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to n <= {_ORACLE_LIMIT}, got {n}")
    if n < 2:
        return 1.0
    _require_distinct(points)
    D = cross_distances(points.coords, points.coords)
    # min/max distance from any subset (bitmask) to each point
    full = 1 << n
    minw = np.full((full, n), np.inf)
    maxw = np.zeros((full, n))
    for mask in range(1, full):
        low = mask & (-mask)
        i = low.bit_length() - 1
        rest = mask ^ low
        minw[mask] = np.minimum(minw[rest], D[i]) if rest else D[i]
        maxw[mask] = np.maximum(maxw[rest], D[i]) if rest else D[i]

    def evaluate(t) -> tuple[int, float, float]:
        """Returns (leaf mask, minimal feasible height, alpha of subtree)."""
        if not isinstance(t, tuple):
            return 1 << t, 0.0, 1.0
        ma, ha, aa = evaluate(t[0])
        mb, hb, ab = evaluate(t[1])
        bits = [j for j in range(n) if mb >> j & 1]
        cross_max = float(max(maxw[ma][j] for j in bits))
        cross_min = float(min(minw[ma][j] for j in bits))
        h = max(cross_max, ha, hb)
        return ma | mb, h, max(aa, ab, h / cross_min)

    best = np.inf
    for shape in _topologies(n):
        _, _, alpha = evaluate(shape)
        if alpha < best:
            best = alpha
    return float(best)
