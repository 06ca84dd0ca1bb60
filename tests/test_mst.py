import copy
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from ultrafit import (
    DisconnectedGraphError,
    PointSet,
    SpannerConfig,
    build_spanner,
    connect_components,
    exact_mst,
    kruskal,
    kt_factor,
    verify_stretch,
)
from ultrafit import core as core_mod
from ultrafit import mst as mst_mod
from ultrafit.core import cross_distances

COLLINEAR = PointSet([[0.0], [1.0], [3.0]])
# unit-distance equilateral triple embedded exactly in 3-d
SIMPLEX = PointSet((np.eye(3) / np.sqrt(2)).tolist())


def all_pairs(points):
    iu, iv = np.triu_indices(points.n, 1)
    w = cross_distances(points.coords, points.coords)[iu, iv]
    return iu, iv, w


def brute_force_mst_weight(n, edges):
    """Minimum spanning tree weight by exhaustive subset enumeration."""
    best = np.inf
    for combo in itertools.combinations(range(len(edges[0])), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        total = 0.0
        for ei in combo:
            a, b = find(int(edges[0][ei])), find(int(edges[1][ei]))
            if a == b:
                ok = False
                break
            parent[a] = b
            total += float(edges[2][ei])
        if ok:
            best = min(best, total)
    return best


def _edges(tree):
    """A tree's edge arrays as lists: (u, v, w)."""
    return tree.u.tolist(), tree.v.tolist(), tree.w.tolist()


def test_kruskal_collinear_triangle():
    tree = kruskal(3, ([0, 1, 0], [1, 2, 2], [1.0, 2.0, 3.0]))
    assert _edges(tree) == ([0, 1], [1, 2], [1.0, 2.0])


def test_kruskal_two_points():
    tree = kruskal(2, ([0], [1], [4.5]))
    assert _edges(tree) == ([0], [1], [4.5])


def test_kruskal_unit_square_tie_break():
    sides = ([0, 1, 2, 0], [1, 2, 3, 3], [1.0] * 4)
    tree = kruskal(4, sides)
    assert _edges(tree) == ([0, 0, 1], [1, 3, 2], [1.0] * 3)


def test_kruskal_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    for n in (5, 6, 7):
        p = PointSet(rng.random((n, 2)))
        edges = all_pairs(p)
        tree = kruskal(n, edges)
        assert tree.w.sum() == pytest.approx(brute_force_mst_weight(n, edges), rel=1e-12)


def test_kruskal_disconnected_raises_named_components():
    with pytest.raises(DisconnectedGraphError, match="2 components"):
        kruskal(4, ([0, 2], [1, 3], [1.0, 1.0]))


def test_connect_components_identity_on_spanning_tree():
    tree = kruskal(3, ([0, 1], [1, 2], [1.0, 2.0]))
    repaired = connect_components(COLLINEAR, (tree.u, tree.v, tree.w))
    assert _edges(repaired) == _edges(tree)


def test_connect_components_two_singletons():
    p = PointSet([[0.0, 0.0], [1.0, 0.0]])
    tree = connect_components(p, ([], [], []))
    assert _edges(tree) == ([0], [1], [1.0])


def test_connect_components_nearest_cross_pair():
    p = PointSet([[0.0], [1.0], [5.0]])
    tree = connect_components(p, ([0], [1], [1.0]))
    assert _edges(tree) == ([0, 1], [1, 2], [1.0, 4.0])


def test_exact_mst_collinear():
    tree = exact_mst(COLLINEAR)
    assert _edges(tree) == ([0, 1], [1, 2], [1.0, 2.0])


def test_exact_mst_single_point():
    tree = exact_mst(PointSet([[1.0, 2.0]]))
    assert tree.n == 1 and len(tree.u) == 0


def test_exact_mst_equilateral_tie_break():
    tree = exact_mst(SIMPLEX)
    w = tree.w[0]
    assert (tree.u.tolist(), tree.v.tolist()) == ([0, 0], [1, 2])
    assert (tree.w == w).all()


def test_exact_mst_is_computed_once_per_point_set(monkeypatch):
    p = PointSet(np.random.default_rng(8).random((150, 5)))
    before = copy.copy(p)
    tree = exact_mst(p)
    calls = []
    monkeypatch.setattr(mst_mod, "_prim", lambda points: calls.append(points))
    assert exact_mst(p) is tree and calls == []
    for a in (tree.u, tree.v, tree.w):
        with pytest.raises(ValueError):
            a[0] = a[1]
    # equality and repr ignore the stored tree
    assert p == before and repr(p) == repr(before)
    assert before._mst is None


def test_every_spanning_tree_is_read_only():
    # dendro.tree_order keeps a dendrogram on the tree, so its edges must not change
    p = PointSet(np.random.default_rng(10).random((40, 3)))
    i, j = np.triu_indices(p.n, 1)
    w = cross_distances(p.coords, p.coords)[i, j]
    hand = mst_mod.SpanningTree(n=3, u=[1, 0], v=[2, 2], w=[2.0, 3.0])
    forest = (np.array([0]), np.array([1]), np.array([1.0]))
    for tree in (exact_mst(p), kruskal(p.n, (i, j, w)), connect_components(p, forest), hand):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.w = tree.w
        for a in (tree.u, tree.v, tree.w):
            assert isinstance(a, np.ndarray) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[-1]
    assert hand.u.tolist() == [1, 0] and hand.w.tolist() == [2.0, 3.0]


def test_exact_mst_of_equal_coordinates_is_bitwise_equal():
    x = np.random.default_rng(9).random((150, 5))
    a, b = PointSet(x), PointSet(x.copy())
    ta, tb = exact_mst(a), exact_mst(b)
    assert ta is not tb
    for s, t in ((ta.u, tb.u), (ta.v, tb.v), (ta.w, tb.w)):
        assert s.dtype == t.dtype and s.tobytes() == t.tobytes()


def _grid(k, dim):
    axes = np.meshgrid(*[np.arange(k)] * dim)
    return np.column_stack([a.ravel() for a in axes]).astype(float)


_RNG = np.random.default_rng(23)
MST_INPUTS = {
    "uniform-8x2": _RNG.random((8, 2)),
    "uniform-30x3": _RNG.random((30, 3)),
    "uniform-60x8": _RNG.random((60, 8)),
    # integer lattices and equal spacing: many exact weight ties
    "grid-9x9": _grid(9, 2),
    # rows out of lattice order, so Prim meets ties whose lower-index
    # edge is not the one it found first
    "grid-9x9-shuffled": _grid(9, 2)[np.random.default_rng(0).permutation(81)],
    "lattice-7x7x7": _grid(7, 3),
    "collinear-40": np.arange(40.0)[:, None] * 0.25,
    # 2^7 cube corners, shuffled: every distance is the root of an integer
    # up to 7, so nearly every step ties, across the many compactions of
    # Prim's live columns
    "hypercube-7-shuffled": _grid(2, 7)[np.random.default_rng(1).permutation(128)],
    # beyond the former 2048-point limit of the all-pairs branch
    "grid-50x50": _grid(50, 2),
    "uniform-2600x5": np.random.default_rng(5).random((2600, 5)),
}


@pytest.mark.parametrize("name", MST_INPUTS)
def test_exact_mst_equals_kruskal_on_complete_graph(name):
    p = PointSet(MST_INPUTS[name])
    a = exact_mst(p)
    b = kruskal(p.n, all_pairs(p))
    assert _forest_bytes(a.u, a.v, a.w) == _forest_bytes(b.u, b.v, b.w)


def test_mst_weight_not_above_spanner_tree_weight():
    rng = np.random.default_rng(4)
    p = PointSet(rng.random((100, 4)))
    g = build_spanner(p, SpannerConfig(gamma=2.0, seed=1))
    spanner_tree = kruskal(p.n, (g.u, g.v, g.w))
    assert exact_mst(p).w.sum() <= spanner_tree.w.sum() + 1e-12


def test_kt_factor_exact_mst_is_one():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = PointSet(rng.random((25, 3)))
        assert kt_factor(p, exact_mst(p)) == 1.0


def test_kt_factor_hand_example():
    from ultrafit.mst import SpanningTree

    tree = SpanningTree(
        n=3, u=np.array([1, 0]), v=np.array([2, 2]), w=np.array([2.0, 3.0])
    )
    assert kt_factor(COLLINEAR, tree) == pytest.approx(3.0)


def test_kt_factor_two_points():
    p = PointSet([[0.0], [5.0]])
    assert kt_factor(p, exact_mst(p)) == 1.0


def test_kt_factor_bounded_by_spanner_stretch():
    rng = np.random.default_rng(31)
    for seed in range(4):
        p = PointSet(rng.random((60, 4)))
        g = build_spanner(p, SpannerConfig(gamma=2.0, seed=seed))
        tree = kruskal(p.n, (g.u, g.v, g.w))
        stretch = verify_stretch(p, g, sample=10**6)
        assert kt_factor(p, tree) <= stretch + 1e-9


def _single_scan_kruskal(n, u, v, w):
    """Kruskal as one scan over every edge in (weight, min index, max index)
    order: the path the batched filter scan replaces, kept as the oracle.
    Returns the forest's edge triples and its components, in the order of
    their roots, each ascending."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo, w))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forest = []
    for a, b, c in zip(lo[order].tolist(), hi[order].tolist(), w[order].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            forest.append((a, b, c))
    comps = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    return forest, [comps[r] for r in sorted(comps)]


def _tie_heavy_graph(rng, n, m):
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    w = np.round(rng.random(m) * 40) / 8  # about 40 distinct weights
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    # repeated pairs, half of them with swapped endpoints
    r = rng.integers(0, len(u), len(u) // 5)
    return np.concatenate([u, v[r]]), np.concatenate([v, u[r]]), np.concatenate([w, w[r]])


@pytest.mark.parametrize("seed", range(3))
def test_kruskal_batches_match_single_scan(seed):
    rng = np.random.default_rng(seed)
    n = 120
    # several times the 4n-edge batch, so several filter passes run
    u, v, w = _tie_heavy_graph(rng, n, 30 * n)
    u = np.concatenate([u, np.arange(n - 1)])  # a heavy path keeps it connected
    v = np.concatenate([v, np.arange(1, n)])
    w = np.concatenate([w, np.full(n - 1, 100.0)])
    forest, comps = _single_scan_kruskal(n, u, v, w)
    assert len(comps) == 1
    tree = kruskal(n, (u, v, w))
    assert _forest_bytes(tree.u, tree.v, tree.w) == _forest_bytes(*zip(*forest))


@pytest.mark.parametrize("chunk", [1, 100])
def test_kruskal_in_small_chunks_matches_single_scan(chunk, monkeypatch):
    # the first batch's chunks of ids, the index built from its survivors and
    # the later compactions all work a chunk at a time
    monkeypatch.setattr(core_mod, "_CHUNK", chunk)
    rng = np.random.default_rng(4)
    n = 120
    u, v, w = _tie_heavy_graph(rng, n, 30 * n)
    u = np.concatenate([u, np.arange(n - 1)])
    v = np.concatenate([v, np.arange(1, n)])
    w = np.concatenate([w, np.full(n - 1, 100.0)])
    forest, _ = _single_scan_kruskal(n, u, v, w)
    tree = kruskal(n, (u.astype(np.int32), v.astype(np.int32), w))
    assert _forest_bytes(tree.u, tree.v, tree.w) == _forest_bytes(*zip(*forest))


def _ordered_weights(order, m, rng):
    if order == "equal":
        return np.ones(m)
    if order == "ascending":
        return np.arange(m) / 8.0
    if order == "descending":
        return np.arange(m)[::-1] / 8.0
    w = np.round(rng.random(m) * 40) / 8  # "nan": a third of the weights NaN
    w[rng.random(m) < 1 / 3] = np.nan
    return w


def _forest_bytes(u, v, w):
    return np.asarray(u).tobytes(), np.asarray(v).tobytes(), np.asarray(w, dtype=float).tobytes()


@pytest.mark.parametrize("sample", [None, 7], ids=["default-sample", "sample7"])
@pytest.mark.parametrize("order", ["equal", "ascending", "descending", "nan"])
def test_kruskal_batches_match_single_scan_weight_orders(order, sample, monkeypatch):
    # the batch thresholds come from a strided sample of the live weights;
    # sorted and constant weights are where such a sample is at its worst,
    # and NaN weights sort last.  A 7-weight sample makes the stride > 1.
    if sample:
        monkeypatch.setattr(mst_mod, "_FILTER_SAMPLE", sample)
    rng = np.random.default_rng(17)
    n = 120
    u, v, _ = _tie_heavy_graph(rng, n, 30 * n)
    if order == "nan":  # the last point is only reachable through a NaN edge
        keep = (u != n - 1) & (v != n - 1)
        u, v = u[keep], v[keep]
    w = _ordered_weights(order, len(u) + n - 1, rng)
    u = np.concatenate([u, np.arange(n - 1)])  # a path keeps it connected
    v = np.concatenate([v, np.arange(1, n)])
    if order == "nan":
        w[-1] = np.nan
    forest, comps = _single_scan_kruskal(n, u, v, w)
    assert len(comps) == 1
    tree = kruskal(n, (u, v, w))
    assert _forest_bytes(tree.u, tree.v, tree.w) == _forest_bytes(*zip(*forest))
    assert np.isnan(tree.w).any() == (order == "nan")


def test_kruskal_batches_match_single_scan_on_spanner():
    p = PointSet(np.random.default_rng(5).random((400, 3)))
    g = build_spanner(p, SpannerConfig(gamma=1.5, seed=2))
    forest, _ = _single_scan_kruskal(p.n, g.u, g.v, g.w)
    tree = kruskal(p.n, (g.u, g.v, g.w))
    assert _forest_bytes(tree.u, tree.v, tree.w) == _forest_bytes(*zip(*forest))


def test_kruskal_disconnected_forest_matches_single_scan():
    rng = np.random.default_rng(3)
    n = 150
    u, v, w = _tie_heavy_graph(rng, n, 20 * n)
    # cut every edge touching the last 40 points but those inside 110..129,
    # so 130..149 end up isolated
    keep = ((u < 110) & (v < 110)) | ((u >= 110) & (u < 130) & (v >= 110) & (v < 130))
    u, v, w = u[keep], v[keep], w[keep]
    forest, comps = _single_scan_kruskal(n, u, v, w)
    with pytest.raises(DisconnectedGraphError) as err:
        kruskal(n, (u, v, w))
    exc = err.value
    got = list(zip(exc.forest_u.tolist(), exc.forest_v.tolist(), exc.forest_w.tolist()))
    assert got == forest
    assert exc.components == comps
    assert len(comps) >= 22  # the two groups and the 20 isolated points


def test_kruskal_disconnected_components_listed_in_root_order():
    rng = np.random.default_rng(8)
    n = 400
    u, v, w = _tie_heavy_graph(rng, n, n // 2)
    forest, comps = _single_scan_kruskal(n, u, v, w)
    assert len(comps) > 100 and comps != sorted(comps)  # some roots are not their component's minimum
    with pytest.raises(DisconnectedGraphError) as err:
        kruskal(n, (u, v, w))
    assert err.value.components == comps


def _blobs(n, d, seed):
    """Ten Gaussian blobs, the shape of the benchmark's blob workload."""
    rng = np.random.default_rng(seed)
    centers = rng.random((10, d)) * 6.0
    return centers[rng.integers(0, 10, n)] + rng.standard_normal((n, d)) * 0.35


def test_kruskal_on_int32_endpoints_equals_int64():
    # spanner endpoints are int32 and kruskal reads them without widening;
    # the tree must be the one the same edges give as int64
    p = PointSet(_blobs(3000, 16, 2))
    g = build_spanner(p, SpannerConfig(gamma=2.5, seed=4))
    assert g.u.dtype == g.v.dtype == np.int32
    assert g.edge_count > 10 * mst_mod._FILTER_EDGES_PER_POINT * p.n  # several batches
    narrow = kruskal(p.n, (g.u, g.v, g.w))
    wide = kruskal(p.n, (g.u.astype(np.int64), g.v.astype(np.int64), g.w))
    assert narrow.u.dtype == narrow.v.dtype == np.int64
    assert _forest_bytes(narrow.u, narrow.v, narrow.w) == _forest_bytes(wide.u, wide.v, wide.w)


def test_kruskal_memory_is_an_index_per_edge():
    # beside the input graph, kruskal holds the working arrays of one batch
    # of about 4n edges, which scale with the points, and one int32 index per
    # edge that the first batch's scan leaves live (about half here): no copy
    # of the edge arrays or their weights, and no index over every edge
    p = PointSet(_blobs(3000, 16, 1))
    g = build_spanner(p, SpannerConfig(gamma=2.5, seed=1))
    tracemalloc.start()
    try:
        kruskal(p.n, (g.u, g.v, g.w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * g.edge_count + 4 * p.coords.nbytes
