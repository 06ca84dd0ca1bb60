import functools
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from ultrafit import (
    PointSet,
    agglomerate,
    build_dendrogram,
    contract_duplicates,
    dedupe,
    exact_mst,
    expand_duplicates,
    farach_exact,
    format_merge_list,
    from_merge_rows,
    normalize,
    parse_merge_list,
    single_linkage,
    to_merge_rows,
    to_newick,
)
from ultrafit import dendro as dendro_mod
from ultrafit.core import cross_distances, worker_limit

COLLINEAR = PointSet([[0.0], [1.0], [3.0]])


def collinear_tree():
    return exact_mst(COLLINEAR)


def test_build_exact_heights():
    d = build_dendrogram(collinear_tree(), [1.0, 3.0])
    assert d.ultra_distance(0, 1) == 1.0
    assert d.ultra_distance(0, 2) == 3.0
    assert d.ultra_distance(1, 2) == 3.0


def test_build_approx_heights():
    d = build_dendrogram(collinear_tree(), [5.0, 15.0])
    assert d.ultra_distance(0, 1) == 5.0
    assert d.ultra_distance(0, 2) == 15.0
    assert d.ultra_distance(1, 2) == 15.0


def test_build_two_leaves():
    p = PointSet([[0.0], [2.0]])
    d = build_dendrogram(exact_mst(p), [2.0])
    assert to_merge_rows(d) == [(0, 1, 2.0, 2)]


def test_build_rejects_misaligned_heights():
    with pytest.raises(ValueError, match="misaligned"):
        build_dendrogram(collinear_tree(), [1.0])


def test_ultra_distance_identity_and_symmetry():
    d = build_dendrogram(collinear_tree(), [1.0, 3.0])
    assert d.ultra_distance(1, 1) == 0.0
    assert d.ultra_distance(2, 0) == d.ultra_distance(0, 2)


def test_ultra_distance_rejects_bad_leaf():
    d = build_dendrogram(collinear_tree(), [1.0, 3.0])
    with pytest.raises(IndexError):
        d.ultra_distance(0, 3)


def test_star_ultrametric_single_level():
    # all merges at one height: every pair at that height
    d = from_merge_rows(4, [0, 4, 5], [1, 2, 3], [2.0, 2.0, 2.0])
    for u in range(4):
        for v in range(u + 1, 4):
            assert d.ultra_distance(u, v) == 2.0


def test_monotone_heights_always():
    rng = np.random.default_rng(5)
    p = PointSet(rng.random((40, 3)))
    tree = exact_mst(p)
    heights = rng.random(39) * 4
    d = build_dendrogram(tree, heights)
    hs = np.concatenate([np.zeros(40), d.height])
    for i in range(39):
        assert d.height[i] >= hs[d.left[i]]
        assert d.height[i] >= hs[d.right[i]]


def test_strong_triangle_inequality_exhaustive():
    rng = np.random.default_rng(8)
    p = PointSet(rng.random((60, 4)))
    d = single_linkage(p)
    m = d.ultrametric_matrix()
    for z in range(p.n):
        bound = np.maximum.outer(m[z], m[z])
        assert (m <= bound * (1 + 1e-12)).all()


def test_single_linkage_is_tree_path_max():
    rng = np.random.default_rng(12)
    p = PointSet(rng.random((30, 2)))
    tree = exact_mst(p)
    d = build_dendrogram(tree, tree.w)
    # brute force path max by BFS on the tree
    adj = [[] for _ in range(p.n)]
    for a, b, w in zip(tree.u.tolist(), tree.v.tolist(), tree.w.tolist()):
        adj[a].append((b, w))
        adj[b].append((a, w))
    for src in range(p.n):
        best = np.full(p.n, -1.0)
        best[src] = 0.0
        stack = [src]
        while stack:
            x = stack.pop()
            for y, w in adj[x]:
                if best[y] < 0:
                    best[y] = max(best[x], w)
                    stack.append(y)
        got = [d.ultra_distance(src, v) for v in range(p.n)]
        assert got == best.tolist()


def test_normalize_single_linkage_collinear():
    d = single_linkage(COLLINEAR)
    assert d.height.tolist() == [1.0, 2.0]
    scaled, s = normalize(d, COLLINEAR)
    assert s == 1.5
    assert scaled.height.tolist() == [1.5, 3.0]


def test_normalize_dominating_output_scale_one():
    d = farach_exact(COLLINEAR).dendrogram
    scaled, s = normalize(d, COLLINEAR)
    assert s == 1.0
    assert scaled.height.tolist() == d.height.tolist()


def test_normalize_two_points():
    p = PointSet([[0.0], [1.0]])
    d = from_merge_rows(2, [0], [1], [0.5])
    scaled, s = normalize(d, p)
    assert s == 2.0
    assert scaled.height.tolist() == [1.0]


def test_normalize_preserves_topology():
    # on the 40-point input h * (d_max / h) rounds below d_max at one node
    for seed, n in ((3, 25), (8, 40)):
        p = PointSet(np.random.default_rng(seed).random((n, 3)))
        d = single_linkage(p)
        scaled, s = normalize(d, p)
        assert s >= 1.0
        assert (scaled.left == d.left).all() and (scaled.right == d.right).all()
        assert scaled.height == pytest.approx((d.height * s).tolist())
        assert (scaled.ultrametric_matrix() >= cross_distances(p.coords, p.coords)).all()


def test_normalize_rejects_zero_heights():
    p = PointSet([[0.0], [1.0]])
    d = from_merge_rows(2, [0], [1], [0.0])
    with pytest.raises(ValueError, match="dedupe"):
        normalize(d, p)


def test_merge_rows_collinear():
    d = build_dendrogram(collinear_tree(), [1.0, 3.0])
    assert to_merge_rows(d) == [(0, 1, 1.0, 2), (3, 2, 3.0, 3)]


def test_format_matches_example_text():
    d = build_dendrogram(collinear_tree(), [1.0, 3.0])
    assert format_merge_list(d) == "0 1 1.0 2\n3 2 3.0 3\n"


def test_newick_two_leaves():
    d = from_merge_rows(2, [0], [1], [1.0])
    assert to_newick(d, ["a", "b"]) == "(a:1,b:1);"


def test_newick_branch_lengths():
    d = build_dendrogram(collinear_tree(), [1.0, 3.0])
    assert to_newick(d) == "((0:1,1:1):2,2:3);"


def test_newick_single_leaf():
    d = from_merge_rows(1, [], [], [])
    assert to_newick(d, ["x"]) == "x;"


def test_parse_round_trip_identical():
    rng = np.random.default_rng(19)
    p = PointSet(rng.random((40, 3)))
    d = farach_exact(p).dendrogram
    back = parse_merge_list(format_merge_list(d))
    assert (back.left == d.left).all()
    assert (back.right == d.right).all()
    assert (back.height == d.height).all()
    assert (back.ultrametric_matrix() == d.ultrametric_matrix()).all()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="row 1"):
        parse_merge_list("0 1 nonsense 2\n")
    with pytest.raises(ValueError, match="columns"):
        parse_merge_list("0 1 1.0\n")


def test_parse_rejects_non_monotone_heights():
    text = "0 1 2.0 2\n3 2 1.0 3\n"
    with pytest.raises(ValueError, match="non-monotone"):
        parse_merge_list(text)


def test_parse_rejects_bad_size_column():
    text = "0 1 1.0 2\n3 2 3.0 5\n"
    with pytest.raises(ValueError, match="size"):
        parse_merge_list(text)


def test_expand_duplicates_zero_height_leaves():
    p = PointSet([[0.0], [0.0], [1.0], [3.0], [3.0]])
    unique, groups = dedupe(p)
    d = farach_exact(unique).dendrogram
    full = expand_duplicates(d, groups)
    assert full.n == 5
    assert full.ultra_distance(0, 1) == 0.0  # duplicate pair
    assert full.ultra_distance(3, 4) == 0.0
    assert full.ultra_distance(0, 2) == d.ultra_distance(0, 1)
    hs = np.concatenate([np.zeros(full.n), full.height])
    for i in range(full.n - 1):
        assert full.height[i] >= hs[full.left[i]]
        assert full.height[i] >= hs[full.right[i]]


def test_contract_inverts_expand():
    p = PointSet([[0.0], [0.0], [1.0], [3.0], [3.0], [7.0]])
    unique, groups = dedupe(p)
    d = farach_exact(unique).dendrogram
    back = contract_duplicates(expand_duplicates(d, groups), groups)
    assert (back.ultrametric_matrix() == d.ultrametric_matrix()).all()
    assert back.height.tolist() == d.height.tolist()


def test_contract_without_duplicates_is_identity():
    rng = np.random.default_rng(44)
    p = PointSet(rng.random((12, 2)))
    d = single_linkage(p)
    same = contract_duplicates(d, {i: [i] for i in range(12)})
    assert (same.ultrametric_matrix() == d.ultrametric_matrix()).all()


def _expand_loop(d, groups):
    """Merge-row relabeling expand_duplicates replaced, kept as the oracle:
    each group's copies chain at height 0, then the merges follow with
    their internal ids shifted."""
    left, right, height = [], [], []
    node_of = {}
    total = sum(len(g) for g in groups.values())
    next_node = total
    for i in range(d.n):
        g = sorted(groups[i])
        cur = g[0]
        for dup in g[1:]:
            left.append(cur)
            right.append(dup)
            height.append(0.0)
            cur = next_node
            next_node += 1
        node_of[i] = cur
    offset = next_node - d.n
    for l, r, h in zip(d.left.tolist(), d.right.tolist(), d.height.tolist()):
        left.append(node_of[l] if l < d.n else l + offset)
        right.append(node_of[r] if r < d.n else r + offset)
        height.append(h)
    return from_merge_rows(total, left, right, height)


def _contract_loop(d, groups):
    """Merge-row relabeling contract_duplicates replaced, kept as the
    oracle: a merge of two nodes mapped to one group vanishes."""
    mapped = [-1] * (2 * d.n - 1)
    for ni, members in groups.items():
        for x in members:
            mapped[x] = ni
    left, right, height = [], [], []
    for i, (l, r, h) in enumerate(zip(d.left.tolist(), d.right.tolist(), d.height.tolist())):
        if mapped[l] == mapped[r]:
            mapped[d.n + i] = mapped[l]
        else:
            left.append(mapped[l])
            right.append(mapped[r])
            height.append(h)
            mapped[d.n + i] = len(groups) + len(left) - 1
    return from_merge_rows(len(groups), left, right, height)


def _same_rows(a, b):
    assert a.n == b.n
    for x, y in ((a.left, b.left), (a.right, b.right), (a.height, b.height), (a.size, b.size)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("algo", ["approx", "exact", "single", "ward"])
def test_expand_and_contract_match_relabel_loops(algo):
    from ultrafit import run_algorithm

    rng = np.random.default_rng(23)
    x = rng.random((120, 3))
    x[80:] = x[rng.integers(0, 80, 40)]  # copies, some of one row several times
    rows = rng.permutation(120)
    unique, groups = dedupe(PointSet(x[rows]))
    d = run_algorithm(algo, unique).dendrogram
    full = expand_duplicates(d, groups)
    _same_rows(full, _expand_loop(d, groups))
    _same_rows(contract_duplicates(full, groups), _contract_loop(full, groups))
    _same_rows(contract_duplicates(full, groups), d)


def test_contract_rejects_separated_copies():
    # rows 0 and 2 are copies, but leaf 0 merges with leaf 1 first
    d = from_merge_rows(4, [0, 2, 4], [1, 3, 5], [1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="rows 0, 2"):
        contract_duplicates(d, {0: [0, 2], 1: [1], 2: [3]})


def _newick_recursive(d, labels):
    """A recursive formatter, the oracle of to_newick's explicit stack."""
    node_h = np.concatenate([np.zeros(d.n), d.height])

    def fmt(x):
        if x < d.n:
            return str(labels[x])
        i = x - d.n
        l, r = int(d.left[i]), int(d.right[i])
        bl = dendro_mod._fmt_branch(d.height[i] - node_h[l])
        br = dendro_mod._fmt_branch(d.height[i] - node_h[r])
        return f"({fmt(l)}:{bl},{fmt(r)}:{br})"

    return fmt(d.root) + ";"


@pytest.mark.parametrize("algo", ["approx", "acc", "exact", "single", "complete", "average", "ward"])
def test_newick_matches_recursive_formatter(algo):
    from ultrafit import run_algorithm

    p = PointSet(np.random.default_rng(31).random((300, 3)))
    d = run_algorithm(algo, p).dendrogram
    assert to_newick(d) == _newick_recursive(d, range(p.n))
    names = [f"p{i}" for i in range(p.n)]
    assert to_newick(d, names) == _newick_recursive(d, names)


def test_newick_memory_linear_on_a_chain():
    # a caterpillar, as single linkage gives on points along a line: every
    # subtree's text held at once would take quadratic memory
    n = 4000
    d = from_merge_rows(n, [0] + list(range(n, 2 * n - 2)), list(range(1, n)), np.arange(1.0, n))
    tracemalloc.start()
    try:
        text = to_newick(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.startswith("(" * (n - 1) + "0:1,1:1):1,2:2):1,")
    assert peak < 16 * 2**20


def _leaves(d):
    """Leaf ids under every node, left child's leaves first (DFS order)."""
    leaves = [[i] for i in range(d.n)]
    for l, r in zip(d.left.tolist(), d.right.tolist()):
        leaves.append(leaves[l] + leaves[r])
    return leaves


def _caterpillar():
    # gaps grow along the line, so single linkage adds one leaf per merge
    p = PointSet((np.arange(12.0) ** 2)[:, None])
    return p, single_linkage(p)


def _grid():
    g = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), -1).reshape(-1, 2)
    p = PointSet(g)
    return p, farach_exact(p).dendrogram


def _random():
    p = PointSet(np.random.default_rng(30).random((40, 3)))
    return p, single_linkage(p)


def _two():
    p = PointSet([[0.0, 1.0], [2.0, 5.0]])
    return p, single_linkage(p)


def _duplicates():
    # zero distances: 1/d sums to inf, the closest pair is the first zero one
    p = PointSet([[0.0], [0.0], [1.0], [1.0]])
    return p, from_merge_rows(4, [0, 4, 2], [1, 3, 5], [1.0, 2.0, 3.0])


def _offset():
    # far from the origin: uncentred squared norms would swamp the distances
    p = PointSet(np.random.default_rng(31).random((40, 3)) + 1e6)
    return p, single_linkage(p)


def _huge():
    # coordinates near 1e150: squared norms near 1e301 are outside the
    # binary32 screening range, so blocks are screened in binary64 alone
    p = PointSet(np.random.default_rng(32).random((30, 4)) * 1e150)
    return p, single_linkage(p)


def _tiny():
    # coordinates near 1e-161: squared norms are subnormal, so nothing is screened
    p = PointSet(np.random.default_rng(35).random((30, 4)) * 1e-161)
    return p, single_linkage(p)


def _far_tight():
    # a cluster of scale 1e-4 next to one 1e3 away: the centre shared by the
    # whole tree lies between them, so every squared norm is about 7.5e5 and
    # E (about 2e-8) exceeds the tight cluster's squared distances
    rng = np.random.default_rng(36)
    x = rng.random((400, 3)) * 1e-4
    x[200:] = 1e3 + rng.random((200, 3))
    p = PointSet(x)
    return p, single_linkage(p)


def _far_mid():
    # a cluster of scale 1e-2 next to one 1e3 away: every squared norm is
    # about 7.5e5, so E is about 10 in binary32 and 2e-8 in binary64, and
    # the tight cluster's squared distances (about 1e-4) lie between them
    rng = np.random.default_rng(37)
    x = rng.random((600, 3)) * 1e-2
    x[300:] = 1e3 + rng.random((300, 3))
    p = PointSet(x)
    return p, single_linkage(p)


def _high_d():
    p = PointSet(np.random.default_rng(33).random((40, 77)))
    return p, single_linkage(p)


def _big_grid():
    # many equal distances, and three merges above the default screening size
    p = PointSet(np.stack(np.meshgrid(np.arange(16.0), np.arange(16.0)), -1).reshape(-1, 2))
    return p, agglomerate(p, "average")


def _grid_chain():
    # the exact fit of the same grid merges one point at a time, all at height 1
    p = _big_grid()[0]
    return p, farach_exact(p).dendrogram


def _dense_check(p, d, stats):
    """Every node's dmin, first closest pair and dmax against a dense cdist scan."""
    D = cross_distances(p.coords, p.coords)
    leaves = _leaves(d)
    for i, (l, r) in enumerate(zip(d.left.tolist(), d.right.tolist())):
        a, b = leaves[l], leaves[r]
        block = D[np.ix_(a, b)]
        k = int(np.argmin(block))  # first closest pair in row-major order
        assert stats.dmin[i] == block.min()
        assert stats.pair[i].tolist() == [a[k // len(b)], b[k % len(b)]]
        assert stats.dmax[i] == block.max()


# one _block_extremes call; flipped: some merge's rows are its right child
_Block = namedtuple("_Block", "shape merges screened flipped reduced")


def _spy_block_extremes(monkeypatch):
    """Every _block_extremes call, as a _Block."""
    calls = []
    block_extremes = dendro_mod._block_extremes

    def spy(V, rowpos, colpos, seg, merges, flip, screen=None, row_segments=False):
        result = block_extremes(V, rowpos, colpos, seg, merges, flip, screen, row_segments)
        calls.append(_Block(V.shape, merges.tolist(), screen is not None, bool(flip.any()), result is not None))
        return result

    monkeypatch.setattr(dendro_mod, "_block_extremes", spy)
    return calls


def _spy_entries(monkeypatch, chunk):
    entries = []

    def spy(a, b):
        out = cross_distances(a, b)
        assert out.size <= chunk
        entries.append(out.size)
        return out

    monkeypatch.setattr(dendro_mod, "cross_distances", spy)
    return entries


@pytest.mark.parametrize("chunk", [1 << 18, 5], ids=["default-chunk", "chunk5"])
@pytest.mark.parametrize(
    "make",
    [
        _random, _grid, _two, _caterpillar, _duplicates,
        _offset, _huge, _tiny, _far_tight, _far_mid, _high_d, _big_grid, _grid_chain,
    ],
    ids=lambda f: f.__name__[1:],
)
def test_cross_stats_match_brute_force(make, chunk, monkeypatch):
    p, d = make()
    monkeypatch.setattr(dendro_mod, "_CHUNK_ELEMS", chunk)
    entries = _spy_entries(monkeypatch, chunk)
    # default screening size, then every block screened
    for elems in (dendro_mod._SCREEN_MIN_ELEMS, 1):
        monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_ELEMS", elems)
        _dense_check(p, d, replace(d, _cross=None).cross_stats(p))
    entries.clear()
    inv = d.inv_sums(p)
    assert sum(entries) == p.n * (p.n - 1) // 2  # the 1/d scan visits every pair once
    D = cross_distances(p.coords, p.coords)
    leaves = _leaves(d)
    for i, (l, r) in enumerate(zip(d.left.tolist(), d.right.tolist())):
        with np.errstate(divide="ignore"):
            expect = (1.0 / D[np.ix_(leaves[l], leaves[r])]).sum()
        assert inv[i] == pytest.approx(expect, rel=1e-12)


def test_screen_falls_back_near_overflow(monkeypatch):
    # two clusters 1.3e154 apart: the root's squared norms exceed max / 4, so
    # the block holding its cross pairs is one plain cdist block; distances
    # stay finite
    rng = np.random.default_rng(34)
    x = np.concatenate([rng.random(20) * 1e152, 1.3e154 + rng.random(20) * 1e152])
    p = PointSet(x[:, None])
    d = single_linkage(p)
    monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_ELEMS", 1)
    entries = _spy_entries(monkeypatch, dendro_mod._CHUNK_ELEMS)
    blocks = _spy_block_extremes(monkeypatch)
    stats = replace(d, _cross=None).cross_stats(p)
    [root] = [b for b in blocks if len(d.height) - 1 in b.merges]
    assert not root.screened and root.shape[0] * root.shape[1] in entries
    assert root.shape[0] >= 20 and root.shape[1] == 20  # the root's 20 rows against its 20 columns
    assert np.isfinite(stats.dmax).all()
    _dense_check(p, d, stats)


def _spy_kernel(monkeypatch):
    """Entries of every cdist block, and (dtype, all finite) of every GEMM
    output, of this process."""
    from ultrafit import core as core_mod

    entries, gemms = [], []
    cdist, matmul = core_mod.cdist, np.matmul

    def cdist_spy(a, b, *args, **kw):
        out = cdist(a, b, *args, **kw)
        entries.append(out.size)
        return out

    def matmul_spy(a, b, *args, **kw):
        out = matmul(a, b, *args, **kw)
        gemms.append((out.dtype, bool(np.isfinite(out).all())))
        return out

    monkeypatch.setattr(core_mod, "cdist", cdist_spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    return entries, gemms


def _binary64_only(monkeypatch):
    """Every screen in binary64, as before binary32 screens."""
    row_factors = dendro_mod._row_factors
    monkeypatch.setattr(
        dendro_mod, "_row_factors", lambda F, rows, c0, c1, M, precise: row_factors(F, rows, c0, c1, M, True)
    )


def test_binary64_rescreen_keeps_tight_clusters_selective(monkeypatch):
    # in _far_mid's tight cluster the binary32 margin makes every entry a
    # candidate; screened again in binary64, the scan computes no more
    # cdist entries than a scan screened in binary64 alone
    p, d = _far_mid()
    entries, gemms = _spy_kernel(monkeypatch)
    got = replace(d, _cross=None).cross_stats(p)
    mixed = sum(entries)
    assert {dtype for dtype, _ in gemms} == {np.dtype(np.float32), np.dtype(np.float64)}
    entries.clear()
    _binary64_only(monkeypatch)
    want = replace(d, _cross=None).cross_stats(p)
    assert mixed <= sum(entries)
    monkeypatch.undo()
    _assert_bitwise(got, want)
    _assert_bitwise(got, _oracle(d, p))
    _dense_check(p, d, got)


def _screen_choices(p, d, monkeypatch):
    """cross_stats with every block of at least one entry screened, and
    the (M, screens) that _screens chose for each block."""
    choices = []
    screens = dendro_mod._screens

    def spy(F, rows, c0, c1):
        choices.append(screens(F, rows, c0, c1))
        return choices[-1]

    with monkeypatch.context() as m:
        m.setattr(dendro_mod, "_screens", spy)
        m.setattr(dendro_mod, "_SCREEN_MIN_ELEMS", 1)
        stats = replace(d, _cross=None).cross_stats(p)
    return choices, stats


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("edge", ["low", "high"])
def test_screen_range_edges(edge, inside, monkeypatch):
    # 300 random points, scaled so that the smallest (low) or the largest
    # (high) M of a screened block lies 2^-10 inside or outside the
    # binary32 range, which a block outside it leaves for binary64 alone;
    # near the top, binary32 sums reach a quarter of the binary32 maximum
    base = PointSet(np.random.default_rng(38).random((300, 3)))
    d = single_linkage(base)
    pick = min if edge == "low" else max
    choices, _ = _screen_choices(base, d, monkeypatch)
    lo, hi = dendro_mod._SCREEN_NORMS
    step = 2.0**-10 if inside == (edge == "low") else -(2.0**-10)
    target = (lo if edge == "low" else hi) * (1 + step)
    p = PointSet(base.coords * np.sqrt(target / pick(choices)[0]))
    _, gemms = _spy_kernel(monkeypatch)
    choices, got = _screen_choices(p, d, monkeypatch)
    M, screens = pick(choices)
    assert M == pytest.approx(target, rel=2.0**-20) and (lo <= M <= hi) == inside
    assert screens == ((False, True) if inside else (True,))
    assert any(dtype == np.float32 for dtype, _ in gemms)
    assert all(finite for _, finite in gemms)
    monkeypatch.undo()
    _assert_bitwise(got, _oracle(d, p))
    _dense_check(p, d, got)


# -- the batched kernel against the per-merge oracle -------------------------


@pytest.fixture
def pool(monkeypatch):
    """Every cross_stats call runs its units in worker processes."""
    monkeypatch.setattr(dendro_mod, "_POOL_MIN_PAIRS", 0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    if worker_limit() < 2:
        pytest.skip("needs fork and two usable CPUs")


def _oracle(d, p):
    """The per-merge kernel: every merge reduced on its own through the
    _blocks blocks of _merge_extremes, screened when it is large."""
    Y, spans = d._dfs_layout(p)
    F = dendro_mod._screen_factors(Y)
    m = len(spans)
    dmin = np.empty(m)
    dmax = np.empty(m)
    first = np.empty((m, 2), dtype=np.int64)
    buf = np.empty(dendro_mod._CHUNK_ELEMS)
    for i, span in enumerate(spans.tolist()):
        dmin[i], first[i], dmax[i] = dendro_mod._merge_extremes(Y, F, *span, buf)
    return dendro_mod.CrossStats(dmin, d.leaf_spans()[0][first], dmax)


def _assert_bitwise(got, want):
    for name, g, w in zip(("dmin", "pair", "dmax"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def _grown(points, steps):
    """One cluster grown from leaf 0: step (k, side) pre-merges the next k
    leaves into a comb and adds it to the cluster as the side child.
    Heights ascend with the merge rows."""
    n = len(points)
    left, right = [], []
    node, cur, nxt = n, 0, 1
    for k, side in steps:
        sub = nxt
        for leaf in range(nxt + 1, nxt + k):
            left.append(sub)
            right.append(leaf)
            sub, node = node, node + 1
        nxt += k
        left.append(sub if side == "left" else cur)
        right.append(cur if side == "left" else sub)
        cur, node = node, node + 1
    assert nxt == n
    p = PointSet(np.asarray(points, dtype=np.float64).reshape(n, -1))
    return p, from_merge_rows(n, left, right, np.arange(1.0, n))


def _chain_left():
    # one leaf per merge, added as the left child: a tile, then a run of 172 merges
    return _grown(np.random.default_rng(50).random((300, 3)), [(1, "left")] * 299)


def _chain_right():
    return _grown(np.random.default_rng(51).random((300, 3)), [(1, "right")] * 299)


def _chain_mixed():
    # 1 to 7 leaves per merge, on either side
    rng = np.random.default_rng(52)
    steps, total = [], 1
    while total < 400:
        k = min(int(rng.integers(1, 8)), 400 - total)
        steps.append((k, "left" if rng.random() < 0.5 else "right"))
        total += k
    return _grown(rng.random((400, 4)), steps)


def _runs_mixed():
    # 8 to 60 leaves per merge, on either side: heavy-path runs of merges
    # too large for a tile, in plain and screened blocks
    rng = np.random.default_rng(53)
    steps = [(int(k), "left" if rng.random() < 0.5 else "right") for k in rng.integers(8, 61, 30)]
    return _grown(rng.random((1 + sum(k for k, _ in steps), 4)), steps)


def _collinear(side):
    # equally spaced points on a line, evens first, then the odd points in
    # pairs, the right one first: each lands between cluster points at
    # distance 1, so the minimum ties across rows and columns, and the first
    # tied pair of the left x right order is not the first in the other order
    odds = np.arange(1.0, 301.0, 2.0).reshape(-1, 2)[:, ::-1].ravel()
    x = np.concatenate((np.arange(0.0, 301.0, 2.0), odds))
    return _grown(x, [(1, side)] * 150 + [(2, side)] * 75)


def _collinear_left():
    return _collinear("left")


def _collinear_right():
    return _collinear("right")


def _one_hot():
    # every pairwise distance is sqrt(2) in 300 dimensions: single linkage
    # adds one leaf per merge, and every entry of a screened run block
    # is a candidate for both extremes
    p = PointSet(np.eye(300))
    return p, single_linkage(p)


def _spy_blocks(monkeypatch, cap):
    """Sizes of every cdist block (cross_distances and paired_distances) and
    every GEMM output of this process; in any process, a block beyond cap
    raises."""
    from ultrafit import core as core_mod

    sizes = []
    cdist, matmul = core_mod.cdist, np.matmul

    def cdist_spy(a, b, *args, **kw):
        out = cdist(a, b, *args, **kw)
        assert out.size <= cap, f"a cdist block of {out.size} entries"
        sizes.append(out.size)
        return out

    def matmul_spy(a, b, *args, **kw):
        out = matmul(a, b, *args, **kw)
        assert out.size <= cap, f"a GEMM block of {out.size} entries"
        sizes.append(out.size)
        return out

    monkeypatch.setattr(core_mod, "cdist", cdist_spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    return sizes


_BATCHED_CHUNKS = pytest.mark.parametrize("chunk", [1 << 18, 1 << 12, 5], ids=["default-chunk", "chunk4096", "chunk5"])
_BATCHED_TREES = pytest.mark.parametrize(
    "make",
    [
        _chain_left, _chain_right, _chain_mixed, _runs_mixed, _collinear_left, _collinear_right, _one_hot,
        _grid_chain, _big_grid, _caterpillar, _random, _duplicates, _offset, _far_tight, _far_mid, _high_d,
    ],
    ids=lambda f: f.__name__[1:],
)


def _check_batched(make, chunk, monkeypatch, pooled):
    """cross_stats of make's tree against the oracle and a dense scan;
    pooled when the pool fixture forced the crossover to 0."""
    p, d = make()
    monkeypatch.setattr(dendro_mod, "_CHUNK_ELEMS", chunk)
    want = _oracle(d, p)
    sizes = _spy_blocks(monkeypatch, chunk)  # no cdist or GEMM block beyond the cap
    got = replace(d, _cross=None).cross_stats(p)
    if not pooled:  # pooled, the blocks are the workers'
        assert sizes
    monkeypatch.undo()  # the dense check's own block exceeds the cap
    _assert_bitwise(got, want)
    _dense_check(p, d, got)


@_BATCHED_CHUNKS
@_BATCHED_TREES
def test_batched_cross_stats_match_oracle(make, chunk, monkeypatch):
    _check_batched(make, chunk, monkeypatch, pooled=False)


@_BATCHED_CHUNKS
@_BATCHED_TREES
def test_pooled_batched_cross_stats_match_oracle(make, chunk, pool, monkeypatch):
    _check_batched(make, chunk, monkeypatch, pooled=True)


def test_chain_fixtures_reach_every_batch_kind(monkeypatch):
    # the fixtures above exercise tiles, plain and screened run blocks, and
    # runs whose rows are the left and the right child
    blocks = _spy_block_extremes(monkeypatch)
    for make in (_chain_left, _chain_right, _collinear_left):
        p, d = make()
        blocks.clear()
        stats = d.cross_stats(p)
        assert len(blocks) >= 2  # a tile block, then run blocks
        assert any(b.screened for b in blocks)
        assert any(not b.screened for b in blocks)
        _assert_bitwise(stats, _oracle(d, p))
    p, d = _chain_right()
    blocks.clear()
    d.cross_stats(PointSet(p.coords))
    assert any(b.flipped for b in blocks)


def test_tied_high_d_chain_memory_stays_within_blocks():
    # every pairwise distance is sqrt(2) in n dimensions, so single linkage
    # is a caterpillar, one heavy path, and every entry of a run block is
    # a candidate for both extremes.  Such blocks go back to the per-merge
    # path, and a run block gathers at most _CHUNK_ELEMS coordinates of its
    # rows (its columns are views), so the peak stays within the DFS copy
    # of the coordinates, the screening factors of every row (one more
    # copy, and half of one in binary32), the candidates' columns of one
    # merge (at most another half) and two blocks.  Candidate arrays that fill the block (n = 300) or run blocks
    # of 2^18 entries with 1000 coordinates a row (n = 1000) each take more.
    for n in (300, 1000):
        p = PointSet(np.eye(n))
        d = single_linkage(p)
        tracemalloc.start()
        try:
            stats = replace(d, _cross=None).cross_stats(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * dendro_mod._CHUNK_ELEMS * 8 + 4 * p.coords.nbytes, n
        assert (stats.dmin == np.sqrt(2.0)).all() and (stats.dmax == np.sqrt(2.0)).all()


def test_cross_stats_centres_each_row_once(monkeypatch):
    # past 2^18 / d leaves a heavy path's merges no longer fit one run
    # block; each must still read the factors of the one centring
    p = PointSet(np.random.default_rng(7).random((6000, 77)))
    d = single_linkage(p)
    rows = []
    screen_factors = dendro_mod._screen_factors

    def spy(Y):
        rows.append(len(Y))
        return screen_factors(Y)

    monkeypatch.setattr(dendro_mod, "_screen_factors", spy)
    stats = replace(d, _cross=None).cross_stats(p)
    assert rows == [p.n]
    assert (stats.dmin <= stats.dmax).all()


def _blobs(n, d, seed):
    """Ten Gaussian blobs, the shape of the benchmark's blob workload."""
    rng = np.random.default_rng(seed)
    centers = rng.random((10, d)) * 6.0
    return centers[rng.integers(0, 10, n)] + rng.standard_normal((n, d)) * 0.35


def _benchmark_shapes():
    """(points, algorithm) pairs shaped like the benchmark's two workloads."""
    blobs = PointSet(_blobs(3000, 16, 61))
    highd = dedupe(PointSet(np.random.default_rng(62).random((600, 77))))[0]
    cases = [(blobs, a) for a in ("approx", "acc", "single")]
    return cases + [(highd, a) for a in ("approx", "acc", "exact", "single", "average", "ward")]


@pytest.mark.slow
def test_batched_cross_stats_match_oracle_at_benchmark_shapes(monkeypatch):
    from ultrafit import run_algorithm

    alone = []  # spans of the merges reduced on their own
    merge_extremes = dendro_mod._merge_extremes

    def spy(Y, F, a0, a1, b0, b1, buf):
        alone.append((a0, a1, b0, b1))
        return merge_extremes(Y, F, a0, a1, b0, b1, buf)

    monkeypatch.setattr(dendro_mod, "_merge_extremes", spy)
    blocks = _spy_block_extremes(monkeypatch)
    cap = dendro_mod._CHUNK_ELEMS
    for p, algo in _benchmark_shapes():
        d = run_algorithm(algo, p).dendrogram
        spans = d._dfs_layout(p)[1]
        alone.clear()
        blocks.clear()
        got = replace(d, _cross=None).cross_stats(p)
        # only a merge too large for one block, or one of a tied block
        tied = {tuple(spans[i].tolist()) for b in blocks if not b.reduced for i in b.merges}
        for a0, a1, b0, b1 in alone:
            na, nb = a1 - a0, b1 - b0
            assert na * nb > cap or min(na, nb) * p.d > cap or (a0, a1, b0, b1) in tied, algo
        _assert_bitwise(got, _oracle(d, p))


@pytest.mark.slow
def test_screened_candidates_cost_a_few_cdist_entries_each(monkeypatch):
    # each candidate of a screened run block gets its own cdist value, from
    # small blocks whose diagonals hold them; one block over the
    # candidates' rows x columns computed about 108 entries per candidate
    # on the benchmark's high-d trees
    from ultrafit import core as core_mod
    from ultrafit import run_algorithm

    counts = {"candidates": 0, "entries": 0}
    cdist, pair_distances = core_mod.cdist, dendro_mod._pair_distances

    def cdist_spy(a, b, *args, **kw):
        out = cdist(a, b, *args, **kw)
        counts["entries"] += out.size
        return out

    def spy(Y, i, j):
        counts["candidates"] += len(i)
        with monkeypatch.context() as m:
            m.setattr(core_mod, "cdist", cdist_spy)
            return pair_distances(Y, i, j)

    monkeypatch.setattr(dendro_mod, "_pair_distances", spy)
    for p, algo in _benchmark_shapes():
        if p.d == 77:
            d = run_algorithm(algo, p).dendrogram
            _assert_bitwise(replace(d, _cross=None).cross_stats(p), _oracle(d, p))
    assert counts["candidates"] > 1000
    assert counts["entries"] <= 16 * counts["candidates"]


@pytest.mark.slow
def test_pooled_batched_cross_stats_match_oracle_at_benchmark_shapes(pool):
    from ultrafit import run_algorithm

    for p, algo in _benchmark_shapes():
        d = run_algorithm(algo, p).dendrogram
        _assert_bitwise(replace(d, _cross=None).cross_stats(p), _oracle(d, p))


# -- cross_stats on the fork map ----------------------------------------------


def _serial_stats(d, p, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(dendro_mod, "_POOL_MIN_PAIRS", float("inf"))
        return replace(d, _cross=None).cross_stats(p)


def test_cross_stats_pools_only_past_the_crossover(fork_map_calls, monkeypatch):
    # every tree of up to 5793 points stays serial, those of the benchmark's
    # 1800-row workload included
    assert 5793 * 5792 // 2 < dendro_mod._POOL_MIN_PAIRS
    p = PointSet(np.random.default_rng(70).random((600, 4)))
    d = single_linkage(p)
    _, spans = d._dfs_layout(p)
    a0, a1, b0, b1 = spans.T
    outside = int(((a1 - a0) * (b1 - b0))[b1 - a0 > dendro_mod._tile_cap()].sum())
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    for threshold, workers in ((outside + 1, 1), (outside, worker_limit())):
        monkeypatch.setattr(dendro_mod, "_POOL_MIN_PAIRS", threshold)
        fork_map_calls.clear()
        replace(d, _cross=None).cross_stats(p)
        assert fork_map_calls == [(workers, "block")]


@pytest.mark.parametrize("algo", ["approx", "acc", "exact", "single", "complete", "average", "ward"])
def test_pooled_cross_stats_match_serial_for_every_algorithm(algo, pool, monkeypatch):
    from ultrafit import run_algorithm

    # a small block cap makes the large merges span several blocks
    cap = 1 << 12
    monkeypatch.setattr(dendro_mod, "_CHUNK_ELEMS", cap)
    p = PointSet(_blobs(700, 5, 71))
    d = run_algorithm(algo, p).dendrogram
    a0, a1, b0, b1 = d._dfs_layout(p)[1].T
    assert ((a1 - a0) * (b1 - b0) > cap).any()  # a merge over several blocks
    _assert_bitwise(replace(d, _cross=None).cross_stats(p), _serial_stats(d, p, monkeypatch))


def _spy_units(monkeypatch):
    """Every unit result that cross_stats reads, in the order it reads them."""
    results = []
    fork_map = dendro_mod.fork_map

    def record(it):
        for result in it:
            results.append(result)
            yield result

    @contextmanager
    def spy(job, ids, workers, label="item"):
        with fork_map(job, ids, workers, label) as it:
            yield record(it)

    monkeypatch.setattr(dendro_mod, "fork_map", spy)
    return results


def _check_units(monkeypatch):
    """Each merge of an average tree is in exactly one unit, and the merges
    too large for one block come first, one a unit, largest first, then
    the tile pass."""
    from ultrafit import run_algorithm

    cap = 1 << 12
    monkeypatch.setattr(dendro_mod, "_CHUNK_ELEMS", cap)
    p = PointSet(_blobs(700, 5, 71))
    d = run_algorithm("average", p).dendrogram
    a0, a1, b0, b1 = d._dfs_layout(p)[1].T
    pairs = (a1 - a0) * (b1 - b0)
    large = np.flatnonzero((pairs > cap) | (np.minimum(a1 - a0, b1 - b0) * p.d > cap))
    small = np.flatnonzero(b1 - a0 <= dendro_mod._tile_cap())
    results = _spy_units(monkeypatch)
    got = replace(d, _cross=None).cross_stats(p)
    units = [merges.tolist() for merges, *_ in results]
    k = len(large)
    assert k >= 2 and all(len(merges) == 1 for merges in units[:k])
    lead = [merges[0] for merges in units[:k]]
    assert sorted(lead) == large.tolist()
    assert pairs[lead].tolist() == sorted(pairs[lead].tolist(), reverse=True)
    assert sorted(units[k]) == small.tolist()
    assert sorted(i for merges in units for i in merges) == list(range(len(pairs)))
    _assert_bitwise(got, _oracle(d, p))


def test_each_merge_is_in_one_unit_and_the_largest_go_first(monkeypatch):
    _check_units(monkeypatch)


def test_pooled_each_merge_is_in_one_unit_and_the_largest_go_first(pool, monkeypatch):
    _check_units(monkeypatch)


@pytest.mark.parametrize(
    "env, pooled",
    [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
    ],
    ids=["unset", "openblas2", "openblas1", "omp1", "openblas2-omp1", "openblas0-goto1"],
)
def test_cross_stats_forks_only_when_blas_runs_one_thread(env, pooled, fork_map_calls, monkeypatch):
    # OpenBLAS threads the screening GEMMs, so workers beside its threads
    # would oversubscribe the cores; inv_sums never forks
    for name in dendro_mod._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(dendro_mod, "_POOL_MIN_PAIRS", 0)
    p = PointSet(np.random.default_rng(72).random((600, 4)))
    d = single_linkage(p)
    _assert_bitwise(replace(d, _cross=None).cross_stats(p), _oracle(d, p))
    d.inv_sums(p)
    assert fork_map_calls == [(worker_limit() if pooled else 1, "block")]


def _two_hot(algo):
    # every row holds two ones among 30 columns: distances are sqrt(2) or 2
    from ultrafit import run_algorithm

    x = np.zeros((435, 30))
    rows, cols = np.triu_indices(30, 1)
    x[np.arange(435), rows] = x[np.arange(435), cols] = 1.0
    p = PointSet(x)
    return p, run_algorithm(algo, p).dendrogram


@pytest.mark.parametrize("tree", ["one-hot", "approx", "average"])
def test_pooled_cross_stats_match_serial_on_tied_blocks(tree, pool, monkeypatch):
    p, d = _one_hot() if tree == "one-hot" else _two_hot(tree)
    blocks = _spy_block_extremes(monkeypatch)
    serial = _serial_stats(d, p, monkeypatch)
    assert any(not b.reduced for b in blocks)  # the _TIED_SHARE fallback runs
    _assert_bitwise(replace(d, _cross=None).cross_stats(p), serial)


def _split_tie():
    """Two 40-leaf combs: left leaves at (i, 0), right ones at (j, 11) but
    for two at (12, 10) and (30, 10).  The root's cross pairs reach their
    minimum 10 exactly twice, on left rows 12 and 30 (DFS order)."""
    left = [(float(i), 0.0) for i in range(40)]
    right = [(float(j), 10.0 if j in (12, 30) else 11.0) for j in range(40)]
    p = PointSet(left + right)
    rows_l = [0] + list(range(80, 118))
    rows_r = [40] + list(range(119, 157))
    lefts = rows_l + rows_r + [118]
    rights = list(range(1, 40)) + list(range(41, 80)) + [157]
    return p, from_merge_rows(80, lefts, rights, np.arange(1.0, 80.0))


def _check_split_tie(screen, monkeypatch):
    """cross_stats of _split_tie's tree, whose root is reduced over many
    _blocks blocks with one tie at the minimum in each of two of them."""
    p, d = _split_tie()
    # 40 columns a row: one row per block
    monkeypatch.setattr(dendro_mod, "_CHUNK_ELEMS", 64)
    monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_ELEMS", screen)
    Y, spans = d._dfs_layout(p)
    root = len(spans) - 1
    assert spans[root].tolist() == [0, 40, 40, 80]
    blocks = list(dendro_mod._blocks(0, 40, 40, 80))
    holding = [[b for b, (ra, re, _, _) in enumerate(blocks) if ra <= row < re] for row in (12, 30)]
    assert holding[0] != holding[1]  # ties in two blocks
    got = replace(d, _cross=None).cross_stats(p)
    assert got.dmin[root] == 10.0 and got.pair[root].tolist() == [12, 52]
    _assert_bitwise(got, _oracle(d, p))
    _dense_check(p, d, got)
    return p, d, got


_SCREENS = pytest.mark.parametrize("screen", [1 << 12, 1], ids=["plain", "screened"])


@_SCREENS
def test_merge_in_parts_keeps_the_first_tied_pair(screen, monkeypatch):
    monkeypatch.setattr(dendro_mod, "_POOL_MIN_PAIRS", float("inf"))
    _check_split_tie(screen, monkeypatch)


@_SCREENS
def test_pooled_merge_in_parts_keeps_the_first_tied_pair(screen, pool, monkeypatch):
    p, d, got = _check_split_tie(screen, monkeypatch)
    _assert_bitwise(got, _serial_stats(d, p, monkeypatch))


# -- one cross_stats scan per topology and point set ---------------------------


def _scans(calls):
    return sum(label == "block" for _, label in calls)


@pytest.mark.parametrize("single_first", [False, True], ids=["exact-first", "single-first"])
def test_exact_single_and_kt_factor_share_one_scan(single_first, fork_map_calls):
    from ultrafit import distortion, exact_cut_weights, kt_factor

    p = PointSet(np.random.default_rng(80).random((400, 6)))
    tree = exact_mst(p)
    got = {}

    def exact():
        got["cw"] = exact_cut_weights(p, tree)

    def single():
        got["report"] = distortion(p, single_linkage(p), normalize_first=True)

    for step in (single, exact) if single_first else (exact, single):
        step()
    got["kt"] = kt_factor(p, tree)
    assert _scans(fork_map_calls) == 1
    want = build_dendrogram(tree, np.arange(p.n - 1)).cross_stats(p)
    _assert_bitwise(dendro_mod.tree_order(tree).cross_stats(p), want)
    assert got["cw"].tobytes() == want.dmax.tobytes()
    assert got["kt"] == max(1.0, float((tree.w / want.dmin).max()))
    # single linkage as the cartesian tree at heights w, scanned afresh
    fresh = build_dendrogram(tree, tree.w)
    assert format_merge_list(single_linkage(p)) == format_merge_list(fresh)
    report = distortion(p, fresh, normalize_first=True)
    assert (report.scale, report.max_ratio, report.argmax_pair) == (
        got["report"].scale, got["report"].max_ratio, got["report"].argmax_pair,
    )
    assert _scans(fork_map_calls) == 3  # the two fresh dendrograms


def test_scan_memo_is_per_point_set_and_topology(fork_map_calls):
    from ultrafit import exact_cut_weights, kt_factor

    p = PointSet(np.random.default_rng(81).random((300, 4)))
    tree = exact_mst(p)
    cw = exact_cut_weights(p, tree)
    kt = kt_factor(p, tree)
    assert _scans(fork_map_calls) == 1
    # exact's own dendrogram is another topology: it never reads the memo
    fit = farach_exact(p).dendrogram
    assert _scans(fork_map_calls) == 1 and fit._cross == []
    _assert_bitwise(fit.cross_stats(p), _oracle(fit, p))
    assert _scans(fork_map_calls) == 2
    # replace(..., _cross=None) forces a fresh scan and leaves the memo be
    single = single_linkage(p)
    _assert_bitwise(replace(single, _cross=None).cross_stats(p), single.cross_stats(p))
    assert _scans(fork_map_calls) == 3
    # an equal but distinct point set is scanned again, once
    q = PointSet(p.coords)
    assert exact_cut_weights(q, tree).tobytes() == cw.tobytes()
    assert kt_factor(q, tree) == kt
    assert _scans(fork_map_calls) == 4


def test_tree_order_is_built_once_per_tree():
    p = PointSet(np.random.default_rng(82).random((50, 3)))
    tree = exact_mst(p)
    d = dendro_mod.tree_order(tree)
    assert dendro_mod.tree_order(tree) is d
    assert format_merge_list(d) == format_merge_list(build_dendrogram(tree, np.arange(p.n - 1)))
    assert single_linkage(p).height is tree.w


@pytest.mark.parametrize("order", [("exact", "single"), ("single", "exact")], ids=["exact-first", "single-first"])
def test_compare_scans_exact_and_single_tree_once(order, tmp_path, fork_map_calls):
    from ultrafit.cli import main

    x = np.random.default_rng(83).random((200, 5))
    csv = tmp_path / "p.csv"
    csv.write_text("\n".join(",".join(map(repr, row)) for row in x.tolist()) + "\n")
    assert main(["compare", "--input", str(csv), "--algo", ",".join(order)]) == 0
    # the tree-order scan, shared by exact's cut weights and single, and
    # one of exact's normalized dendrogram
    assert _scans(fork_map_calls) == 2


# -- tile windows -------------------------------------------------------------


def _tile_roots(d, p):
    """(first row, size) of every tile, in DFS order."""
    a0, a1, b0, b1 = d._dfs_layout(p)[1].T
    small = b1 - a0 <= dendro_mod._tile_cap()
    kids = np.column_stack((d.left, d.right))[small] - d.n
    root = small.copy()
    root[kids[kids >= 0]] = False
    return sorted(zip(a0[root].tolist(), (b1 - a0)[root].tolist()))


@functools.cache
def _window_case(name):
    """Chain-shaped (single), balanced (ward) and approx trees at d = 1, 16, 77."""
    from ultrafit import run_algorithm

    algo, dim = name.split("-d")
    p = PointSet(np.random.default_rng(90 + int(dim)).random((500, int(dim))))
    return p, run_algorithm(algo, p).dendrogram


_CHOSEN = dendro_mod._WINDOW
_WINDOWS = pytest.mark.parametrize("window", [0, _CHOSEN, 127], ids=lambda w: f"window{w}")
_CASES = pytest.mark.parametrize("case", [f"{a}-d{dim}" for dim in (1, 16, 77) for a in ("single", "ward", "approx")])


@_WINDOWS
@_CASES
def test_tile_pass_matches_oracle_at_any_window(case, window, monkeypatch):
    p, d = _window_case(case)
    monkeypatch.setattr(dendro_mod, "_WINDOW", window)
    want = _oracle(d, p)
    tiles = _tile_roots(d, p)
    assert max(size for _, size in tiles) > _CHOSEN  # a tile larger than the window
    Y, spans = d._dfs_layout(p)
    children = np.column_stack((d.left, d.right)) - d.n
    children[children < 0] = -1
    small = spans[:, 3] - spans[:, 0] <= dendro_mod._tile_cap()
    windows = []

    def spy(a, b):
        windows.append(len(a))
        return cross_distances(a, b)

    monkeypatch.setattr(dendro_mod, "cross_distances", spy)
    merges, dmin, first, dmax = dendro_mod._tile_pass(Y, spans, children, small, np.empty(dendro_mod._CHUNK_ELEMS))
    monkeypatch.undo()
    assert np.sort(merges).tolist() == np.flatnonzero(small).tolist()  # each tile merge once
    order = d.leaf_spans()[0]
    _assert_bitwise((dmin, order[first], dmax), (want.dmin[merges], want.pair[merges], want.dmax[merges]))
    # only a tile on its own exceeds the window
    assert len(windows) <= len(tiles)
    sizes = {size for _, size in tiles}
    assert all(w <= window or w in sizes for w in windows)
    monkeypatch.setattr(dendro_mod, "_WINDOW", window)
    _assert_bitwise(replace(d, _cross=None).cross_stats(p), want)


@_WINDOWS
@_CASES
def test_pooled_tile_pass_matches_oracle_at_any_window(case, window, pool, monkeypatch):
    p, d = _window_case(case)
    monkeypatch.setattr(dendro_mod, "_WINDOW", window)
    _assert_bitwise(replace(d, _cross=None).cross_stats(p), _oracle(d, p))


def test_ultrametric_matrix_refuses_more_than_the_memory_available(monkeypatch):
    from ultrafit import core as core_mod

    p = PointSet(np.random.default_rng(84).random((50, 3)))
    d = single_linkage(p)
    monkeypatch.setattr(core_mod, "_available_bytes", lambda: 8 * 50 * 50 - 1)
    with pytest.raises(ValueError, match=r"ultrametric_matrix at n = 50 needs .* 20000 bytes, but only 19999 bytes"):
        d.ultrametric_matrix()
    monkeypatch.setattr(core_mod, "_available_bytes", lambda: None)
    want = d.ultrametric_matrix()
    monkeypatch.setattr(core_mod, "_available_bytes", lambda: 8 * 50 * 50)
    assert d.ultrametric_matrix().tobytes() == want.tobytes()
