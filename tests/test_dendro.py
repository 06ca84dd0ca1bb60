import tracemalloc
from collections import namedtuple
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
from ultrafit.core import cross_distances

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
    # coordinates near 1e150: squared norms near 1e301 are still screened
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

    def spy(V, rowpos, colpos, seg, merges, flip, out, screen=None, row_segments=False):
        reduced = block_extremes(V, rowpos, colpos, seg, merges, flip, out, screen, row_segments)
        calls.append(_Block(V.shape, merges.tolist(), screen is not None, bool(flip.any()), reduced))
        return reduced

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
        _offset, _huge, _tiny, _far_tight, _high_d, _big_grid, _grid_chain,
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


# -- the batched kernel against the per-merge oracle -------------------------


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


def _spy_blocks(monkeypatch):
    """Sizes of every cdist block (cross_distances and paired_distances) and
    every GEMM output."""
    from ultrafit import core as core_mod

    sizes = []
    cdist, matmul = core_mod.cdist, np.matmul

    def cdist_spy(a, b, *args, **kw):
        out = cdist(a, b, *args, **kw)
        sizes.append(out.size)
        return out

    def matmul_spy(a, b, *args, **kw):
        out = matmul(a, b, *args, **kw)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(core_mod, "cdist", cdist_spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    return sizes


@pytest.mark.parametrize("chunk", [1 << 18, 1 << 12, 5], ids=["default-chunk", "chunk4096", "chunk5"])
@pytest.mark.parametrize(
    "make",
    [
        _chain_left, _chain_right, _chain_mixed, _runs_mixed, _collinear_left, _collinear_right, _one_hot,
        _grid_chain, _big_grid, _caterpillar, _random, _duplicates, _offset, _far_tight, _high_d,
    ],
    ids=lambda f: f.__name__[1:],
)
def test_batched_cross_stats_match_oracle(make, chunk, monkeypatch):
    p, d = make()
    monkeypatch.setattr(dendro_mod, "_CHUNK_ELEMS", chunk)
    want = _oracle(d, p)
    sizes = _spy_blocks(monkeypatch)
    got = replace(d, _cross=None).cross_stats(p)
    assert 0 < max(sizes) <= chunk  # no cdist or GEMM block beyond the cap
    _assert_bitwise(got, want)
    _dense_check(p, d, got)


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
    # copy), the candidates' columns of one merge (at most another) and two
    # blocks.  Candidate arrays that fill the block (n = 300) or run blocks
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


@pytest.mark.slow
def test_batched_cross_stats_match_oracle_at_benchmark_shapes(monkeypatch):
    from ultrafit import run_algorithm

    blobs = PointSet(_blobs(3000, 16, 61))
    highd = dedupe(PointSet(np.random.default_rng(62).random((600, 77))))[0]
    cases = [(blobs, a) for a in ("approx", "acc", "single")]
    cases += [(highd, a) for a in ("approx", "acc", "exact", "single", "average", "ward")]
    alone = []  # spans of the merges reduced on their own
    merge_extremes = dendro_mod._merge_extremes

    def spy(Y, F, a0, a1, b0, b1, buf):
        alone.append((a0, a1, b0, b1))
        return merge_extremes(Y, F, a0, a1, b0, b1, buf)

    monkeypatch.setattr(dendro_mod, "_merge_extremes", spy)
    blocks = _spy_block_extremes(monkeypatch)
    cap = dendro_mod._CHUNK_ELEMS
    for p, algo in cases:
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
