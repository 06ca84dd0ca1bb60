import numpy as np
import pytest

from ultrafit import (
    PointSet,
    SpannerConfig,
    SpanningTree,
    approximate_cut_weights,
    build_spanner,
    exact_cut_weights,
    exact_mst,
    kruskal,
    kt_factor,
)
from ultrafit import dendro as dendro_mod
from ultrafit.core import cross_distances

COLLINEAR = PointSet([[0.0], [1.0], [3.0]])
SIMPLEX = PointSet((np.eye(3) / np.sqrt(2)).tolist())


def test_exact_collinear():
    tree = exact_mst(COLLINEAR)
    assert exact_cut_weights(COLLINEAR, tree).tolist() == [1.0, 3.0]


def test_exact_two_points():
    p = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert exact_cut_weights(p, exact_mst(p)).tolist() == [5.0]


def test_exact_equilateral():
    tree = exact_mst(SIMPLEX)
    w = tree.w[0]
    assert exact_cut_weights(SIMPLEX, tree).tolist() == [w, w]


def test_approx_collinear_hand_values():
    tree = exact_mst(COLLINEAR)
    assert approximate_cut_weights(COLLINEAR, tree).tolist() == [5.0, 15.0]


def test_approx_two_points_is_five_w():
    p = PointSet([[0.0], [0.7]])
    tree = exact_mst(p)
    acw = approximate_cut_weights(p, tree)
    assert acw.tolist() == [5.0 * tree.w[0]]


def test_approx_equilateral_ratio_exactly_five():
    tree = exact_mst(SIMPLEX)
    cw = exact_cut_weights(SIMPLEX, tree)
    acw = approximate_cut_weights(SIMPLEX, tree)
    assert (acw / cw == 5.0).all()


@pytest.mark.parametrize("n,d,seed", [(50, 2, 0), (120, 8, 1), (200, 32, 2), (80, 2, 3)])
def test_sandwich_bound_random(n, d, seed):
    p = PointSet(np.random.default_rng(seed).random((n, d)))
    tree = exact_mst(p)
    cw = exact_cut_weights(p, tree)
    acw = approximate_cut_weights(p, tree)
    assert (cw <= acw * (1 + 1e-9)).all()
    assert (acw <= 5 * cw * (1 + 1e-9)).all()


def test_cut_weight_dominates_edge_weight():
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = PointSet(rng.random((40, 3)))
        tree = exact_mst(p)
        cw = exact_cut_weights(p, tree)
        acw = approximate_cut_weights(p, tree)
        assert (cw >= tree.w).all()
        assert (acw >= tree.w).all()


def test_exact_permutation_invariant():
    rng = np.random.default_rng(17)
    coords = rng.random((30, 4))
    p = PointSet(coords)
    tree = exact_mst(p)
    cw = exact_cut_weights(p, tree)
    perm = rng.permutation(30)
    p2 = PointSet(coords[perm])
    tree2 = exact_mst(p2)
    cw2 = exact_cut_weights(p2, tree2)
    # same multiset of heights, and matching values edge-for-edge after relabel
    assert sorted(cw.tolist()) == pytest.approx(sorted(cw2.tolist()), rel=1e-12)
    relabeled = {
        (min(perm[a], perm[b]), max(perm[a], perm[b])): w
        for a, b, w in zip(tree2.u, tree2.v, cw2)
    }
    original = {(int(a), int(b)): w for a, b, w in zip(tree.u, tree.v, cw)}
    assert set(relabeled) == set(original)
    for k in original:
        assert original[k] == pytest.approx(relabeled[k], rel=1e-12)


class ClusterState:
    """Union-find over points augmented with a representative point r_C and
    the exact radius m_C = max distance from r_C to any cluster member: the
    per-merge form of approximate_cut_weights, kept as its oracle.

    A cluster's representative is the first entry of its member list."""

    def __init__(self, points: PointSet):
        n = points.n
        self.points = points
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.rep = np.arange(n, dtype=np.int64)
        self.radius = np.zeros(n, dtype=np.float64)
        self.members: list[list[int] | None] = [[i] for i in range(n)]

    def find(self, x: int) -> int:
        p = self.parent
        x = int(x)
        while p[x] != x:
            p[x] = p[p[x]]
            x = int(p[x])
        return x

    def merge(self, x: int, y: int) -> tuple[float, float, float]:
        """Merge the clusters of x and y.

        The larger cluster C (ties to the smaller root index) keeps its
        representative; the smaller cluster D is scanned against r_C to
        update the radius.  Returns (d(r_C, r_D), m_C, m_D) as observed
        just before the merge.
        """
        ra, rb = self.find(x), self.find(y)
        if ra == rb:
            raise ValueError("merge of already-joined clusters")
        if self.size[rb] > self.size[ra] or (self.size[rb] == self.size[ra] and rb < ra):
            ra, rb = rb, ra  # ra is C
        X = self.points.coords
        rc = int(self.rep[ra])
        m_c = float(self.radius[ra])
        m_d = float(self.radius[rb])
        small = self.members[rb]
        scan = cross_distances(X[small], X[rc : rc + 1])[:, 0]
        d_rr = float(scan[0])  # r_D heads D's members
        self.radius[ra] = max(m_c, float(scan.max()))
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.members[ra].extend(small)
        self.members[rb] = None
        return d_rr, m_c, m_d


def test_cluster_state_radius_attained():
    rng = np.random.default_rng(21)
    p = PointSet(rng.random((60, 3)))
    tree = exact_mst(p)
    state = ClusterState(p)
    for ei in range(p.n - 1):
        state.merge(int(tree.u[ei]), int(tree.v[ei]))
        root = state.find(int(tree.u[ei]))
        members = state.members[root]
        rep = int(state.rep[root])
        dists = cross_distances(p.coords[members], p.coords[rep : rep + 1])[:, 0]
        assert state.radius[root] == dists.max()
        assert (dists <= state.radius[root]).all()


def test_cluster_state_singletons():
    p = PointSet([[0.0], [2.0]])
    state = ClusterState(p)
    assert state.radius.tolist() == [0.0, 0.0]
    assert state.rep.tolist() == [0, 1]
    d_rr, m_c, m_d = state.merge(0, 1)
    assert (d_rr, m_c, m_d) == (2.0, 0.0, 0.0)


def test_merge_rejects_joined_clusters():
    p = PointSet([[0.0], [1.0], [2.0]])
    state = ClusterState(p)
    state.merge(0, 1)
    with pytest.raises(ValueError):
        state.merge(1, 0)


def _two_cdist_cut_weights(points, tree):
    """The merge formula with its own kernel call for d(r_C, r_D), as every
    merge computed it before the scans were batched; kept as the oracle.
    Returns the estimates and the (d_rr, m_C, m_D) triple of every merge."""
    X = points.coords
    n = points.n
    parent = list(range(n))
    size = [1] * n
    rep = list(range(n))
    radius = [0.0] * n
    members = [[i] for i in range(n)]

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    out, triples = [], []
    for a, b in zip(tree.u.tolist(), tree.v.tolist()):
        ra, rb = find(a), find(b)
        if size[rb] > size[ra] or (size[rb] == size[ra] and rb < ra):
            ra, rb = rb, ra
        rc, rd = rep[ra], rep[rb]
        d_rr = float(cross_distances(X[rc : rc + 1], X[rd : rd + 1])[0, 0])
        m_c, m_d = radius[ra], radius[rb]
        scan = cross_distances(X[members[rb]], X[rc : rc + 1])[:, 0]
        radius[ra] = max(m_c, float(scan.max()))
        parent[rb] = ra
        size[ra] += size[rb]
        members[ra] += members[rb]
        out.append(5.0 * max(d_rr, m_c - d_rr, m_d - d_rr))
        triples.append((d_rr, m_c, m_d))
    return np.array(out), triples


def _trees():
    rng = np.random.default_rng(17)
    xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
    grid = PointSet(np.column_stack([xs.ravel(), ys.ravel()]))
    yield grid, exact_mst(grid)  # ties everywhere
    for n, d in ((2, 3), (40, 2), (300, 8), (500, 16)):
        p = PointSet(rng.random((n, d)))
        yield p, exact_mst(p)
    p = PointSet(rng.random((400, 4)) * 1e3 + 1e6)
    g = build_spanner(p, SpannerConfig(gamma=2.0, seed=4))
    yield p, kruskal(p.n, (g.u, g.v, g.w))  # an approximate tree, as approx uses


def test_approx_cut_weights_bitwise_match_two_cdist_formula():
    for p, tree in _trees():
        want, triples = _two_cdist_cut_weights(p, tree)
        got = approximate_cut_weights(p, tree)
        assert got.tobytes() == want.tobytes(), f"n={p.n}"
        state = ClusterState(p)
        for ei, expected in enumerate(triples):
            assert state.merge(int(tree.u[ei]), int(tree.v[ei])) == expected, f"n={p.n} edge {ei}"


def _union_find_cut_weights(points, tree):
    """The per-merge union-find scan exact_cut_weights used before the
    cross-pair kernel: max over cdist(smaller cluster, larger cluster)."""
    X = points.coords
    out = np.empty(points.n - 1)
    members = [[i] for i in range(points.n)]
    parent = np.arange(points.n, dtype=np.int64)
    size = np.ones(points.n, dtype=np.int64)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = int(parent[x])
        return x

    for ei in range(points.n - 1):
        a = find(int(tree.u[ei]))
        b = find(int(tree.v[ei]))
        if size[b] > size[a]:
            a, b = b, a
        out[ei] = cross_distances(X[members[b]], X[members[a]]).max()
        parent[b] = a
        size[a] += size[b]
        members[a].extend(members[b])
        members[b] = None
    return out


def test_exact_cut_weights_bitwise_match_union_find_loop(monkeypatch):
    rng = np.random.default_rng(31)
    grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(10.0)), -1).reshape(-1, 2)
    inputs = [rng.random((300, 20)), grid, rng.standard_normal((200, 3)) * 1e3 + 1e6]
    for screen_all in (False, True):
        if screen_all:  # screen every merge, however small
            monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_SIDE", 1)
            monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_ELEMS", 1)
        for coords in inputs:
            p = PointSet(coords)
            spanner = build_spanner(p, SpannerConfig(gamma=2.0, seed=5))
            for tree in (exact_mst(p), kruskal(p.n, (spanner.u, spanner.v, spanner.w))):
                expect = _union_find_cut_weights(p, tree)
                assert exact_cut_weights(p, tree).tobytes() == expect.tobytes()


def _block_loop_kt_factor(points, tree):
    """The all-pairs loop kt_factor ran before it read the cross-pair
    kernel, kept as the oracle: per merge, the edge weight over every cross
    pair's distance, with the merging edge's own pair masked out."""
    n = points.n
    if n < 3:
        return 1.0
    X = points.coords
    members = [[i] for i in range(n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    worst = 1.0
    for eu, ev, wmax in zip(tree.u.tolist(), tree.v.tolist(), tree.w.tolist()):
        a, b = find(eu), find(ev)
        ma, mb = members[a], members[b]
        if len(ma) * len(mb) > 1:
            ratios = wmax / cross_distances(X[ma], X[mb])
            ratios[ma.index(eu), mb.index(ev)] = 0.0  # the only tree pair crossing this cut
            worst = max(worst, float(ratios.max()))
        parent[b] = a
        members[a] = ma + mb
    return worst


def test_kt_factor_bitwise_matches_block_loop(monkeypatch):
    rng = np.random.default_rng(43)
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), -1).reshape(-1, 2)
    inputs = [
        rng.random((2, 3)),
        rng.random((3, 2)),
        [[0.0], [1.0], [3.0], [7.0], [8.0]],  # collinear
        grid,  # ties everywhere
        rng.random((300, 8)),
        rng.standard_normal((200, 3)) * 1e3 + 1e6,
    ]
    # a tree of factor 3: the path 0-2-1 over collinear points 0, 1, 3
    hand = SpanningTree(n=3, u=np.array([1, 0]), v=np.array([2, 2]), w=np.array([2.0, 3.0]))
    cases = [(COLLINEAR, hand)]
    for coords in inputs:
        p = PointSet(coords)
        cases.append((p, exact_mst(p)))
        for seed in (1, 2):  # one hash per scale: sparse spanners, trees far from minimal
            g = build_spanner(p, SpannerConfig(gamma=3.0, seed=seed, reps=1, projections=1))
            cases.append((p, kruskal(p.n, (g.u, g.v, g.w))))
    assert max(_block_loop_kt_factor(p, tree) for p, tree in cases) > 10
    for screen_all in (False, True):
        if screen_all:  # screen every merge, however small
            monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_SIDE", 1)
            monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_ELEMS", 1)
        for p, tree in cases:
            assert kt_factor(p, tree) == _block_loop_kt_factor(p, tree), p.n
