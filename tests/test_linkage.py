import numpy as np
import pytest

from ultrafit import (
    METHODS,
    PointSet,
    SpanningTree,
    agglomerate,
    build_dendrogram,
    format_merge_list,
    from_merge_rows,
    single_linkage,
)
from ultrafit import core as core_mod
from ultrafit import linkage as linkage_mod
from ultrafit.core import cross_distances
from ultrafit.linkage import _lw_update

COLLINEAR = PointSet([[0.0], [1.0], [3.0]])
SIMPLEX = PointSet((np.eye(3) / np.sqrt(2)).tolist())


def test_methods_enumeration():
    assert METHODS == ("single", "complete", "average", "ward")
    with pytest.raises(ValueError, match="unknown linkage"):
        agglomerate(COLLINEAR, "centroid")


def test_single_linkage_collinear():
    d = single_linkage(COLLINEAR)
    assert d.height.tolist() == [1.0, 2.0]
    assert d.ultra_distance(0, 2) == 2.0


def test_single_linkage_two_points():
    p = PointSet([[0.0], [4.0]])
    assert single_linkage(p).height.tolist() == [4.0]


def test_single_linkage_equilateral_isometric():
    d = single_linkage(SIMPLEX)
    w = cross_distances(SIMPLEX.coords, SIMPLEX.coords)[0, 1]
    assert (d.height == w).all()
    for u in range(3):
        for v in range(u + 1, 3):
            assert d.ultra_distance(u, v) == w


def test_average_collinear_hand_values():
    d = agglomerate(COLLINEAR, "average")
    assert d.height.tolist() == [1.0, 2.5]


def test_complete_collinear_hand_values():
    d = agglomerate(COLLINEAR, "complete")
    assert d.height.tolist() == [1.0, 3.0]


@pytest.mark.parametrize("method", METHODS)
def test_two_points_single_merge(method):
    p = PointSet([[0.0, 0.0], [3.0, 4.0]])
    d = agglomerate(p, method)
    assert d.height.tolist() == [5.0]


def test_ward_singleton_merges_report_distance():
    p = PointSet([[0.0], [1.0], [10.0], [12.0]])
    d = agglomerate(p, "ward")
    assert d.height[0] == 1.0  # first merge joins two singletons
    assert d.height[1] == 2.0


@pytest.mark.parametrize("scale", [1e153, 4e153])
def test_ward_refuses_inputs_its_update_overflows(scale):
    p = PointSet(np.random.default_rng(0).random((50, 4)) * scale)
    with pytest.raises(ValueError, match="ward linkage would overflow"):
        agglomerate(p, "ward")
    agglomerate(p, "average")  # the other rules take no size-weighted squares


def test_ward_near_its_bound_scales_exactly():
    # a power-of-two scale is exact in every float operation, so heights scale
    # bit for bit; 2**500 (about 3e150) leaves ward within its bound
    x = np.random.default_rng(0).random((50, 4))
    base = agglomerate(PointSet(x), "ward")
    far = agglomerate(PointSet(x * 2.0**500), "ward")
    assert (far.left == base.left).all() and (far.right == base.right).all()
    assert (far.height == base.height * 2.0**500).all()


def test_ward_matches_known_chain():
    # 4 points on a line; ward recurrence computed by hand
    p = PointSet([[0.0], [1.0], [5.0], [6.0]])
    d = agglomerate(p, "ward")
    # merges (0,1)@1, (2,3)@1, then sqrt(((2+2)*5^2*2 - 2*...)/...):
    # d({0,1},{2,3})^2 = ((2+2)*d(01,2x)^2 ... via the squared recurrence
    # direct evaluation: variance formulation gives sqrt(2*|A||B|/(|A|+|B|)) * |c_A - c_B|
    ca, cb = 0.5, 5.5
    expect = np.sqrt(2 * 2 * 2 / 4) * abs(ca - cb)
    assert d.height.tolist() == pytest.approx([1.0, 1.0, expect])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dominance_single_average_complete(seed):
    p = PointSet(np.random.default_rng(seed).random((35, 4)))
    hs = agglomerate(p, "single").height
    ha = agglomerate(p, "average").height
    hc = agglomerate(p, "complete").height
    assert (hs <= ha * (1 + 1e-12)).all()
    assert (ha <= hc * (1 + 1e-12)).all()


@pytest.mark.parametrize("seed,n,d", [(0, 20, 2), (1, 45, 5), (2, 64, 3)])
def test_agglomerate_single_equals_single_linkage(seed, n, d):
    p = PointSet(np.random.default_rng(seed).random((n, d)))
    a = agglomerate(p, "single").ultrametric_matrix()
    b = single_linkage(p).ultrametric_matrix()
    assert (a == b).all()


@pytest.mark.parametrize("method", METHODS)
def test_all_methods_valid_dendrograms(method):
    rng = np.random.default_rng(9)
    p = PointSet(rng.random((50, 3)))
    d = agglomerate(p, method)
    assert len(d.height) == 49
    assert (np.diff(d.height) >= 0).all()
    hs = np.concatenate([np.zeros(50), d.height])
    for i in range(49):
        assert d.height[i] >= hs[d.left[i]] and d.height[i] >= hs[d.right[i]]
    m = d.ultrametric_matrix()
    for z in range(50):
        assert (m <= np.maximum.outer(m[z], m[z]) * (1 + 1e-12)).all()


def test_single_point_all_methods():
    p = PointSet([[1.0, 1.0]])
    for method in METHODS:
        d = agglomerate(p, method)
        assert d.n == 1 and len(d.height) == 0
    assert single_linkage(p).n == 1


def _masked_merges(points, method):
    """The nearest-neighbor chain as agglomerate ran it over a full cdist
    matrix, masking retired rows and the diagonal out of each row it
    reads, kept as the oracle: the merges (height, slot_a, slot_b)."""
    n = points.n
    D = cross_distances(points.coords, points.coords)
    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    merges = []
    chain = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            c = chain[-1]
            row = np.where(active, D[c], np.inf)
            row[c] = np.inf
            nn = int(np.argmin(row))
            if len(chain) >= 2 and nn == chain[-2]:
                break
            chain.append(nn)
        b = chain.pop()
        a = chain.pop()
        if b < a:
            a, b = b, a
        h = float(D[a, b])
        merges.append((h, a, b))
        new = _lw_update(method, D[a], D[b], h, sizes[a], sizes[b], sizes)
        D[a, :] = new
        D[:, a] = new
        D[a, a] = np.inf
        active[b] = False
        sizes[a] += sizes[b]
        D[b, :] = np.inf
        D[:, b] = np.inf
    return merges


def _masked_agglomerate(points, method):
    """agglomerate before its tiled matrix and unmasked row reads."""
    h, a, b = (np.array(col) for col in zip(*_masked_merges(points, method)))
    return build_dendrogram(SpanningTree(points.n, a, b, h), h)


def _slot_relabel_agglomerate(points, method):
    """agglomerate as it ran before it handed its merges to build_dendrogram,
    kept as the oracle: the same nearest-neighbor chain, then a stable sort
    of the merges by height and a find loop from slot ids to node ids."""
    n = points.n
    merges = _masked_merges(points, method)
    order = sorted(range(n - 1), key=lambda i: merges[i][0])
    parent = list(range(n))
    node_of = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    left, right, height = [], [], []
    for row, mi in enumerate(order):
        h, a, b = merges[mi]
        ra, rb = find(a), find(b)
        left.append(node_of[ra])
        right.append(node_of[rb])
        height.append(h)
        parent[rb] = ra
        node_of[ra] = n + row
    return from_merge_rows(n, left, right, height)


@pytest.mark.parametrize("method", ["complete", "average", "ward"])
def test_agglomerate_matches_slot_relabel(method):
    rng = np.random.default_rng(23)
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), -1).reshape(-1, 2)
    inputs = [rng.random((2, 3)), rng.random((5, 2)), rng.random((40, 3)), rng.random((300, 8)), grid,
              rng.random((200, 77))]
    for coords in inputs:
        p = PointSet(coords)
        want = format_merge_list(_slot_relabel_agglomerate(p, method))
        assert format_merge_list(agglomerate(p, method)) == want, p.n


def _unmasked_inputs():
    rng = np.random.default_rng(31)
    lattice = np.stack(np.meshgrid(np.arange(15.0), np.arange(15.0)), -1).reshape(-1, 2)
    line = np.outer(rng.permutation(160).astype(float), [1.0, 2.0, -0.5])  # collinear, equal gaps
    yield "random", rng.random((300, 8))
    yield "random-highd", rng.random((150, 77))
    yield "lattice", lattice  # ties everywhere, 225 points: tiles of 128 and 97
    yield "collinear", line
    yield "collinear-random", np.outer(rng.random(140), rng.standard_normal(4))


@pytest.mark.parametrize("method", ["complete", "average", "ward"])
def test_agglomerate_matches_masked_full_matrix(method):
    for name, coords in _unmasked_inputs():
        p = PointSet(coords)
        got, want = agglomerate(p, method), _masked_agglomerate(p, method)
        for x, y in ((got.left, want.left), (got.right, want.right), (got.height, want.height)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_agglomerate_refuses_a_matrix_larger_than_the_memory_available(monkeypatch):
    p = PointSet(np.random.default_rng(4).random((50, 3)))
    monkeypatch.setattr(core_mod, "_available_bytes", lambda: 8 * 50 * 50 - 1)
    monkeypatch.setattr(linkage_mod, "distance_matrix", lambda x: pytest.fail("allocated the matrix"))
    for method in ("complete", "average", "ward"):
        with pytest.raises(ValueError, match=r"n = 50 needs .* 20000 bytes, but only 19999 bytes"):
            agglomerate(p, method)


def test_agglomerate_without_a_memory_reading_skips_the_check(monkeypatch):
    p = PointSet(np.random.default_rng(4).random((50, 3)))
    want = format_merge_list(agglomerate(p, "average"))
    monkeypatch.setattr(core_mod, "_available_bytes", lambda: None)
    assert format_merge_list(agglomerate(p, "average")) == want
    monkeypatch.setattr(core_mod, "_available_bytes", lambda: 8 * 50 * 50)
    assert format_merge_list(agglomerate(p, "average")) == want


def test_available_bytes_reads_meminfo(tmp_path, monkeypatch):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:       8000000 kB\nMemFree:  100 kB\nMemAvailable:    123456 kB\n")
    monkeypatch.setattr(core_mod, "_MEMINFO", str(meminfo))
    assert core_mod._available_bytes() == 123456 * 1024
    meminfo.write_text("MemTotal:       8000000 kB\n")
    assert core_mod._available_bytes() is None
    monkeypatch.setattr(core_mod, "_MEMINFO", str(tmp_path / "absent"))
    assert core_mod._available_bytes() is None
