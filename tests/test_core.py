import warnings

import numpy as np
import pytest

from ultrafit import PointSet, dedupe, distance
from ultrafit.core import canonical_edges, cross_distances, distance_matrix, paired_distances


def test_distance_axis_aligned():
    p = PointSet([[0, 0], [1, 0], [3, 0]])
    assert distance(p, 0, 1) == 1.0
    assert distance(p, 0, 2) == 3.0


def test_distance_three_four_five():
    p = PointSet([[0, 0], [3, 4]])
    assert distance(p, 0, 1) == 5.0


def test_distance_symmetric_zero_diix():
    p = PointSet(np.random.default_rng(0).random((10, 3)))
    for i in range(10):
        assert distance(p, i, i) == 0.0
    assert distance(p, 2, 7) == distance(p, 7, 2)


def test_distance_index_errors():
    p = PointSet([[0, 0], [1, 1]])
    with pytest.raises(IndexError):
        distance(p, 0, 2)
    with pytest.raises(IndexError):
        distance(p, -3, 1)


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointSet([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        PointSet([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        PointSet([1.0, 2.0])


@pytest.mark.parametrize(
    "coords",
    [
        [[0.0, 0.0], [1e154, 1e154]],  # each squared span is finite, their sum 2e308 is not
        np.random.default_rng(0).random((50, 4)) * 1e160,
        [[-1e308], [1e308]],  # the span itself overflows
    ],
    ids=["two-points", "uniform-1e160", "span"],
)
def test_pointset_rejects_an_overflowing_diameter(coords):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean ValueError, no overflow warning first
        with pytest.raises(ValueError, match="squared bounding-box diameter overflows"):
            PointSet(coords)


def test_pointset_accepts_a_finite_squared_diameter():
    assert PointSet([[0.0, 0.0], [9e153, 9e153]]).n == 2  # squared diameter 1.62e308


def test_pointset_immutable():
    p = PointSet([[1.0, 2.0]])
    with pytest.raises(ValueError):
        p.coords[0, 0] = 5.0


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(42)
    p = PointSet(rng.random((40, 6)))
    d = cross_distances(p.coords, p.coords)
    for _ in range(500):
        i, j, k = rng.integers(0, 40, 3)
        assert d[i, j] <= (d[i, k] + d[k, j]) * (1 + 1e-9)


def test_paired_matches_matrix_bitwise():
    rng = np.random.default_rng(3)
    x = rng.random((200, 16))
    u = rng.integers(0, 200, 500)
    v = rng.integers(0, 200, 500)
    full = cross_distances(x, x)
    pair = paired_distances(x[u], x[v])
    assert (pair == full[u, v]).all()


@pytest.mark.parametrize("d", [1, 3, 77])
@pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
def test_distance_matrix_matches_cdist_bitwise(n, d):
    rng = np.random.default_rng(n * 1000 + d)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, d)
    x[n // 2] = x[0]  # a duplicate: zeros off the diagonal
    got = distance_matrix(x)
    want = cross_distances(x, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dedupe_collapses_and_maps():
    p = PointSet([[0, 0], [0, 0], [1, 1]])
    q, groups = dedupe(p)
    assert q.n == 2
    assert q.coords.tolist() == [[0, 0], [1, 1]]
    assert groups == {0: [0, 1], 1: [2]}


def test_dedupe_identity_when_distinct():
    p = PointSet([[0, 0], [1, 1]])
    q, groups = dedupe(p)
    assert q.n == 2
    assert (q.coords == p.coords).all()
    assert groups == {0: [0], 1: [1]}


def test_dedupe_all_same():
    p = PointSet([[2, 2], [2, 2], [2, 2]])
    q, groups = dedupe(p)
    assert q.n == 1
    assert groups == {0: [0, 1, 2]}


def test_dedupe_preserves_first_occurrence_order():
    p = PointSet([[5, 0], [1, 0], [5, 0], [0, 0]])
    q, groups = dedupe(p)
    assert q.coords[:, 0].tolist() == [5, 1, 0]
    assert groups == {0: [0, 2], 1: [1], 2: [3]}


def test_canonical_edge_order():
    u = [3, 0, 2, 1]
    v = [1, 2, 0, 0]
    w = [1.0, 2.0, 1.0, 1.0]
    cu, cv, cw = canonical_edges(u, v, w)
    triples = list(zip(cu.tolist(), cv.tolist(), cw.tolist()))
    assert triples == [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (0, 2, 2.0)]


def _lexsort_canonical(u, v, w):
    """The three-key sort that canonical_edges replaces, kept as the oracle."""
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w, dtype=np.float64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo, w))
    return lo[order], hi[order], w[order]


def _edge_lists():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 40, 300)
        v = rng.integers(0, 40, 300)
        w = rng.integers(0, 5, 300) / 4.0  # few distinct weights: long tie runs
        if seed % 2:
            w = w + rng.random(300) * 1e-3 * (rng.random(300) < 0.5)  # ties mixed with unique weights
        # the same pairs again with swapped endpoints, and repeated pairs with new weights
        u, v, w = np.concatenate([u, v, u]), np.concatenate([v, u, v]), np.concatenate([w, w, w[::-1]])
        if seed == 3:
            w[rng.random(len(w)) < 0.1] = np.nan
        yield u, v, w
    rng = np.random.default_rng(11)
    yield rng.integers(0, 1000, 5000), rng.integers(0, 1000, 5000), rng.random(5000)  # no ties
    yield [], [], []


@pytest.mark.parametrize(
    "u, v, w", list(_edge_lists()), ids=["ties", "mixed", "ties2", "mixed-nan", "no-ties", "empty"]
)
def test_canonical_edges_matches_lexsort(u, v, w):
    got = canonical_edges(u, v, w)
    want = _lexsort_canonical(u, v, w)
    assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
    assert np.array_equal(got[2], want[2], equal_nan=True)
