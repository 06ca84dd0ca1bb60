import numpy as np
import pytest

from ultrafit import (
    PointSet,
    SpannerConfig,
    benchmark,
    distortion,
    farach_exact,
    from_merge_rows,
    normalize,
    run_algorithm,
    single_linkage,
)
from ultrafit import dendro as dendro_mod
from ultrafit.core import cross_distances

COLLINEAR = PointSet([[0.0], [1.0], [3.0]])
SIMPLEX = PointSet((np.eye(3) / np.sqrt(2)).tolist())


def test_distortion_farach_collinear():
    rep = distortion(COLLINEAR, farach_exact(COLLINEAR).dendrogram, algorithm="exact")
    assert rep.max_ratio == 1.5
    assert rep.min_ratio == 1.0
    assert rep.argmax_pair == (1, 2)
    assert rep.n == 3
    assert rep.algorithm == "exact"
    assert rep.scale is None


def test_distortion_isometric_input():
    rep = distortion(SIMPLEX, farach_exact(SIMPLEX).dendrogram)
    assert rep.max_ratio == 1.0 and rep.min_ratio == 1.0 and rep.mean_ratio == 1.0


def test_distortion_normalized_min_is_one():
    rng = np.random.default_rng(4)
    for seed in range(3):
        p = PointSet(rng.random((30, 3)))
        rep = distortion(p, single_linkage(p), normalize_first=True)
        assert rep.min_ratio >= 1.0
        assert rep.min_ratio == pytest.approx(1.0, rel=1e-9)
        assert rep.scale >= 1.0


def test_distortion_invariant_under_relabel():
    rng = np.random.default_rng(6)
    coords = rng.random((25, 4))
    p = PointSet(coords)
    rep = distortion(p, single_linkage(p))
    perm = rng.permutation(25)
    p2 = PointSet(coords[perm])
    rep2 = distortion(p2, single_linkage(p2))
    assert rep.max_ratio == pytest.approx(rep2.max_ratio, rel=1e-12)
    assert rep.min_ratio == pytest.approx(rep2.min_ratio, rel=1e-12)
    assert rep.mean_ratio == pytest.approx(rep2.mean_ratio, rel=1e-12)
    a = {int(perm[i]) for i in rep2.argmax_pair}
    assert a == set(rep.argmax_pair)


def test_distortion_rejects_zero_distance():
    p = PointSet([[0.0], [0.0], [1.0]])
    d = from_merge_rows(3, [0, 3], [1, 2], [1.0, 2.0])
    with pytest.raises(ValueError, match="dedupe"):
        distortion(p, d)


def test_distortion_needs_two_points():
    with pytest.raises(ValueError, match="2 points"):
        distortion(PointSet([[0.0]]), from_merge_rows(1, [], [], []))


def test_mean_between_min_and_max():
    rng = np.random.default_rng(11)
    p = PointSet(rng.random((40, 2)))
    rep = distortion(p, single_linkage(p), normalize_first=True)
    assert rep.min_ratio <= rep.mean_ratio <= rep.max_ratio


def test_benchmark_mean_of_repeats():
    rows = benchmark(COLLINEAR, ["exact"], repeats=3)
    assert len(rows) == 1
    assert rows[0]["repeats"] == 3
    assert rows[0]["mean_wall_ms"] > 0
    assert set(rows[0]["stage_ms"]) == {"mst", "cutweight", "cartesian"}


def test_benchmark_empty_list():
    assert benchmark(COLLINEAR, [], repeats=2) == []


def test_benchmark_rejects_zero_repeats():
    with pytest.raises(ValueError):
        benchmark(COLLINEAR, ["exact"], repeats=0)


def test_benchmark_row_fields_for_plotting():
    rows = benchmark(COLLINEAR, ["approx", "single"], repeats=1, config=SpannerConfig(seed=2))
    assert [r["algorithm"] for r in rows] == ["approx", "single"]
    for r in rows:
        assert r["n"] == 3 and r["d"] == 1
        assert r["mean_wall_ms"] >= 0


# -- the two per-block loops the cross-pair kernel replaced, kept as the oracle


def _blocks(dendro):
    order, lo, hi = dendro.leaf_spans()
    for i in range(len(dendro.height)):
        l, r = int(dendro.left[i]), int(dendro.right[i])
        yield float(dendro.height[i]), order[lo[l] : hi[l]], order[lo[r] : hi[r]]


def _loop_scale(dendro, points, block_elems=1 << 22):
    X = points.coords
    tops = []  # (height, farthest cross pair) per node
    for h, a_ids, b_ids in _blocks(dendro):
        rows = max(1, block_elems // max(1, len(b_ids)))
        top = 0.0
        for s in range(0, len(a_ids), rows):
            top = max(top, float(cross_distances(X[a_ids[s : s + rows]], X[b_ids]).max()))
        tops.append((h, top))
    scale = max(top / h for h, top in tops)
    while any(h * scale < top for h, top in tops):  # round up until dominating
        scale = float(np.nextafter(scale, np.inf))
    return scale


def _loop_distortion(dendro, points, block_elems=1 << 22):
    X = points.coords
    best, worst, total, count, arg = -np.inf, np.inf, 0.0, 0, (0, 0)
    for h, a_ids, b_ids in _blocks(dendro):
        rows = max(1, block_elems // max(1, len(b_ids)))
        for s in range(0, len(a_ids), rows):
            aa = a_ids[s : s + rows]
            block = cross_distances(X[aa], X[b_ids])
            if (block == 0).any():
                ai, bi = np.argwhere(block == 0)[0]
                raise ValueError(
                    f"zero distance between points {int(aa[ai])} and {int(b_ids[bi])}: dedupe first"
                )
            ratios = h / block
            flat = int(np.argmax(ratios))
            ai, bi = divmod(flat, ratios.shape[1])
            if ratios[ai, bi] > best:
                best = float(ratios[ai, bi])
                arg = (int(aa[ai]), int(b_ids[bi]))
            worst = min(worst, float(ratios.min()))
            total += float(ratios.sum())
            count += ratios.size
    return best, worst, total / count, (min(arg), max(arg))


def _fits():
    rng = np.random.default_rng(12)
    grid = np.stack(np.meshgrid(np.arange(9.0), np.arange(8.0)), -1).reshape(-1, 2)
    cfg = SpannerConfig(gamma=2.0, seed=3)
    for coords in (rng.random((90, 4)), grid, rng.standard_normal((60, 7)) * 1e3 + 1e6):
        p = PointSet(coords)
        for name in ("approx", "acc", "exact", "single", "average", "ward"):
            yield p, run_algorithm(name, p, cfg).dendrogram


def _screen_every_node(monkeypatch):
    monkeypatch.setattr(dendro_mod, "_SCREEN_MIN_ELEMS", 1)


def test_normalize_and_distortion_match_block_loops(monkeypatch):
    for screen_all in (False, True):
        if screen_all:
            _screen_every_node(monkeypatch)
        for p, d in _fits():
            for block_elems in (1 << 22, 7):
                assert normalize(d, p)[1] == _loop_scale(d, p, block_elems)
                scaled, _ = normalize(d, p)
                for dd in (d, scaled):
                    rep = distortion(p, dd)
                    best, worst, mean, arg = _loop_distortion(dd, p, block_elems)
                    assert rep.max_ratio == best
                    assert rep.min_ratio == worst
                    assert rep.argmax_pair == arg
                    assert rep.mean_ratio == pytest.approx(mean, rel=1e-12)


def test_zero_distance_error_names_the_loops_pair(monkeypatch):
    # refit on distinct points, then make two of them coincide: normalize does
    # not refuse duplicates, distortion names the first zero pair in merge order
    rng = np.random.default_rng(9)
    coords = rng.random((30, 2))
    d = single_linkage(PointSet(coords))
    coords[[4, 17, 25]] = coords[[11, 3, 17]]
    with pytest.raises(ValueError) as expect:
        _loop_distortion(d, PointSet(coords))
    for screen_all in (False, True):
        if screen_all:
            _screen_every_node(monkeypatch)
        p = PointSet(coords)  # a new object, so the scan is not reused
        assert normalize(d, p)[1] == _loop_scale(d, p)
        with pytest.raises(ValueError, match="dedupe first") as got:
            distortion(p, d)
        assert str(got.value) == str(expect.value)


def test_normalize_then_distortion_scans_once(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append(1)
        return cross_distances(a, b)

    monkeypatch.setattr(dendro_mod, "cross_distances", spy)
    rng = np.random.default_rng(13)
    coords = rng.random((50, 3))
    p = PointSet(coords)
    d = single_linkage(p)
    scaled, _ = normalize(d, p)
    one_scan = len(calls)
    assert one_scan == 1  # 50 points: one tile, so one cdist block
    rep = distortion(p, scaled)
    again = distortion(p, d, normalize_first=True)
    assert len(calls) == one_scan  # both reuse the first scan
    assert (rep.max_ratio, rep.argmax_pair) == (again.max_ratio, again.argmax_pair)
    distortion(PointSet(coords), scaled)  # equal coordinates, another object
    assert len(calls) == 2 * one_scan
