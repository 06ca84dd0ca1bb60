import numpy as np
import pytest

from ultrafit import (
    METHODS,
    PointSet,
    SpannerConfig,
    agglomerate,
    approx_acc_ult,
    approx_ult,
    brute_force_opt_alpha,
    build_dendrogram,
    distortion,
    farach_exact,
    kruskal,
    kt_factor,
    normalize,
    run_algorithm,
)
from ultrafit.core import cross_distances
from ultrafit.cutweight import approximate_cut_weights
from ultrafit.pipeline import _topologies

COLLINEAR = PointSet([[0.0], [1.0], [3.0]])
SIMPLEX = PointSet((np.eye(3) / np.sqrt(2)).tolist())


def test_topology_counts_match_double_factorial():
    assert len(_topologies(2)) == 1
    assert len(_topologies(3)) == 3
    assert len(_topologies(4)) == 15
    assert len(_topologies(5)) == 105


def test_oracle_collinear():
    assert brute_force_opt_alpha(COLLINEAR) == pytest.approx(1.5)


def test_oracle_equilateral():
    assert brute_force_opt_alpha(SIMPLEX) == pytest.approx(1.0)


def test_oracle_two_points():
    assert brute_force_opt_alpha(PointSet([[0.0], [9.0]])) == 1.0


def test_oracle_rejects_large_n():
    with pytest.raises(ValueError, match="n <= 7"):
        brute_force_opt_alpha(PointSet(np.random.default_rng(0).random((8, 2))))


def test_farach_collinear_values():
    res = farach_exact(COLLINEAR)
    d = res.dendrogram
    assert d.ultra_distance(0, 1) == 1.0
    assert d.ultra_distance(0, 2) == 3.0
    assert d.ultra_distance(1, 2) == 3.0
    rep = distortion(COLLINEAR, d)
    assert rep.max_ratio == 1.5
    assert rep.min_ratio == 1.0


def test_farach_equilateral_isometric():
    rep = distortion(SIMPLEX, farach_exact(SIMPLEX).dendrogram)
    assert rep.max_ratio == 1.0
    assert rep.min_ratio == 1.0


def test_farach_matches_oracle_on_random_instances():
    rng = np.random.default_rng(100)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        d = int(rng.choice([1, 2, 8]))
        p = PointSet(rng.random((n, d)))
        got = distortion(p, farach_exact(p).dendrogram).max_ratio
        want = brute_force_opt_alpha(p)
        assert got == pytest.approx(want, rel=1e-9)


def test_approx_with_complete_graph_spanner_matches_hand_values():
    # Kruskal over the complete graph reproduces the exact MST, so the
    # 5-estimates land on the hand-computed heights, and the certified
    # bound 5 * gamma_emp * alpha_opt * w is tight for pair (1, 2)
    iu, iv = np.triu_indices(3, 1)
    w = cross_distances(COLLINEAR.coords, COLLINEAR.coords)[iu, iv]
    tree = kruskal(3, (iu, iv, w))
    heights = approximate_cut_weights(COLLINEAR, tree)
    d = build_dendrogram(tree, heights)
    assert d.ultra_distance(0, 1) == 5.0
    assert d.ultra_distance(1, 2) == 15.0
    gamma_emp = kt_factor(COLLINEAR, tree)
    alpha = distortion(COLLINEAR, farach_exact(COLLINEAR).dendrogram).max_ratio
    assert gamma_emp == 1.0
    assert d.ultra_distance(1, 2) == 5 * gamma_emp * alpha * 2.0


def test_approx_single_point():
    res = approx_ult(PointSet([[0.0, 0.0]]), SpannerConfig(seed=1))
    assert res.dendrogram.n == 1


def test_approx_two_points_tight_bound():
    p = PointSet([[0.0], [0.75]])
    res = approx_ult(p, SpannerConfig(gamma=2.0, seed=5))
    assert res.dendrogram.ultra_distance(0, 1) == 5 * 0.75
    assert kt_factor(p, res.tree) == 1.0
    assert brute_force_opt_alpha(p) == 1.0


def test_acc_collinear_same_as_hand_values():
    res = approx_acc_ult(COLLINEAR)
    assert res.dendrogram.ultra_distance(0, 1) == 5.0
    assert res.dendrogram.ultra_distance(1, 2) == 15.0


def test_acc_equilateral_bound_tight():
    res = approx_acc_ult(SIMPLEX)
    w = cross_distances(SIMPLEX.coords, SIMPLEX.coords)[0, 1]
    for u in range(3):
        for v in range(u + 1, 3):
            assert res.dendrogram.ultra_distance(u, v) == 5 * w
    rep = distortion(SIMPLEX, res.dendrogram)
    assert rep.max_ratio == 5.0  # equals 5 * alpha_opt exactly here


def test_pipelines_dominate_metric_exactly():
    rng = np.random.default_rng(55)
    for seed in range(3):
        p = PointSet(rng.random((60, 5)))
        for res in (
            approx_ult(p, SpannerConfig(gamma=2.0, seed=seed)),
            approx_acc_ult(p),
            farach_exact(p),
        ):
            rep = distortion(p, res.dendrogram)
            assert rep.min_ratio >= 1.0  # exact: no tolerance


def test_exact_below_others_everywhere():
    rng = np.random.default_rng(77)
    p = PointSet(rng.random((40, 4)))
    best = distortion(p, farach_exact(p).dendrogram).max_ratio
    acc = distortion(p, approx_acc_ult(p).dendrogram).max_ratio
    apx = distortion(p, approx_ult(p, SpannerConfig(gamma=2.0, seed=7)).dendrogram).max_ratio
    assert best <= acc * (1 + 1e-12)
    assert best <= apx * (1 + 1e-12)
    assert acc <= 5 * best * (1 + 1e-9)
    for method in METHODS:
        dn, _ = normalize(agglomerate(p, method), p)
        assert best <= distortion(p, dn).max_ratio * (1 + 1e-12)


def test_certified_bound_random_instances():
    rng = np.random.default_rng(12)
    for seed in range(5):
        p = PointSet(rng.random((50, 3)))
        res = approx_ult(p, SpannerConfig(gamma=2.0, seed=seed))
        gamma_emp = kt_factor(p, res.tree)
        alpha = distortion(p, farach_exact(p).dendrogram).max_ratio
        m = res.dendrogram.ultrametric_matrix()
        w = cross_distances(p.coords, p.coords)
        iu, iv = np.triu_indices(p.n, 1)
        assert (m[iu, iv] >= w[iu, iv]).all()
        assert (m[iu, iv] <= 5 * gamma_emp * alpha * w[iu, iv] * (1 + 1e-9)).all()


def test_determinism_across_runs():
    rng = np.random.default_rng(1)
    p = PointSet(rng.random((80, 6)))
    cfg = SpannerConfig(gamma=2.5, seed=3)
    a = approx_ult(p, cfg)
    b = approx_ult(p, cfg)
    assert (a.dendrogram.left == b.dendrogram.left).all()
    assert (a.dendrogram.right == b.dendrogram.right).all()
    assert (a.dendrogram.height == b.dendrogram.height).all()


def test_rejects_duplicate_points():
    p = PointSet([[0.0], [0.0], [1.0]])
    with pytest.raises(ValueError, match="dedupe"):
        farach_exact(p)
    with pytest.raises(ValueError, match="dedupe"):
        approx_ult(p)


def test_run_algorithm_dispatch():
    for name in ("approx", "acc", "exact", "single", "average"):
        res = run_algorithm(name, COLLINEAR, SpannerConfig(seed=0))
        assert res.algorithm == name
        assert res.dendrogram.n == 3
        assert all(v >= 0 for v in res.timings_ms.values())
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm("bogus", COLLINEAR)


def test_fit_result_stage_names_match_algorithm():
    res = approx_ult(COLLINEAR, SpannerConfig(seed=0))
    assert set(res.timings_ms) == {"spanner", "mst", "cutweight", "cartesian"}
    res2 = farach_exact(COLLINEAR)
    assert set(res2.timings_ms) == {"mst", "cutweight", "cartesian"}
