import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrafit import (
    PointSet,
    SpannerConfig,
    build_spanner,
    dedupe,
    estimate_scales,
    exact_mst,
    kruskal,
    spanner_forests,
    verify_stretch,
)
from ultrafit import core as core_mod
from ultrafit import spanner as spanner_mod
from ultrafit.core import paired_distances, worker_limit
from ultrafit.spanner import _index_bits, _scale_pairs, _stream, _worker_count, _wrap_int64


def test_scales_halve_from_bbox_diameter(monkeypatch):
    monkeypatch.setattr(spanner_mod, "_MAX_SCALES", 3)
    p = PointSet([[0, 0], [4, 0]])
    assert estimate_scales(p) == [4.0, 2.0, 1.0]


def test_scales_single_point_empty():
    p = PointSet([[1.0, 1.0]])
    assert estimate_scales(p) == []


def test_scales_strictly_decreasing(monkeypatch):
    monkeypatch.setattr(spanner_mod, "_MAX_SCALES", 16)
    rng = np.random.default_rng(0)
    p = PointSet(rng.random((20, 3)))
    scales = estimate_scales(p)
    assert all(a > b for a, b in zip(scales, scales[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        SpannerConfig(gamma=0.5)


@pytest.mark.parametrize("gamma", [float("inf"), float("-inf"), float("nan")])
def test_config_rejects_a_gamma_that_is_not_finite_and_at_least_one(gamma):
    with pytest.raises(ValueError, match="gamma must be a finite number >= 1"):
        SpannerConfig(gamma=gamma)


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        SpannerConfig(seed=seed)


def test_config_accepts_gamma_one_and_numpy_integer_seeds():
    for seed in (0, np.int64(3)):
        assert SpannerConfig(gamma=1, seed=seed).seed == seed


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_two_points_single_edge_any_seed(seed):
    p = PointSet([[0.0, 0.0], [2.5, 1.0]])
    g = build_spanner(p, SpannerConfig(gamma=2.0, seed=seed))
    assert g.edge_count == 1
    assert (g.u[0], g.v[0]) == (0, 1)
    assert g.w[0] == paired_distances(p.coords[:1], p.coords[1:])[0]


def test_single_point_empty_graph():
    g = build_spanner(PointSet([[3.0, 3.0]]), SpannerConfig())
    assert g.edge_count == 0
    assert g.u.dtype == g.v.dtype == np.int32


def test_edge_weights_are_true_distances():
    rng = np.random.default_rng(5)
    p = PointSet(rng.random((120, 6)))
    g = build_spanner(p, SpannerConfig(gamma=1.5, seed=9))
    expect = paired_distances(p.coords[g.u], p.coords[g.v])
    assert (g.w == expect).all()


def test_no_self_loops_no_duplicates():
    rng = np.random.default_rng(6)
    p = PointSet(rng.random((80, 4)))
    g = build_spanner(p, SpannerConfig(gamma=2.0, seed=3))
    assert (g.u < g.v).all()
    packed = g.u * 100000 + g.v
    assert len(np.unique(packed)) == g.edge_count


def test_deterministic_edge_list():
    rng = np.random.default_rng(8)
    p = PointSet(rng.random((60, 5)))
    cfg = SpannerConfig(gamma=2.0, seed=77)
    g1 = build_spanner(p, cfg)
    g2 = build_spanner(p, cfg)
    assert (g1.u == g2.u).all() and (g1.v == g2.v).all() and (g1.w == g2.w).all()


def test_stretch_complete_graph_is_one():
    rng = np.random.default_rng(2)
    p = PointSet(rng.random((12, 3)))
    iu, iv = np.triu_indices(12, 1)
    from ultrafit.spanner import SpannerGraph

    w = paired_distances(p.coords[iu], p.coords[iv])
    g = SpannerGraph(n=12, u=iu.astype(np.int64), v=iv.astype(np.int64), w=w)
    assert verify_stretch(p, g, sample=10**6) == 1.0


def test_stretch_path_on_collinear_points():
    p = PointSet([[0.0], [1.0], [3.0]])
    from ultrafit.spanner import SpannerGraph

    g = SpannerGraph(
        n=3, u=np.array([0, 1]), v=np.array([1, 2]), w=np.array([1.0, 2.0])
    )
    assert verify_stretch(p, g, sample=100) == 1.0


def test_stretch_star_over_unit_square():
    p = PointSet([[0, 0], [1, 0], [0, 1], [1, 1]])
    from ultrafit.spanner import SpannerGraph

    u = np.array([0, 0, 0])
    v = np.array([1, 2, 3])
    g = SpannerGraph(n=4, u=u, v=v, w=paired_distances(p.coords[u], p.coords[v]))
    # worst pair is a side pair like (1,3): true distance 1, path 1 + sqrt(2)
    # through the hub; the diagonal pair (1,2) only reaches 2/sqrt(2)
    assert verify_stretch(p, g, sample=10**6) == pytest.approx(1 + np.sqrt(2), rel=1e-12)


def test_stretch_disconnected_is_inf():
    p = PointSet([[0.0], [1.0], [5.0]])
    from ultrafit.spanner import SpannerGraph

    g = SpannerGraph(n=3, u=np.array([0]), v=np.array([1]), w=np.array([1.0]))
    assert verify_stretch(p, g, sample=100) == np.inf


@pytest.mark.parametrize("sample", [0, -1])
def test_stretch_rejects_a_sample_below_one(sample):
    p = PointSet([[0.0], [1.0], [3.0]])
    g = build_spanner(p, SpannerConfig(gamma=2.0, seed=0))
    with pytest.raises(ValueError, match="sample"):
        verify_stretch(p, g, sample=sample)


def test_stretch_within_gamma_on_most_seeds():
    # 100 uniform points in [0,1]^4 at gamma=2: the all-pairs stretch must
    # stay at or below 2 on at least 95 of 100 seeds
    rng = np.random.default_rng(12345)
    fails = 0
    for seed in range(100):
        p = PointSet(rng.random((100, 4)))
        g = build_spanner(p, SpannerConfig(gamma=2.0, seed=seed))
        if verify_stretch(p, g, sample=10**6) > 2.0:
            fails += 1
    assert fails <= 5, f"stretch above gamma on {fails}/100 seeds"


def _reference_spanner_pairs(points, config, bits=None):
    """The repetition loop that build_spanner's faster hash (blocked X @
    proj in a (k, n) layout, uint64 multiply-adds), sort (one packed
    (hash | index) word per point), pair buckets and dedup replace, kept
    as the oracle: summed int64 key, bucketed by its top 64 - bits bits
    (bits defaults to _index_bits(n)) with a stable argsort, every bucket
    centred and np.unique.  Returns the (u, v) pairs in ascending order."""
    n, d = points.n, points.d
    shift = np.uint64(_index_bits(n) if bits is None else bits)
    X = points.coords
    k, reps = config.resolved(n)
    scales = estimate_scales(points)
    pieces = [np.arange(1, n, dtype=np.uint64)]
    idx = np.arange(n, dtype=np.int64)
    for si in range(1, len(scales)):
        width = config.gamma * scales[si]
        nontrivial = 0
        for t in range(reps):
            rng = _stream(config.seed, si, t)
            proj = rng.standard_normal((d, k))
            offset = rng.random(k)
            mixer = rng.integers(1, 2**62, size=k, dtype=np.int64) * 2 + 1
            cells = np.floor(X @ proj / width + offset).astype(np.int64)
            key = (cells * mixer).sum(axis=1).view(np.uint64) >> shift
            order = np.argsort(key, kind="stable")
            sk = key[order]
            sidx = idx[order]
            bound = np.empty(n, dtype=bool)
            bound[0] = True
            np.not_equal(sk[1:], sk[:-1], out=bound[1:])
            starts = np.flatnonzero(bound)
            if len(starts) == n:
                continue
            nontrivial += 1
            lengths = np.diff(starts, append=n)
            keep = (lengths >= 2) & (lengths < n)
            if not keep.any():
                continue
            seg = sidx[np.repeat(keep, lengths)]
            lens = lengths[keep]
            st = np.zeros(len(lens), dtype=np.int64)
            np.cumsum(lens[:-1], out=st[1:])
            xs = X[seg]
            means = np.add.reduceat(xs, st, axis=0) / lens[:, None]
            d2 = ((xs - np.repeat(means, lens, axis=0)) ** 2).sum(axis=1)
            best = np.minimum.reduceat(d2, st)
            pos = np.flatnonzero(d2 == np.repeat(best, lens))
            first = pos[np.searchsorted(pos, st)]
            centers = np.repeat(seg[first], lens)
            m = seg != centers
            a = np.minimum(seg[m], centers[m]).astype(np.uint64)
            b = np.maximum(seg[m], centers[m]).astype(np.uint64)
            pieces.append((a << np.uint64(32)) | b)
        if nontrivial == 0:
            break
    packed = np.unique(np.concatenate(pieces))
    return (packed >> np.uint64(32)).astype(np.int64), (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)


def _grid(side, d):
    axes = np.meshgrid(*[np.arange(side, dtype=float)] * d, indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


# the spanner fixtures: (coords, gamma), and their ids
FIXTURES = [
    (np.random.default_rng(1).random((300, 4)), 2.0),
    (np.random.default_rng(2).random((200, 16)) * 1e3 + 5e6, 2.5),  # large offset
    (_grid(14, 2), 1.5),  # lattice: exact ties between bucket members and means
    (_grid(6, 3), 2.0),
    (np.repeat(np.eye(5) * 4.0, 30, axis=0) + np.random.default_rng(3).random((150, 5)), 2.5),
]
FIXTURE_IDS = ["uniform", "offset", "grid2d", "grid3d", "blobs"]


@pytest.mark.parametrize("coords, gamma", FIXTURES, ids=FIXTURE_IDS)
def test_build_spanner_matches_reference_loop(coords, gamma):
    p = PointSet(coords)
    for seed in range(3):
        cfg = SpannerConfig(gamma=gamma, seed=seed)
        g = build_spanner(p, cfg)
        ru, rv = _reference_spanner_pairs(p, cfg)
        assert g.edge_count == len(ru), f"seed {seed}"
        assert (g.u == ru).all() and (g.v == rv).all(), f"seed {seed}"
        assert (g.w == paired_distances(p.coords[ru], p.coords[rv])).all()


@pytest.mark.parametrize("bits", [52, 63])
@pytest.mark.parametrize(
    "coords, gamma",
    [
        (_grid(14, 2), 1.5),
        (_grid(6, 3), 2.0),
        (np.repeat(np.eye(5) * 4.0, 30, axis=0) + np.random.default_rng(3).random((150, 5)), 2.5),
    ],
    ids=["grid2d", "grid3d", "blobs"],
)
def test_build_spanner_matches_reference_loop_when_hashes_share_high_bits(coords, gamma, bits, monkeypatch):
    # the packed words keep 64 - bits bits of each hash: 12 at bits = 52,
    # where distinct hashes often share them, and 1 at bits = 63, where any
    # repetition with three distinct hashes does; hashes that share their
    # high bits share a bucket, whose members link to its centre
    monkeypatch.setattr(spanner_mod, "_index_bits", lambda n: bits)
    p = PointSet(coords)
    for seed in range(3):
        cfg = SpannerConfig(gamma=gamma, seed=seed)
        g = build_spanner(p, cfg)
        ru, rv = _reference_spanner_pairs(p, cfg, bits)
        assert g.edge_count == len(ru), f"seed {seed}"
        assert (g.u == ru).all() and (g.v == rv).all(), f"seed {seed}"


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_build_spanner_in_small_chunks_matches_reference_loop(chunk, monkeypatch):
    # the dedup, the fold into the running union and the unpacking work a
    # chunk at a time; runs of equal pairs and keys cross chunk boundaries
    monkeypatch.setattr(core_mod, "_CHUNK", chunk)
    p = PointSet(np.random.default_rng(1).random((300, 4)))
    cfg = SpannerConfig(gamma=2.0, seed=1)
    g = build_spanner(p, cfg)
    ru, rv = _reference_spanner_pairs(p, cfg)
    assert g.edge_count == len(ru)
    assert (g.u == ru).all() and (g.v == rv).all()


def test_build_spanner_memory_is_the_deduplicated_graph():
    # the output holds 16 bytes per unique edge (int32 u and v, float64 w).
    # The raw pairs of all scales, about 1.4 times the unique ones here, are
    # never held at once, nor is a list of every scale's distinct pairs: each
    # scale's are folded into one running union, so the peak stays within a
    # quarter more than the output plus a few copies of the coordinates
    rng = np.random.default_rng(1)
    centers = rng.random((10, 16)) * 6.0
    p = PointSet(centers[rng.integers(0, 10, 3000)] + rng.standard_normal((3000, 16)) * 0.35)
    tracemalloc.start()
    try:
        g = build_spanner(p, SpannerConfig(gamma=2.5, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * g.edge_count + 4 * p.coords.nbytes


def test_worker_count_is_serial_below_the_crossover_and_at_most_two():
    assert _worker_count(spanner_mod._POOL_MIN_ROWS - 1) == 1
    assert 1 <= _worker_count(10**6) <= 2


def test_worker_count_follows_the_cpu_quota(monkeypatch):
    # a container held to one CPU by its cgroup quota builds serially
    monkeypatch.setattr(core_mod, "_cpu_quota", lambda: 1)
    assert _worker_count(10**6) == 1


@pytest.fixture
def pooled(monkeypatch):
    """Every build_spanner call runs its scales in worker processes."""
    monkeypatch.setattr(spanner_mod, "_POOL_MIN_ROWS", 0)
    if _worker_count(0) < 2:
        pytest.skip("needs fork and two usable CPUs")


@pytest.mark.parametrize(
    "coords, gamma",
    [
        (np.random.default_rng(1).random((300, 4)), 2.0),
        (np.repeat(np.eye(5) * 4.0, 30, axis=0) + np.random.default_rng(3).random((150, 5)), 2.5),
    ],
    ids=["uniform", "blobs"],
)
def test_pooled_spanner_matches_serial_and_reference(coords, gamma, pooled, monkeypatch):
    p = PointSet(coords)
    cfg = SpannerConfig(gamma=gamma, seed=2)
    scales = estimate_scales(p)
    # the scales run out of non-trivial repetitions before _MAX_SCALES, so
    # the pool has computed scales past the break that must be discarded
    trivial = [si for si in range(1, len(scales)) if _scale_pairs(p.coords, cfg, scales, si)[0] == 0]
    assert trivial and trivial[0] < len(scales) - 1
    g = build_spanner(p, cfg)
    with monkeypatch.context() as m:
        m.setattr(spanner_mod, "_POOL_MIN_ROWS", float("inf"))
        serial = build_spanner(p, cfg)
    for a, b in ((g.u, serial.u), (g.v, serial.v), (g.w, serial.w)):
        assert a.dtype == b.dtype and (a == b).all()
    ru, rv = _reference_spanner_pairs(p, cfg)
    assert (g.u == ru).all() and (g.v == rv).all()


def _assert_forests_give_the_spanner_tree(p, cfg, pooled):
    """kruskal over spanner_forests equals kruskal over build_spanner's
    edges, edge for edge, with the scales run in 2 worker processes or in
    this one, from at most 3(n - 1) edges."""
    g = build_spanner(p, cfg)
    want = kruskal(p.n, (g.u, g.v, g.w))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spanner_mod, "_POOL_MIN_ROWS", 0 if pooled else float("inf"))
        edges = spanner_forests(p, cfg)
    assert len(edges[0]) <= 3 * (p.n - 1)
    got = kruskal(p.n, edges)
    for a, b in ((got.u, want.u), (got.v, want.v), (got.w, want.w)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _pool_modes():
    return [False, True] if worker_limit() >= 2 else [False]


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
@pytest.mark.parametrize("coords, gamma", FIXTURES, ids=FIXTURE_IDS)
def test_spanner_forests_give_the_spanner_tree(coords, gamma, pooled):
    if pooled and worker_limit() < 2:
        pytest.skip("needs fork and two usable CPUs")
    p = PointSet(coords)
    for seed in range(3):
        _assert_forests_give_the_spanner_tree(p, SpannerConfig(gamma=gamma, seed=seed), pooled)


def test_spanner_forests_drop_the_scales_computed_past_the_stop(pooled, monkeypatch):
    # while one worker holds the first trivial scale, the other computes
    # the scales past it, each made to return every pair: kept, they would
    # turn the tree into the exact MST
    p = PointSet(np.random.default_rng(1).random((300, 8)))
    cfg = SpannerConfig(gamma=4.0, seed=1)
    scales = estimate_scales(p)
    first = next(si for si in range(1, len(scales)) if _scale_pairs(p.coords, cfg, scales, si)[0] == 0)
    assert first < len(scales) - 2
    iu, iv = np.triu_indices(p.n, 1)
    every_pair = (iu.astype(np.uint64) << np.uint64(32)) | iv.astype(np.uint64)

    def late(X, config, scales, si):
        if si == first:
            time.sleep(0.2)
        return (1, every_pair) if si > first else _scale_pairs(X, config, scales, si)

    monkeypatch.setattr(spanner_mod, "_scale_pairs", late)
    g = build_spanner(p, cfg)
    want = kruskal(p.n, (g.u, g.v, g.w))
    assert want.w.tobytes() != exact_mst(p).w.tobytes()
    got = kruskal(p.n, spanner_forests(p, cfg))
    for a, b in ((got.u, want.u), (got.v, want.v), (got.w, want.w)):
        assert a.tobytes() == b.tobytes()


def test_wrap_int64_casts_are_the_residues_modulo_two_to_the_64():
    cells = np.array([0.0, -3.0, 2.0**53, 2.0**63 - 1024, 2.0**63, -(2.0**63), -(2.0**63) - 2048, 2.0**64 + 2**12,
                      1e19, -1e19, 3e30, -7e300])
    want = [((int(c) + 2**63) % 2**64) - 2**63 for c in cells.tolist()]
    _wrap_int64(cells)
    assert cells.astype(np.int64).tolist() == want


def test_spanner_far_from_the_origin_hashes_fine_scales_without_a_cast_warning():
    # 1-d points 1e12 from the origin, some a rounding step apart, keep
    # sharing buckets down to scales whose cells pass 2**63; the cast of
    # such a cell warned (an error under this suite's warning filter) and
    # put it in the INT64_MIN cell
    x = 1e12 + np.random.default_rng(0).random((90, 1))
    p = dedupe(PointSet(x))[0]
    cfg = SpannerConfig(gamma=4.0, seed=0)
    assert _scale_pairs(p.coords, cfg, estimate_scales(p), 30)[0] > 0
    g = build_spanner(p, cfg)
    assert (g.w == paired_distances(p.coords[g.u], p.coords[g.v])).all()
    _assert_forests_give_the_spanner_tree(p, cfg, pooled=False)


@st.composite
def _point_sets(draw):
    """n 2-300 points in 1-8 dimensions: uniform reals, or a small integer
    grid whose distances tie (duplicates deduped), optionally 1e12 away
    from the origin."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, draw(st.integers(2, 6)), (n, d)).astype(float) if draw(st.booleans()) else rng.random((n, d))
    if draw(st.booleans()):
        x += 1e12
    return dedupe(PointSet(x))[0]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(p=_point_sets(), gamma=st.sampled_from([1.0, 4.0]), seed=st.integers(0, 3))
def test_spanner_forests_give_the_spanner_tree_on_generated_inputs(p, gamma, seed):
    for pooled in _pool_modes():
        _assert_forests_give_the_spanner_tree(p, SpannerConfig(gamma=gamma, seed=seed), pooled)


def test_pooled_spanner_raises_a_worker_error_and_stops_its_workers(pooled, monkeypatch):
    def failing(seed, scale_index, rep):
        if scale_index == 3:
            raise RuntimeError("hash stream failed at scale 3")
        return _stream(seed, scale_index, rep)

    monkeypatch.setattr(spanner_mod, "_stream", failing)  # inherited by the forked workers
    p = PointSet(np.random.default_rng(1).random((300, 4)))
    with pytest.raises(RuntimeError, match="scale 3"):
        build_spanner(p, SpannerConfig(gamma=2.0, seed=1))
    assert multiprocessing.active_children() == []


def test_pooled_spanner_over_row_blocks_matches_reference_under_blas_threads(pooled):
    # 5000 rows span two X @ proj blocks; each BLAS setting runs in a fresh
    # interpreter, since a thread count is fixed when BLAS loads
    script = (
        "import numpy as np, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from ultrafit import PointSet, SpannerConfig, build_spanner, spanner\n"
        "from test_spanner import _reference_spanner_pairs\n"
        "spanner._POOL_MIN_ROWS = 0\n"
        "spanner._REP_CAP = 6\n"
        "p = PointSet(np.random.default_rng(4).random((5000, 6)))\n"
        "cfg = SpannerConfig(gamma=2.0, seed=5)\n"
        "g = build_spanner(p, cfg)\n"
        "ru, rv = _reference_spanner_pairs(p, cfg)\n"
        "assert len(g.u) == len(ru) and (g.u == ru).all() and (g.v == rv).all()\n"
    )
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script, os.path.dirname(__file__)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr


def test_pooled_spanner_raises_when_a_worker_dies(pooled, run_bounded):
    # a worker that exits without a reply loses its scale; the parent must
    # name that scale and stop the other worker instead of waiting for it
    script = (
        "import multiprocessing, os, sys, time\n"
        "import numpy as np\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from ultrafit import PointSet, SpannerConfig, build_spanner, spanner\n"
        "stream = spanner._stream\n"
        "def dying(seed, scale_index, rep):\n"
        "    if scale_index == 3:\n"
        "        os._exit(1)\n"
        "    return stream(seed, scale_index, rep)\n"
        "spanner._POOL_MIN_ROWS = 0\n"
        "spanner._stream = dying\n"
        "p = PointSet(np.random.default_rng(1).random((300, 4)))\n"
        "t0 = time.perf_counter()\n"
        "try:\n"
        "    build_spanner(p, SpannerConfig(gamma=2.0, seed=1))\n"
        "except RuntimeError as exc:\n"
        "    print(time.perf_counter() - t0, exc)\n"
        "else:\n"
        "    sys.exit('build_spanner returned')\n"
        "assert multiprocessing.active_children() == []\n"
    )
    seconds, message = run_bounded(script, timeout=30).split(" ", 1)
    assert "scale 3" in message
    assert float(seconds) < 5


def test_pooled_spanner_stops_workers_mid_send_without_hanging(pooled, run_bounded):
    # every scale past the first trivial one returns 16 MiB, so a worker is
    # often sending when the parent, done at that scale, terminates it
    script = (
        "import multiprocessing, sys\n"
        "import numpy as np\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from ultrafit import PointSet, SpannerConfig, build_spanner, estimate_scales, spanner\n"
        "spanner._REP_CAP = 4  # cheap scales: the builds time the stop, not the hashing\n"
        "scale_pairs = spanner._scale_pairs\n"
        "p = PointSet(np.random.default_rng(1).random((300, 4)))\n"
        "cfg = SpannerConfig(gamma=2.0, seed=2)\n"
        "scales = estimate_scales(p)\n"
        "first = next(si for si in range(1, len(scales)) if scale_pairs(p.coords, cfg, scales, si)[0] == 0)\n"
        "payload = (0, np.ones(2**21, dtype=np.uint64))\n"
        "def heavy(X, config, scales, si):\n"
        "    if si > first:\n"
        "        return payload\n"
        "    return scale_pairs(X, config, scales, si)\n"
        "serial = build_spanner(p, cfg)\n"
        "spanner._POOL_MIN_ROWS = 0\n"
        "spanner._scale_pairs = heavy\n"
        "for _ in range(200):\n"
        "    g = build_spanner(p, cfg)\n"
        "    assert (g.u == serial.u).all() and (g.v == serial.v).all() and (g.w == serial.w).all()\n"
        "    assert multiprocessing.active_children() == []\n"
        "print(first, len(scales))\n"
    )
    first, count = map(int, run_bounded(script, timeout=120).split())
    assert first < count - 2  # two or more heavy scales per build
