"""Sparse multi-scale stretch-gamma graph built with hashed random projections.

The graph connects, at every distance scale, the members of each hash
bucket to a representative member by edges carrying true Euclidean
weights.  The coarsest scale always places all points in one bucket, so
the output is connected for every seed.
"""

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .core import PointSet, chunks, compact, edge_distances, fork_map, index_dtype, paired_distances, worker_limit
from .mst import minimum_forest

_REP_CAP = 48  # repetition budget cap, keeps build near-linear at large n
_MAX_SCALES = 32  # length of the radius ladder (estimate_scales)
# points from which the scales run in worker processes.  The workers cost
# 9-31 ms to start, serve 31 empty scales and stop, and the rows, more than
# n * d, set where they pay: on 2 cores (uniform points, gamma 2.5, medians
# of 25 alternated builds) serial and pooled builds broke even near 300
# rows at d = 2, 350 at d = 4 and d = 8, 500-750 at d = 16 and 250-350 at
# d = 77, and the pooled build won at every d from 750 rows, faster in 18
# to 25 of 25 builds
_POOL_MIN_ROWS = 750
# rows per X @ proj block.  OpenBLAS threads a product by its size, and
# whole-matrix products on two workers oversubscribe two cores: on uniform
# 20,000x16 under OpenBLAS's default threads the spanner took 3.3-3.5 s
# without blocks and 1.7 s with them
_PROJ_ROWS = 4096


@dataclass
class SpannerConfig:
    """Tunables for the spanner build.

    The projections k = ceil(log2(n) / gamma) and repetitions
    T = min(48, ceil(log2(n)^2)) follow from n and gamma at build time.
    """

    gamma: float = 2.5
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 1):
            raise ValueError(f"gamma must be a finite number >= 1, got {self.gamma}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")

    def resolved(self, n: int) -> tuple[int, int]:
        """Concrete (projections, reps) for an n-point input."""
        log2n = math.log2(max(n, 2))
        k = max(1, math.ceil(log2n / self.gamma))
        t = max(1, min(_REP_CAP, math.ceil(log2n**2)))
        return k, t


@dataclass
class SpannerGraph:
    """Deduplicated edge list over n points, u < v in ascending (u, v)
    order; endpoints are int32 below 2**31 points (core.index_dtype) and
    weights are true distances."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.u)


def estimate_scales(points: PointSet) -> list[float]:
    """Geometric radius ladder r_0 > r_1 > ... starting at the bbox diameter.

    Halving ratio, truncated after _MAX_SCALES levels.  A single point (or an
    all-duplicates set with zero bbox diameter) yields an empty ladder.
    """
    if points.n < 2:
        return []
    span = points.coords.max(axis=0) - points.coords.min(axis=0)
    r0 = float(np.sqrt((span * span).sum()))
    if r0 == 0.0:
        return []
    scales = []
    r = r0
    for _ in range(_MAX_SCALES):
        scales.append(r)
        r /= 2.0
    return scales


def _stream(seed: int, scale_index: int, rep: int) -> np.random.Generator:
    # counter-based generator; one stream per (scale, repetition)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(scale_index, rep)))
    )


def _index_bits(n: int) -> int:
    """Bits that hold a point index below n in a packed (hash | index) word."""
    return (n - 1).bit_length()


def _scale_pairs(X: np.ndarray, config: SpannerConfig, scales: list[float], si: int):
    """The repetitions of scale si: the number of non-trivial ones (some
    bucket holds two or more points) and the scale's sorted distinct pairs,
    packed (a << 32) | b, or None when the scale adds no pair.

    Each repetition sorts one word per point: the top 64 - b bits of its
    multiply-add hash, which are its bucket (multiply-shift hashing),
    above its index (b = _index_bits(n) bits).  The sorted words group the
    buckets and list each bucket's members in ascending index order, which
    fixes the summation order of the bucket means.  A two-point bucket is
    its one edge whichever member is the centre, so only buckets of three
    or more points are centred."""
    n, d = X.shape
    k, reps = config.resolved(n)
    width = config.gamma * scales[si]
    bits = _index_bits(n)
    low = np.uint64((1 << bits) - 1)
    index = np.arange(n, dtype=np.uint64)
    bound = np.ones(n, dtype=bool)  # bound[0] stays set
    cells = np.empty((k, n))
    extent = np.abs(X).max(axis=0)  # |x @ p| <= extent @ |p| for every point x
    nontrivial = 0
    pieces = []
    for t in range(reps):
        rng = _stream(config.seed, si, t)
        proj = rng.standard_normal((d, k))
        offset = rng.random(k)
        mixer = rng.integers(1, 2**62, size=k, dtype=np.int64) * 2 + 1
        # test_spanner checks the edges against a loop over one X @ proj
        for s in range(0, n, _PROJ_ROWS):
            np.matmul(X[s : s + _PROJ_ROWS], proj, out=cells[:, s : s + _PROJ_ROWS].T)
        cells /= width
        cells += offset[:, None]
        np.floor(cells, out=cells)
        if (extent @ np.abs(proj)).max() / width >= 2.0**62:  # some cell may not fit int64
            _wrap_int64(cells)
        # unsigned, so the hash wraps modulo 2**64 by definition
        terms = cells.astype(np.int64).view(np.uint64)
        terms *= mixer.view(np.uint64)[:, None]
        packed = terms.sum(axis=0)
        packed &= ~low
        packed |= index
        packed.sort()
        np.greater(packed[1:] ^ packed[:-1], low, out=bound[1:])  # the high bits differ
        if bound.all():
            continue  # all buckets singleton at this repetition
        nontrivial += 1
        order = (packed & low).view(np.int64)
        starts = np.flatnonzero(bound)
        lengths = np.diff(starts, append=n)
        # two-point buckets are edges as they stand; the buckets to centre
        # skip those, singletons and the degenerate full bucket (a star)
        pair = starts[(lengths == 2) & (lengths < n)]
        if len(pair):
            pieces.append((order[pair].astype(np.uint64) << np.uint64(32)) | order[pair + 1].astype(np.uint64))
        keep = (lengths >= 3) & (lengths < n)
        if not keep.any():
            continue
        lens = lengths[keep]
        seg = order[np.repeat(keep, lengths)]
        st = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=st[1:])
        xs = np.take(X, seg, axis=0)
        means = np.add.reduceat(xs, st, axis=0) / lens[:, None]
        xs -= np.repeat(means, lens, axis=0)
        xs *= xs
        d2 = xs.sum(axis=1)
        best = np.minimum.reduceat(d2, st)
        pos = np.flatnonzero(d2 == np.repeat(best, lens))
        first = pos[np.searchsorted(pos, st)]
        centers = np.repeat(seg[first], lens)
        m = seg != centers
        seg, centers = seg[m], centers[m]
        a = np.minimum(seg, centers).astype(np.uint64)
        b = np.maximum(seg, centers).astype(np.uint64)
        pieces.append((a << np.uint64(32)) | b)
    return nontrivial, (_sorted_unique(np.concatenate(pieces)) if pieces else None)


def _wrap_int64(cells: np.ndarray) -> None:
    """Integral float cells, in place and exactly, modulo 2**64 into
    [-2**63, 2**63): their int64 casts are then their residues, all that
    the hash (a sum of products modulo 2**64) reads.  Far from the origin
    at fine scales cells pass 2**63, where a bare cast warns and gives
    INT64_MIN."""
    np.fmod(cells, 2.0**64, out=cells)
    cells[cells >= 2.0**63] -= 2.0**64
    cells[cells < -(2.0**63)] += 2.0**64


def _worker_count(n: int) -> int:
    """Processes to run the scales of n points in: one (serial) below the
    crossover, else as many as core.worker_limit allows."""
    return 1 if n < _POOL_MIN_ROWS else worker_limit()


def build_spanner(points: PointSet, config: SpannerConfig) -> SpannerGraph:
    """Build the multi-scale bucket graph. Deterministic in (points, config).

    At each scale r below the coarsest, every repetition hashes the points
    with k concatenated randomly-offset quantized Gaussian projections of
    cell width gamma * r.  Within each bucket, all members connect to the
    member closest to the bucket mean.  The coarsest scale r_0 needs no
    hashing: its cell width >= the bbox diameter, so all points share one
    bucket, realized as a star on the lowest-index point.  The finer scales
    are independent, so they run on core.fork_map's worker processes when
    n makes that pay (_worker_count); the edges are the same either way.
    """
    n = points.n
    X = points.coords
    scales = estimate_scales(points)

    # the sorted distinct pairs of the scales so far; each scale's pairs are
    # folded in as they arrive, in scale order, so only the union and one
    # scale's pairs are held at a time
    union = np.arange(1, n, dtype=np.uint64)  # coarsest-scale star on point 0
    job = partial(_scale_pairs, X, config, scales)
    scale_ids = range(1, len(scales))
    with fork_map(job, scale_ids, _worker_count(n), label="scale") as results:
        for nontrivial, scale in results:
            if scale is not None:
                # two sorted runs, which a stable sort merges in linear time
                union = _sorted_unique(np.concatenate((union, scale)), kind="stable")
            del scale  # frees its buffer before the next scale fills its own
            if nontrivial == 0:
                break  # every bucket is a singleton: finer scales stay trivial

    u, v = _unpack(union, index_dtype(n))
    del union
    return SpannerGraph(n=n, u=u, v=v, w=edge_distances(X, u, v))


def spanner_forests(points: PointSet, config: SpannerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges whose minimum spanning tree is kruskal(build_spanner(points,
    config))'s, edge for edge: the coarsest-scale star on point 0 and one
    minimum spanning forest per scale process, at most 3(n - 1) edges.

    The scales run as in build_spanner, but their pairs stay in the
    process that computed them: core.fork_map's finish step folds that
    process's scales up to the stop, weighs them and returns their
    minimum_forest.  Under the strict (weight, min index, max index)
    order, an edge a forest leaves out is the heaviest on a cycle of
    spanner edges and in no minimum spanning tree of the spanner.  A pair
    can repeat, always with the same weight (one cdist entry).
    """
    n = points.n
    X = points.coords
    scales = estimate_scales(points)
    kept = {}  # scale id -> its sorted distinct pairs, in the process that computed it

    def job(si):
        nontrivial, pairs = _scale_pairs(X, config, scales, si)
        if pairs is not None:
            kept[si] = pairs
        return nontrivial

    def finish(last):
        # scales computed past the stop are dropped; a stable sort merges
        # the sorted runs of the others
        runs = [kept.pop(si) for si in sorted(kept) if last is not None and si <= last]
        union = _sorted_unique(np.concatenate([np.empty(0, dtype=np.uint64), *runs]), kind="stable")
        del runs
        u, v = _unpack(union, index_dtype(n))
        del union
        return minimum_forest(n, (u, v, edge_distances(X, u, v)))

    with fork_map(job, range(1, len(scales)), _worker_count(n), label="scale", finish=finish) as results:
        for nontrivial in results:
            if nontrivial == 0:
                break  # every bucket is a singleton: finer scales stay trivial
        forests = results.finish()
    star_u = np.zeros(n - 1, dtype=np.int64)
    star_v = np.arange(1, n, dtype=np.int64)
    parts = [(star_u, star_v, edge_distances(X, star_u, star_v))] + forests
    return tuple(np.concatenate(column) for column in zip(*parts))


def _sorted_unique(packed: np.ndarray, kind: str | None = None) -> np.ndarray:
    """The distinct values of packed, ascending: packed is sorted (by
    np.sort's kind) and compacted in place, and a prefix view of it is
    returned.  Far faster than np.unique's hash table."""
    packed.sort(kind=kind)
    last = None  # the value before the chunk that compact passes next

    def first_of_run(part):
        nonlocal last
        keep = np.empty(len(part), dtype=bool)
        keep[0] = last is None or part[0] != last
        np.not_equal(part[1:], part[:-1], out=keep[1:])
        last = part[-1]
        return keep

    return compact(packed, first_of_run)


def _unpack(packed: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The halves a and b of packed (a << 32) | b keys, as two arrays of
    dtype written a chunk at a time, with no key-sized temporary."""
    a = np.empty(len(packed), dtype=dtype)
    b = np.empty_like(a)
    for keys, ca, cb in zip(chunks(packed), chunks(a), chunks(b)):
        np.right_shift(keys, np.uint64(32), out=ca, casting="unsafe")
        np.bitwise_and(keys, np.uint64(0xFFFFFFFF), out=cb, casting="unsafe")
    return a, b


def verify_stretch(points: PointSet, graph: SpannerGraph, sample: int, seed: int = 0) -> float:
    """Max over sampled pairs of (shortest-path distance) / (true distance).

    Samples `sample` random pairs, or scans all pairs when sample covers
    n*(n-1)/2.  Returns +inf when the graph does not connect the sampled
    pairs (disconnected spanner).
    """
    if sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    n = points.n
    if n < 2:
        return 1.0
    g = csr_matrix(
        (np.concatenate([graph.w, graph.w]),
         (np.concatenate([graph.u, graph.v]), np.concatenate([graph.v, graph.u]))),
        shape=(n, n),
    )
    all_pairs = n * (n - 1) // 2
    if sample >= all_pairs:
        us, vs = np.triu_indices(n, 1)
    else:
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0xFEED,)))
        )
        us = rng.integers(0, n, size=sample)
        vs = rng.integers(0, n - 1, size=sample)
        vs += vs >= us  # uniform over off-diagonal pairs
    sources, inv = np.unique(us, return_inverse=True)
    sp = dijkstra(g, directed=False, indices=sources)
    path = sp[inv, vs]
    if not np.isfinite(path).all():
        return math.inf
    true = paired_distances(points.coords[us], points.coords[vs])
    return max(1.0, float(np.max(path / true)))
