"""Sparse multi-scale stretch-gamma graph built with hashed random projections.

The graph connects, at every distance scale, the members of each hash
bucket to a representative member by edges carrying true Euclidean
weights.  The coarsest scale always places all points in one bucket, so
the output is connected for every seed.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .core import PointSet, chunks, compact, edge_distances, index_dtype, paired_distances

_REP_CAP = 48  # repetition budget cap, keeps build near-linear at large n


@dataclass
class SpannerConfig:
    """Tunables for the spanner build.

    reps and projections default to n-dependent values resolved at build
    time: projections k = ceil(log2(n) / gamma) and repetitions
    T = min(48, ceil(log2(n)^2)).
    """

    gamma: float = 2.5
    seed: int = 0
    reps: int | None = None
    projections: int | None = None
    max_scales: int = 32

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.reps is not None and self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.projections is not None and self.projections < 1:
            raise ValueError("projections must be >= 1")
        if self.max_scales < 1:
            raise ValueError("max_scales must be >= 1")

    def resolved(self, n: int) -> tuple[int, int]:
        """Concrete (projections, reps) for an n-point input."""
        log2n = math.log2(max(n, 2))
        k = self.projections or max(1, math.ceil(log2n / self.gamma))
        t = self.reps or max(1, min(_REP_CAP, math.ceil(log2n**2)))
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


def estimate_scales(points: PointSet, config: SpannerConfig) -> list[float]:
    """Geometric radius ladder r_0 > r_1 > ... starting at the bbox diameter.

    Halving ratio, truncated after max_scales levels.  A single point (or an
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
    for _ in range(config.max_scales):
        scales.append(r)
        r /= 2.0
    return scales


def _stream(seed: int, scale_index: int, rep: int) -> np.random.Generator:
    # counter-based generator; one stream per (scale, repetition)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(scale_index, rep)))
    )


def build_spanner(points: PointSet, config: SpannerConfig) -> SpannerGraph:
    """Build the multi-scale bucket graph. Deterministic in (points, config).

    At each scale r below the coarsest, every repetition hashes the points
    with k concatenated randomly-offset quantized Gaussian projections of
    cell width gamma * r.  Within each bucket, all members connect to the
    member closest to the bucket mean.  The coarsest scale r_0 needs no
    hashing: its cell width >= the bbox diameter, so all points share one
    bucket, realized as a star on the lowest-index point.
    """
    n, d = points.n, points.d
    X = points.coords
    k, reps = config.resolved(n)
    scales = estimate_scales(points, config)

    # the sorted distinct pairs of the scales so far; each scale's pairs are
    # deduplicated and folded in when the scale ends, so only the union and
    # the raw pairs of one scale are held at a time
    union = np.arange(1, n, dtype=np.uint64)  # coarsest-scale star on point 0
    bound = np.empty(n, dtype=bool)
    bound[0] = True
    for si in range(1, len(scales)):
        width = config.gamma * scales[si]
        nontrivial = 0
        pieces = []
        for t in range(reps):
            rng = _stream(config.seed, si, t)
            proj = rng.standard_normal((d, k))
            offset = rng.random(k)
            mixer = rng.integers(1, 2**62, size=k, dtype=np.int64) * 2 + 1
            cells = X @ proj
            cells /= width
            cells += offset
            np.floor(cells, out=cells)
            # unsigned, so the hash wraps modulo 2**64 by definition
            key = cells.astype(np.int64).view(np.uint64) @ mixer.view(np.uint64)
            order = np.argsort(key)
            sk = key[order]
            np.not_equal(sk[1:], sk[:-1], out=bound[1:])
            starts = np.flatnonzero(bound)
            if len(starts) == n:
                continue  # all buckets singleton at this repetition
            nontrivial += 1
            lengths = np.diff(starts, append=n)
            # skip singletons and the degenerate full bucket (already a star)
            keep = (lengths >= 2) & (lengths < n)
            if not keep.any():
                continue
            lens = lengths[keep]
            # members of each bucket in ascending index order, which fixes the
            # summation order of the bucket means
            shift = np.repeat(np.flatnonzero(keep) * n, lens)
            seg = order[np.repeat(keep, lengths)] + shift
            seg.sort()
            seg -= shift
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
            a = np.minimum(seg[m], centers[m]).astype(np.uint64)
            b = np.maximum(seg[m], centers[m]).astype(np.uint64)
            pieces.append((a << np.uint64(32)) | b)
        if pieces:
            scale = _sorted_unique(np.concatenate(pieces))
            pieces.clear()
            # two sorted runs, which a stable sort merges in linear time
            union = _sorted_unique(np.concatenate((union, scale)), kind="stable")
            del scale  # frees its raw buffer before the next scale fills pieces
        if nontrivial == 0:
            break  # every bucket is a singleton: finer scales stay trivial

    u, v = _unpack(union, index_dtype(n))
    del union
    return SpannerGraph(n=n, u=u, v=v, w=edge_distances(X, u, v))


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
