"""Geometric primitives and the canonical edge order shared by every
other module.

All Euclidean distances in the package flow through the cdist kernel of
scipy so that any two code paths computing the distance of the same point
pair produce bitwise-identical float64 values.  Weights are always true
distances; squared-distance shortcuts are never stored.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

_CHUNK = 1 << 15  # entries that chunks and compact handle at a time
_TILE = 128  # rows and columns of one distance_matrix tile


@dataclass(frozen=True)
class PointSet:
    """n points in d-dimensional Euclidean space, immutable after construction.

    _mst holds the exact MST once mst.exact_mst has computed it: coords
    are write-protected, so the tree cannot go stale.  Equality and repr
    ignore it.
    """

    coords: np.ndarray
    _mst: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.coords, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"coords must be 2-d (n, d), got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("coordinates must be finite (no NaN/Inf)")
        # the squared bbox diameter bounds every squared pairwise distance,
        # every spanner radius and every entry of the kernel's factor arrays
        with np.errstate(over="ignore"):
            span = a.max(axis=0) - a.min(axis=0)
            if not np.isfinite((span * span).sum()):
                raise ValueError(
                    "coordinates too far apart: the squared bounding-box diameter overflows float64"
                )
        a = a + 0.0  # normalize -0.0 so duplicate detection is value-based
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "coords", a)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full |a| x |b| Euclidean distance matrix."""
    return cdist(np.atleast_2d(a), np.atleast_2d(b))


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """The n x n Euclidean distance matrix of coords, bitwise equal to
    cross_distances(coords, coords) at about half its kernel work: each
    square tile on or above the diagonal is one cdist call, and its
    transpose fills the mirror tile below (a cdist entry does not depend
    on the order of its two points)."""
    n = len(coords)
    D = np.empty((n, n))
    for s in range(0, n, _TILE):
        for t in range(s, n, _TILE):
            block = cdist(coords[s : s + _TILE], coords[t : t + _TILE])
            D[s : s + _TILE, t : t + _TILE] = block
            if t != s:
                D[t : t + _TILE, s : s + _TILE] = block.T
    return D


def paired_distances(a: np.ndarray, b: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Row-wise distances between a[i] and b[i].

    Computed as diagonals of small cdist blocks so every value is
    bitwise-identical to the corresponding full-matrix entry.
    """
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    m = a.shape[0]
    out = np.empty(m)
    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        out[s:e] = cdist(a[s:e], b[s:e]).diagonal()
    return out


def edge_distances(coords: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distances for an edge list sorted by u.

    Consecutive edges sharing u are served by one cdist row, so each pair
    costs exactly one kernel entry (values identical to paired_distances).
    """
    m = len(u)
    out = np.empty(m)
    if m == 0:
        return out
    starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
    ends = np.append(starts[1:], m)
    for s, e, uu in zip(starts.tolist(), ends.tolist(), u[starts].tolist()):
        out[s:e] = cdist(coords[uu : uu + 1], coords.take(v[s:e], axis=0))[0]
    return out


def distance(points: PointSet, i: int, j: int) -> float:
    """Euclidean distance between points i and j."""
    n = points.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"point index out of range: ({i}, {j}) with n={n}")
    if i == j:
        return 0.0
    return float(cdist(points.coords[i : i + 1], points.coords[j : j + 1])[0, 0])


def dedupe(points: PointSet) -> tuple[PointSet, dict[int, list[int]]]:
    """Collapse exact duplicate points, keeping first-occurrence order.

    Returns the deduplicated set and a map from each surviving point's new
    index to the list of original indices it represents.
    """
    coords = points.coords
    _, first, inverse = np.unique(coords, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")  # first-occurrence order
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    new_of_old = rank[inverse.ravel()]
    groups: dict[int, list[int]] = {i: [] for i in range(len(order))}
    for orig, ni in enumerate(new_of_old):
        groups[int(ni)].append(orig)
    return PointSet(coords[first[order]]), groups


def canonical_edges(u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return edge arrays with u < v, sorted by (weight, min index, max index).

    Equal triples keep their input order, as in a stable three-key sort.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    # an unstable sort by weight is far faster than a stable one; only the
    # runs of equal weights (NaNs count as equal) need the full key
    order = np.argsort(w)
    ws = w[order]
    tie = (ws[1:] == ws[:-1]) | (np.isnan(ws[1:]) & np.isnan(ws[:-1]))
    if tie.any():
        starts = np.concatenate(([True], ~tie))
        in_run = ~(starts & np.append(starts[1:], True))
        pos = np.flatnonzero(in_run)
        sub = order[pos]
        run = np.cumsum(starts)[pos]
        order[pos] = sub[np.lexsort((sub, hi[sub], lo[sub], run))]
    return lo[order], hi[order], w[order]


def index_dtype(count: int) -> type:
    """int32 when it holds every index below count, else int64: the width
    of spanner endpoints and of kruskal's live-edge index."""
    return np.int32 if count < 2**31 else np.int64


def chunks(a):
    """a in consecutive views of at most _CHUNK entries."""
    return (a[s : s + _CHUNK] for s in range(0, len(a), _CHUNK))


def compact(a: np.ndarray, keep) -> np.ndarray:
    """Compact a in place, one chunk at a time, to the entries that
    keep(chunk) marks, and return that prefix.  Order is kept; keep sees the
    chunks in order, each before anything is written over it."""
    kept = 0
    for part in chunks(a):
        part = part[keep(part)]
        a[kept : kept + len(part)] = part
        kept += len(part)
    return a[:kept]
