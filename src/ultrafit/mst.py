"""Spanning trees: Kruskal over sparse graphs and an exact Euclidean MST
baseline."""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .core import PointSet, _roots, canonical_edges, chunks, compact, cross_distances, index_dtype

_FILTER_EDGES_PER_POINT = 4  # kruskal sorts about this many edges per point per batch
_FILTER_SAMPLE = 1 << 16  # live weights sampled for a batch's threshold


class DisconnectedGraphError(ValueError):
    """Raised by kruskal when the edge list does not span all points."""

    def __init__(self, n, components):
        self.n = n
        self.components = components
        sizes = sorted((len(c) for c in components), reverse=True)
        preview = "; ".join(
            "{" + ",".join(map(str, sorted(c)[:8])) + (",..." if len(c) > 8 else "") + "}"
            for c in components[:6]
        )
        super().__init__(
            f"graph is disconnected: {len(components)} components of sizes {sizes[:10]}"
            f"{'...' if len(sizes) > 10 else ''}: {preview}"
        )


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Tree over n points: exactly n-1 edges.  kruskal, connect_components
    and exact_mst store them in canonical (weight, min index, max index)
    order, which the cut-weight passes and kt_factor rely on.  Edges
    that close a cycle are refused by dendro.build_dendrogram, which
    every pass over a tree runs, not here.

    The tree is frozen and u, v and w are write-protected at construction
    (the caller's arrays included), so _order, the tree-order dendrogram
    that dendro.tree_order keeps here, cannot go stale."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    _order: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.u) != self.n - 1:
            raise ValueError(f"tree over {self.n} points needs {self.n - 1} edges, got {len(self.u)}")
        for name, a in zip("uvw", _as_edge_arrays(self.n, (self.u, self.v, self.w))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _as_edge_arrays(n: int, edges):
    """(u, v, w) as arrays, equally long with every endpoint in [0, n)
    (else ValueError; a min and a max per endpoint array, no copy).  Integer
    endpoints keep their dtype (canonical_edges widens each batch)."""
    u, v, w = edges
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w, dtype=np.float64)
    if not len(u) == len(v) == len(w):
        raise ValueError(f"edge arrays differ in length: u {len(u)}, v {len(v)}, w {len(w)}")
    for name, a in (("u", u), ("v", v)):
        if len(a) and not 0 <= a.min() <= a.max() < n:
            raise ValueError(f"edge endpoints {name} outside [0, {n}): min {a.min()}, max {a.max()}")
    return u, v, w


def _scan(parent, u, v, w, tu, tv, tw, cnt) -> int:
    """Kruskal scan of canonically sorted edges into the forest (tu, tv, tw),
    which holds cnt edges; returns the new edge count.

    The per-edge loop reads and writes a list copy of parent (a list read
    returns the list's own int, where an array read makes a new one) and
    notes a bool per live edge.  After each chunk the entries it rewrote
    go back to parent for the next chunk's snapshot, and the chunk's new
    tree edges are gathered at once."""
    n = len(parent)
    p = parent.tolist()
    chunk = 1024
    for s in range(0, len(u), chunk):
        cu = u[s : s + chunk]
        cv = v[s : s + chunk]
        # snapshot roots: equal roots cannot become a tree edge later
        ru = parent[cu]
        rv = parent[cv]
        while True:
            pu = parent[ru]
            pv = parent[rv]
            if (pu == ru).all() and (pv == rv).all():
                break
            ru, rv = pu, pv
        live = np.flatnonzero(ru != rv)
        joins = []  # per live edge: does it join two trees
        moved = []  # entries of p rewritten
        for a0, b0 in zip(cu[live].tolist(), cv[live].tolist()):
            a = a0
            while p[a] != a:
                p[a] = p[p[a]]
                moved.append(a)
                a = p[a]
            b = b0
            while p[b] != b:
                p[b] = p[p[b]]
                moved.append(b)
                b = p[b]
            if a == b:
                joins.append(False)
                continue
            p[b] = a
            moved.append(b)
            joins.append(True)
        if moved:
            parent[moved] = [p[x] for x in moved]
        new = live[np.array(joins, dtype=bool)] + s
        k = len(new)
        tu[cnt : cnt + k] = u[new]
        tv[cnt : cnt + k] = v[new]
        tw[cnt : cnt + k] = w[new]
        cnt += k
        if cnt == n - 1:
            break
    return cnt


def _threshold(w: np.ndarray, live, limit: int) -> float:
    """A weight that about `limit` of the live edges (every edge when live
    is None) do not exceed, read from a strided sample of at most about
    _FILTER_SAMPLE live weights (all of them when that many are live).
    NaN when at most `limit` edges are live, or when the sample puts only
    NaN weights, which sort last, there."""
    count = len(w) if live is None else len(live)
    if count <= limit:
        return np.nan
    step = max(1, count // _FILTER_SAMPLE)
    sample = w[::step] if live is None else w.take(live[::step])
    k = max(0, limit * len(sample) // count - 1)
    return np.partition(sample, k)[k]


def _first_pass(count: int, keep) -> np.ndarray:
    """The edge ids below count where keep(s, e), a mask over edges s to
    e - 1, holds, found a chunk of edges at a time.  The chunks are read
    by slice, so no index over all the edges exists."""
    dtype = index_dtype(count)
    parts = []
    for r in chunks(range(count)):
        ids = np.flatnonzero(keep(r.start, r.stop)).astype(dtype, copy=False)
        ids += r.start
        parts.append(ids)
    return np.concatenate(parts)


def kruskal(n: int, edges) -> SpanningTree:
    """Minimum spanning tree of the given weighted graph.

    Edges are a (u, v, w) triple of equal-length arrays, endpoints in [0, n).
    Ties resolve by the canonical (weight, min index, max index) order.
    Raises DisconnectedGraphError naming the components when the edges do
    not span all n points.  The tree is minimum_forest's.
    """
    return SpanningTree(n, *minimum_forest(n, edges, spanning=True))


def minimum_forest(n: int, edges, spanning: bool = False):
    """Minimum spanning forest of the given weighted graph, as (u, v, w)
    arrays in canonical (weight, min index, max index) order, u < v: the
    forest that one Kruskal scan over all the edges in that order keeps.
    With spanning set, a forest of fewer than n - 1 edges raises
    DisconnectedGraphError, whose components are listed in ascending
    order of their union-find roots, members ascending.

    Filter-Kruskal (Osipov, Sanders and Singler, ALENEX 2009): each batch
    holds the live edges at or below a threshold that about
    _FILTER_EDGES_PER_POINT * n of them meet, sorted and scanned; before
    the next batch, edges whose endpoints are already joined are dropped.
    Every batch is a prefix of the canonical order of what remains, so the
    forest equals that of one scan over all sorted edges, wherever the
    thresholds fall.  The first batch is read from the weights in chunks;
    after its scan, the live edges are an index array over what that scan
    left, filtered in chunks.  Only a batch's edges are gathered, and
    integer endpoints keep their dtype, so the input is the only edge-sized
    array.
    """
    u, v, w = _as_edge_arrays(n, edges)
    parent = np.arange(n, dtype=np.int64)
    tu = np.empty(n - 1, dtype=np.int64)
    tv = np.empty(n - 1, dtype=np.int64)
    tw = np.empty(n - 1, dtype=np.float64)
    cnt = 0
    limit = _FILTER_EDGES_PER_POINT * n
    live = None  # every edge, until the first scan
    while cnt < n - 1:
        thr = _threshold(w, live, limit)
        if np.isnan(thr):  # the rest fits one batch, or only NaN weights are left
            batch = np.arange(len(w)) if live is None else live
        elif live is None:
            batch = _first_pass(len(w), lambda s, e: w[s:e] <= thr)
        else:
            batch = np.concatenate([ids[w.take(ids) <= thr] for ids in chunks(live)])
        cnt = _scan(parent, *canonical_edges(u.take(batch), v.take(batch), w.take(batch)), tu, tv, tw, cnt)
        if cnt == n - 1 or np.isnan(thr):
            break
        # drop the edges whose endpoints the scans have joined, the batch's too
        roots = _roots(parent)

        def unjoined(ids):
            return roots.take(u.take(ids)) != roots.take(v.take(ids))

        if live is None:
            live = _first_pass(len(w), lambda s, e: roots.take(u[s:e]) != roots.take(v[s:e]))
        else:
            live = compact(live, unjoined)
    if spanning and cnt < n - 1:
        # components in ascending root order, members ascending: one stable sort
        roots = _roots(parent)
        members = np.argsort(roots, kind="stable")
        cuts = np.flatnonzero(np.diff(roots[members])) + 1
        raise DisconnectedGraphError(n, [c.tolist() for c in np.split(members, cuts)])
    # batches ascend in the canonical order, so the forest's edges already do
    return tu[:cnt], tv[:cnt], tw[:cnt]


def connect_components(points: PointSet, forest) -> SpanningTree:
    """Complete an acyclic edge set into a spanning tree.

    While more than one component remains, the smallest component (ties by
    smallest member index) is joined to the rest through the exact
    minimum-distance cross pair, found by brute force.
    """
    n = points.n
    eu, ev, ew = map(list, _as_edge_arrays(n, forest))
    X = points.coords
    while True:
        # labels number the components in order of their smallest member
        k, labels = connected_components(coo_matrix((np.ones(len(eu)), (eu, ev)), shape=(n, n)), directed=False)
        if k == 1:
            break
        small = int(np.argmin(np.bincount(labels)))  # first minimum: smallest size, then smallest member
        members = np.flatnonzero(labels == small)
        others = np.flatnonzero(labels != small)
        block = cross_distances(X[members], X[others])
        flat = int(np.argmin(block))  # first minimum: lexicographic (member, other)
        mi, oi = divmod(flat, len(others))
        a, b = int(members[mi]), int(others[oi])
        eu.append(min(a, b))
        ev.append(max(a, b))
        ew.append(float(block[mi, oi]))
    cu, cv, cw = canonical_edges(np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64), np.array(ew))
    return SpanningTree(n=n, u=cu, v=cv, w=cw)


def exact_mst(points: PointSet) -> SpanningTree:
    """True Euclidean MST, equal edge for edge to kruskal over all pairs.

    Computed once per PointSet and stored on it, so acc, exact and single
    on one point set share one tree; later calls return that same object.
    Its u, v and w arrays are read-only, as every tree's are, so no caller
    can change what the others see.
    """
    tree = points._mst
    if tree is None:
        tree = _prim(points)
        object.__setattr__(points, "_mst", tree)
    return tree


def _prim(points: PointSet) -> SpanningTree:
    """Prim's algorithm under kruskal's strict edge order (weight, min index,
    max index).  That order is total, so the MST is unique and Prim's tree,
    sorted canonically, is the one kruskal picks.  Memory is O(n): one
    distance row per step, never all pairs.  The row covers only the live
    columns, the vertices that were still free when they were last
    compacted (ascending ids, with a copy of their coordinates); they are
    compacted once fewer than 3/4 of them are free.
    """
    n = points.n
    X = points.coords
    ids = np.arange(n)  # global id of each live column, ascending
    Y = X  # coordinates of the live columns
    best = np.full(n, np.inf)  # lightest edge from the tree to each live column
    best_from = np.zeros(n, dtype=np.int64)  # its tree endpoint
    free = np.ones(n, dtype=bool)  # not yet in the tree
    nfree = n
    eu = np.empty(n - 1, dtype=np.int64)
    ev = np.empty(n - 1, dtype=np.int64)
    ew = np.empty(n - 1, dtype=np.float64)
    j = c = 0  # the vertex that joins the tree, and its live column
    for step in range(n - 1):
        free[c] = False
        best[c] = np.inf
        nfree -= 1
        if 4 * nfree < 3 * len(ids):
            keep = np.flatnonzero(free)
            ids, Y, best, best_from = ids[keep], Y[keep], best[keep], best_from[keep]
            free = np.ones(nfree, dtype=bool)
        row = cross_distances(X[j : j + 1], Y)[0]
        # edges (j, k) and (best_from[k], k) share k, so at equal weight the
        # order prefers the lower other endpoint
        closer = row < best
        closer |= (row == best) & (best_from > j)
        closer &= free
        np.copyto(best, row, where=closer)
        np.copyto(best_from, j, where=closer)
        # ids ascend, so the first minimum is the one at the lowest id
        c = int(np.argmin(best))
        tie = best == best[c]
        if np.count_nonzero(tie) > 1:  # equal weights: least (min, max) pair
            k = np.flatnonzero(tie)
            g, f = ids[k], best_from[k]
            c = int(k[np.lexsort((np.maximum(g, f), np.minimum(g, f)))[0]])
        j = int(ids[c])
        eu[step] = best_from[c]
        ev[step] = j
        ew[step] = best[c]
    return SpanningTree(n, *canonical_edges(eu, ev, ew))
