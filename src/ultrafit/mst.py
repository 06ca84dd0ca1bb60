"""Spanning trees: Kruskal over sparse graphs and an exact Euclidean MST
baseline."""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .core import PointSet, WeightedEdge, canonical_edges, cross_distances

_FILTER_EDGES_PER_POINT = 4  # kruskal sorts this many edges per point per batch


class DisconnectedGraphError(ValueError):
    """Raised by kruskal when the edge list does not span all points."""

    def __init__(self, n, components, forest_u, forest_v, forest_w):
        self.n = n
        self.components = components
        self.forest_u = forest_u
        self.forest_v = forest_v
        self.forest_w = forest_w
        sizes = sorted((len(c) for c in components), reverse=True)
        preview = "; ".join(
            "{" + ",".join(map(str, sorted(c)[:8])) + (",..." if len(c) > 8 else "") + "}"
            for c in components[:6]
        )
        super().__init__(
            f"graph is disconnected: {len(components)} components of sizes {sizes[:10]}"
            f"{'...' if len(sizes) > 10 else ''}: {preview}"
        )


@dataclass
class SpanningTree:
    """Tree over n points: exactly n-1 edges.  kruskal, connect_components
    and exact_mst store them in canonical (weight, min index, max index)
    order, which the cut-weight passes and kt_factor rely on."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if len(self.u) != self.n - 1:
            raise ValueError(f"tree over {self.n} points needs {self.n - 1} edges, got {len(self.u)}")

    def total_weight(self) -> float:
        return float(self.w.sum())

    def edge_list(self) -> list[WeightedEdge]:
        return [WeightedEdge(int(a), int(b), float(c)) for a, b, c in zip(self.u, self.v, self.w)]


def _as_edge_arrays(edges):
    if isinstance(edges, tuple) and len(edges) == 3:
        u, v, w = edges
    else:
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        w = np.array([e[2] for e in edges], dtype=np.float64)
    return np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64), np.asarray(w, dtype=np.float64)


def _roots(parent: np.ndarray) -> np.ndarray:
    """Root of every element, by pointer jumping; parent is not modified."""
    roots = parent
    while True:
        nxt = roots[roots]
        if (nxt == roots).all():
            return roots
        roots = nxt


def _scan(parent, u, v, w, tu, tv, tw, cnt) -> int:
    """Kruskal scan of canonically sorted edges into the forest (tu, tv, tw),
    which holds cnt edges; returns the new edge count."""
    n = len(parent)
    p = parent.data  # memoryview: scalar access without numpy scalars
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
        for i, a0, b0 in zip((live + s).tolist(), cu[live].tolist(), cv[live].tolist()):
            a = a0
            while p[a] != a:
                p[a] = p[p[a]]
                a = p[a]
            b = b0
            while p[b] != b:
                p[b] = p[p[b]]
                b = p[b]
            if a == b:
                continue
            p[b] = a
            tu[cnt] = a0
            tv[cnt] = b0
            tw[cnt] = w[i]
            cnt += 1
        if cnt == n - 1:
            break
    return cnt


def kruskal(n: int, edges) -> SpanningTree:
    """Minimum spanning tree of the given weighted graph.

    Edges may be a list of (u, v, w) tuples or a (u, v, w) array triple.
    Ties resolve by the canonical (weight, min index, max index) order.
    Raises DisconnectedGraphError naming the components when the edges do
    not span all n points.

    Filter-Kruskal (Osipov, Sanders and Singler, ALENEX 2009): only the
    lightest _FILTER_EDGES_PER_POINT * n edges are sorted and scanned at a
    time; before the next batch, edges whose endpoints are already joined
    are dropped.  Every batch is a prefix of the canonical order of what
    remains, so the tree equals that of one scan over all sorted edges.
    """
    u, v, w = _as_edge_arrays(edges)
    if n == 1:
        return SpanningTree(n=1, u=u[:0], v=v[:0], w=w[:0])
    parent = np.arange(n, dtype=np.int64)
    tu = np.empty(n - 1, dtype=np.int64)
    tv = np.empty(n - 1, dtype=np.int64)
    tw = np.empty(n - 1, dtype=np.float64)
    cnt = 0
    limit = _FILTER_EDGES_PER_POINT * n
    while len(w) and cnt < n - 1:
        # index arrays, not masks: masked copies of big arrays are far slower
        if len(w) > limit and not np.isnan(thr := np.partition(w, limit - 1)[limit - 1]):
            batch = np.flatnonzero(w <= thr)
        else:  # the rest fits one batch, or only NaN weights (sorted last) are left
            batch = np.arange(len(w))
        cnt = _scan(parent, *canonical_edges(u.take(batch), v.take(batch), w.take(batch)), tu, tv, tw, cnt)
        if cnt == n - 1:
            break
        # scanned edges now join one component, so the filter drops them too
        roots = _roots(parent)
        keep = np.flatnonzero(roots.take(u) != roots.take(v))
        u, v, w = u.take(keep), v.take(keep), w.take(keep)
    if cnt < n - 1:
        roots = _roots(parent)
        comps = [np.flatnonzero(roots == r).tolist() for r in np.unique(roots)]
        raise DisconnectedGraphError(n, comps, tu[:cnt], tv[:cnt], tw[:cnt])
    # batches ascend in the canonical order, so the tree edges already do
    return SpanningTree(n=n, u=tu, v=tv, w=tw)


def connect_components(points: PointSet, forest) -> SpanningTree:
    """Complete an acyclic edge set into a spanning tree.

    While more than one component remains, the smallest component (ties by
    smallest member index) is joined to the rest through the exact
    minimum-distance cross pair, found by brute force.
    """
    n = points.n
    fu, fv, fw = _as_edge_arrays(forest)
    eu, ev, ew = list(fu), list(fv), list(fw)
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

    Prim's algorithm under kruskal's strict edge order (weight, min index,
    max index).  That order is total, so the MST is unique and Prim's tree,
    sorted canonically, is the one kruskal picks.  Memory is O(n): one
    distance row per step, never all pairs.
    """
    n = points.n
    X = points.coords
    best = np.full(n, np.inf)  # lightest edge from the tree to each vertex
    best_from = np.zeros(n, dtype=np.int64)  # its tree endpoint
    free = np.ones(n, dtype=bool)  # not yet in the tree
    closer = np.empty(n, dtype=bool)
    tie = np.empty(n, dtype=bool)
    eu = np.empty(n - 1, dtype=np.int64)
    ev = np.empty(n - 1, dtype=np.int64)
    ew = np.empty(n - 1, dtype=np.float64)
    j = 0
    for step in range(n - 1):
        free[j] = False
        best[j] = np.inf
        row = cross_distances(X[j : j + 1], X)[0]
        # edges (j, k) and (best_from[k], k) share k, so at equal weight the
        # order prefers the lower other endpoint
        np.equal(row, best, out=tie)
        np.greater(best_from, j, out=closer)
        tie &= closer
        np.less(row, best, out=closer)
        closer |= tie
        closer &= free
        np.copyto(best, row, where=closer)
        np.copyto(best_from, j, where=closer)
        j = int(np.argmin(best))
        np.equal(best, best[j], out=tie)
        if np.count_nonzero(tie) > 1:  # equal weights: least (min, max) pair
            k = np.flatnonzero(tie)
            f = best_from[k]
            j = int(k[np.lexsort((np.maximum(k, f), np.minimum(k, f)))[0]])
        eu[step] = best_from[j]
        ev[step] = j
        ew[step] = best[j]
    return SpanningTree(n, *canonical_edges(eu, ev, ew))
