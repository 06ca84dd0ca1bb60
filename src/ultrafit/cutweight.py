"""Per-edge cut weights over a spanning tree, and the approximate-Kruskal
factor of a tree.

Tree edges are processed in ascending canonical order; each edge merges
the two clusters containing its endpoints.  The exact variant scans all
cross pairs for the true maximum; the fast variant keeps one
representative and radius per cluster and over-estimates by at most 5x.
"""

import numpy as np

from .core import PointSet, edge_distances
from .dendro import tree_order
from .mst import SpanningTree


def exact_cut_weights(points: PointSet, tree: SpanningTree) -> np.ndarray:
    """True cut weight per tree edge: the max distance over the cross pairs
    of the two clusters the edge merges.  Quadratic; the oracle baseline.

    In the tree-order dendrogram (dendro.tree_order) node n+i is the merge
    of edge i, so its farthest cross pair is the cut weight.  That
    dendrogram's scan is kept per point set, and single linkage and
    kt_factor on the same tree read it too."""
    return tree_order(tree).cross_stats(points).dmax


def approximate_cut_weights(points: PointSet, tree: SpanningTree) -> np.ndarray:
    """5-estimate of the cut weights in near-linear distance evaluations.

    For the merge of clusters C and D the estimate is
    5 * max(d(r_C, r_D), m_C - d(r_C, r_D), m_D - d(r_C, r_D)),
    which satisfies CW(e) <= estimate <= 5 * CW(e).

    Each cluster keeps a representative r_C, the first entry of its member
    list, and its radius m_C = max distance from r_C to a member.  The
    larger cluster C (ties to the smaller root index) keeps its
    representative; the members of D are scanned against r_C.  Which
    cluster is C, its representative and the members of D depend only on
    the tree order and the cluster sizes, so they are laid out first and
    every scan of D against r_C runs in one edge_distances call.
    """
    n = points.n
    parent = list(range(n))
    size = [1] * n
    members: list[list[int] | None] = [[i] for i in range(n)]
    c_roots, d_roots, c_reps = [], [], []  # per merge
    scanned = []  # members of D, merge after merge; r_D heads each block
    for x, y in zip(tree.u.tolist(), tree.v.tolist()):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x == y:
            raise ValueError("merge of already-joined clusters")
        if size[y] > size[x] or (size[y] == size[x] and y < x):
            x, y = y, x  # x is C
        c_roots.append(x)
        d_roots.append(y)
        c_reps.append(members[x][0])  # a cluster's representative heads its member list
        scanned.extend(members[y])
        parent[y] = x
        size[x] += size[y]
        members[x].extend(members[y])
        members[y] = None
    lens = np.array([size[y] for y in d_roots], dtype=np.int64)
    rows = np.repeat(np.array(c_reps, dtype=np.int64), lens)
    cols = np.array(scanned, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    scan = np.empty(len(cols))
    scan[order] = edge_distances(points.coords, rows[order], cols[order])
    starts = np.zeros(n - 1, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    d_rr = scan[starts]
    radius = [0.0] * n
    m_c, m_d = [], []
    for c, d, top in zip(c_roots, d_roots, np.maximum.reduceat(scan, starts).tolist()):
        m_c.append(radius[c])
        m_d.append(radius[d])
        radius[c] = max(radius[c], top)
    return 5.0 * np.maximum(np.maximum(d_rr, np.array(m_c) - d_rr), np.array(m_d) - d_rr)


def kt_factor(points: PointSet, tree: SpanningTree) -> float:
    """Smallest gamma for which the tree is a gamma-approximate Kruskal tree.

    Equals the max over non-tree pairs of (heaviest edge on the tree path
    between them) / (their true distance), clamped below at 1.  Tree edges
    ascend, so at the merge of edge i that heaviest edge is edge i itself
    for every cross pair, and the max over them is w_i / (closest cross
    pair), read from the scan of the tree-order dendrogram
    (dendro.tree_order), which exact_cut_weights and single linkage on the
    same tree and points share.  The merging edge's own pair is a
    cross pair there, and gives w_i / d = 1 exactly when w_i is its cdist
    value, as in every tree this package builds; the clamp absorbs it.
    Quadratic; for tests and bound certification, not production runs.
    """
    if points.n < 2:
        return 1.0
    dmin = tree_order(tree).cross_stats(points).dmin
    return max(1.0, float((tree.w / dmin).max()))
