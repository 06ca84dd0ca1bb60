"""Per-edge cut weights over a spanning tree, and the approximate-Kruskal
factor of a tree.

Tree edges are processed in ascending canonical order; each edge merges
the two clusters containing its endpoints, which is the tree-order
dendrogram (dendro.tree_order) that every pass here reads: node n+i is the
merge of edge i and its DFS span lists the cluster's points.  The exact
variant scans all cross pairs for the true maximum; the fast variant keeps
one representative and radius per node and over-estimates by at most 5x.
"""

import numpy as np

from .core import PointSet, edge_distances
from .dendro import _steps, tree_order
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

    Each cluster is a node of the tree-order dendrogram (dendro.tree_order)
    with a representative r_C and its radius m_C = max distance from r_C to
    a member.  The larger child C (on a tie, the one with the smaller
    representative) passes r_C on to the merge, and the members of D, its
    DFS span, are scanned against r_C.  C depends only on the sizes and
    representatives, so every scan runs in one edge_distances call.
    """
    n = points.n
    dendro = tree_order(tree)
    order, lo, hi = dendro.leaf_spans()
    size = (hi - lo).tolist()
    rep = list(range(n))  # per node: a leaf represents itself, merge n+i is appended
    c_of, d_of = [], []
    for c, d in zip(dendro.left.tolist(), dendro.right.tolist()):
        if size[d] > size[c] or (size[d] == size[c] and rep[d] < rep[c]):
            c, d = d, c
        c_of.append(c)
        d_of.append(d)
        rep.append(rep[c])
    C, D, rep = (np.array(x, dtype=np.int64) for x in (c_of, d_of, rep))
    lens = hi[D] - lo[D]
    starts = np.cumsum(lens) - lens
    rows = np.repeat(rep[C], lens)
    cols = order[np.repeat(lo[D], lens) + _steps(lens)]  # the DFS span of each D
    by_row = np.argsort(rows, kind="stable")
    scan = np.empty(len(cols))
    scan[by_row] = edge_distances(points.coords, rows[by_row], cols[by_row])
    d_rr = scan[starts + lo[rep[D]] - lo[D]]  # the scan entry at r_D
    radius = [0.0] * n
    for c, top in zip(c_of, np.maximum.reduceat(scan, starts).tolist()):
        radius.append(max(radius[c], top))
    radius = np.array(radius)
    return 5.0 * np.maximum(np.maximum(d_rr, radius[C] - d_rr), radius[D] - d_rr)


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
