"""Classic agglomerative baselines: single, complete, average and Ward.

Nearest-neighbor-chain agglomeration over a full distance matrix with
Lance-Williams updates, O(n^2) time and space.  core.distance_matrix
fills the matrix from its upper triangle, and a matrix larger than the
memory available is refused before it is allocated.  Merge heights are
sorted ascending as the dendrogram is assembled; all four rules are
reducible, so the sorted rows form a valid monotone dendrogram.

Ward heights follow the square-root convention: the matrix holds plain
distances and the update runs on their squares, so singleton merges
report the Euclidean distance itself.
"""

from dataclasses import replace

import numpy as np

from .core import PointSet, _check_matrix_fits, distance_matrix
from .dendro import Dendrogram, from_merge_rows, tree_order
from .mst import SpanningTree, exact_mst
from . import dendro as _dendro

METHODS = ("single", "complete", "average", "ward")


def single_linkage(points: PointSet) -> Dendrogram:
    """Subdominant ultrametric: exact MST with edge weights as heights.

    The MST's edges ascend in weight, so merging them by height is merging
    them in tree order: the result is the tree-order dendrogram
    (dendro.tree_order) at heights tree.w, a replace copy that shares its
    cross_stats cell.  After exact on the same points (as in compare),
    normalize and distortion reuse exact's scan, and the other way round."""
    tree = exact_mst(points)
    return replace(tree_order(tree), height=tree.w)


def _lw_update(method, d_ak, d_bk, d_ab, sa, sb, sk):
    if method == "single":
        return np.minimum(d_ak, d_bk)
    if method == "complete":
        return np.maximum(d_ak, d_bk)
    if method == "average":
        return (sa * d_ak + sb * d_bk) / (sa + sb)
    # ward, on squared distances
    tot = sa + sb + sk
    sq = ((sa + sk) * d_ak**2 + (sb + sk) * d_bk**2 - sk * d_ab**2) / tot
    return np.sqrt(np.maximum(sq, 0.0))


def _check_ward_range(points: PointSet) -> None:
    """Refuse inputs on which ward's update can overflow float64.

    A ward height between clusters A and B is the centroid distance times
    sqrt(2|A||B| / (|A| + |B|)), and that factor is at most sqrt(n).  The
    squared bounding-box diameter D2 bounds every squared distance between
    points, hence between centroids, so every squared height is at most
    n * D2.  The update sums (|A| + |K|) d_AK^2 + (|B| + |K|) d_BK^2 with
    |A| + |B| + 2|K| <= 2n, so no intermediate exceeds 2 * n^2 * D2.
    """
    n = points.n
    span = points.coords.max(axis=0) - points.coords.min(axis=0)
    diam2 = float((span * span).sum())
    limit = np.finfo(np.float64).max / (2.0 * n * n)
    if diam2 > limit:
        raise ValueError(
            f"ward linkage would overflow float64: the squared bounding-box diameter "
            f"{diam2:.3g} exceeds {limit:.3g}, the most its update takes at n = {n}; "
            f"scale the coordinates down"
        )


def agglomerate(points: PointSet, method: str) -> Dendrogram:
    """Nearest-neighbor-chain agglomeration under the given linkage rule."""
    if method not in METHODS:
        raise ValueError(f"unknown linkage method {method!r}; expected one of {METHODS}")
    n = points.n
    if n == 1:
        return from_merge_rows(1, [], [], [])
    if method == "ward":
        _check_ward_range(points)
    _check_matrix_fits(n, "linkage", "distance matrix")
    D = distance_matrix(points.coords)
    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    merges = []  # (height, slot_a, slot_b) with slots = surviving row ids
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            # the diagonal and every retired row and column hold inf, and
            # the update maps inf to inf, so D[c] needs no mask
            c = chain[-1]
            nn = int(np.argmin(D[c]))
            if len(chain) >= 2 and nn == chain[-2]:
                break
            chain.append(nn)
        b = chain.pop()
        a = chain.pop()
        if b < a:
            a, b = b, a
        h = float(D[a, b])
        merges.append((h, a, b))
        # fold cluster b into slot a
        d_ak = D[a]
        d_bk = D[b]
        new = _lw_update(method, d_ak, d_bk, h, sizes[a], sizes[b], sizes)
        D[a, :] = new
        D[:, a] = new
        D[a, a] = np.inf
        active[b] = False
        sizes[a] += sizes[b]
        D[b, :] = np.inf
        D[:, b] = np.inf

    # the slot pairs form a spanning tree of the points, in merge order;
    # build_dendrogram's stable sort by height keeps that order on ties
    h, a, b = (np.array(col) for col in zip(*merges))
    return _dendro.build_dendrogram(SpanningTree(n, a, b, h), h)
