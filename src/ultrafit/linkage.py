"""Classic agglomerative baselines: single, complete, average and Ward.

Nearest-neighbor-chain agglomeration over a full distance matrix with
Lance-Williams updates, O(n^2) time and space.  Merge heights are sorted
ascending as the dendrogram is assembled; all four rules are reducible,
so the sorted rows form a valid monotone dendrogram.

Ward heights follow the square-root convention: the matrix holds plain
distances and the update runs on their squares, so singleton merges
report the Euclidean distance itself.
"""

import numpy as np

from .core import PointSet, cross_distances
from .dendro import Dendrogram, from_merge_rows
from .mst import SpanningTree, exact_mst
from . import dendro as _dendro

METHODS = ("single", "complete", "average", "ward")


def single_linkage(points: PointSet) -> Dendrogram:
    """Subdominant ultrametric: exact MST with edge weights as heights."""
    tree = exact_mst(points)
    return _dendro.build_dendrogram(tree, tree.w)


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


def agglomerate(points: PointSet, method: str) -> Dendrogram:
    """Nearest-neighbor-chain agglomeration under the given linkage rule."""
    if method not in METHODS:
        raise ValueError(f"unknown linkage method {method!r}; expected one of {METHODS}")
    n = points.n
    if n == 1:
        return from_merge_rows(1, [], [], [])
    D = cross_distances(points.coords, points.coords)
    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    merges = []  # (height, slot_a, slot_b) with slots = surviving row ids
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            c = chain[-1]
            row = np.where(active, D[c], np.inf)
            row[c] = np.inf
            nn = int(np.argmin(row))
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
