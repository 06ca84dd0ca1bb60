"""Rooted binary merge trees with monotone heights.

A dendrogram over n leaves stores its n-1 merges as rows in ascending
height order; row i creates internal node n+i.  Leaf heights are 0, so
LCA heights induce an ultrametric on the leaves.  Equal-height merges in
any fixed order induce the same ultrametric, so ties follow the input
edge order.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import PointSet, cross_distances
from .mst import SpanningTree

_CHUNK_ELEMS = 1 << 18  # cap on the entries of one cross-distance block
# Blocks of at least _SCREEN_MIN_ELEMS entries are screened (see
# Dendrogram.cross_stats); below that a plain cdist block is cheaper.
_SCREEN_MIN_ELEMS = 1 << 12
# Screening bounds rounding errors relative to the squared norms; outside
# this range a sum could overflow, or underflow could add absolute errors.
_SCREEN_NORMS = (2.0**-900, np.finfo(np.float64).max / 4)


class CrossStats(NamedTuple):
    """Per internal node (merge order), over the pairs it separates."""

    dmin: np.ndarray  # closest cross-pair distance
    pair: np.ndarray  # (m, 2) leaf ids of the first pair at dmin, left child's leaf first
    dmax: np.ndarray  # farthest cross-pair distance


def _blocks(a0: int, a1: int, b0: int, b1: int):
    """Rows [a0, a1) times columns [b0, b1) as blocks of at most _CHUNK_ELEMS
    entries in row-major order: row bands, or single rows cut into column
    chunks when there are more than _CHUNK_ELEMS columns."""
    cols = min(b1 - b0, _CHUNK_ELEMS)
    rows = max(1, _CHUNK_ELEMS // cols)
    for ra in range(a0, a1, rows):
        for cb in range(b0, b1, cols):
            yield ra, min(ra + rows, a1), cb, min(cb + cols, b1)


def _extremes(block: np.ndarray):
    """Closest entry (value, row, column; first in row-major order) and the farthest value."""
    r, c = divmod(int(block.argmin()), block.shape[1])
    return block[r, c], r, c, block.flat[block.argmax()]


def _screen_factors(Z: np.ndarray, na: int):
    """Factors L, R and margin E for the node whose rows Z are its left
    child's na rows followed by its right child's, or None when M (below)
    is outside _SCREEN_NORMS.

    Rows are centred on the node mean: a' = a - c.  With N = |a'|^2,
    L = [-2a', N, 1] and R = [b', 1, N], so (L @ R.T)[i, j] approximates
    the squared distance s = |a_i - b_j|^2.  Against the square of the
    cdist value D, the GEMM errs by at most (d+2) eps M, with
    M = max N over the left rows + max N over the right rows, the norms
    by d eps M / 2, the centring by 2 eps M and cdist itself by
    (d+4) eps M, so |L @ R.T - D^2| <= E = 8 (d+4) eps M holds with
    room to spare, in any summation order.
    """
    d = Z.shape[1]
    W = np.empty((len(Z), d + 2))
    Zc = np.subtract(Z, Z.mean(axis=0), out=W[:, :d])
    N = np.einsum("ij,ij->i", Zc, Zc)
    M = N[:na].max() + N[na:].max()
    if not _SCREEN_NORMS[0] <= M <= _SCREEN_NORMS[1]:  # also catches NaN and inf
        return None
    Zc[:na] *= -2.0
    W[:, d:] = 1.0
    W[:na, d] = N[:na]
    W[na:, d + 1] = N[na:]
    return W[:na], W[na:], 8 * (d + 4) * np.finfo(np.float64).eps * M


def _candidates(S: np.ndarray, E: float):
    """Rows and columns of S holding every entry whose exact value may be
    S's minimum or maximum: those within 2E of the extreme of S."""
    rmin = S.min(axis=1)
    rmax = S.max(axis=1)
    low = rmin.min() + 2 * E
    high = rmax.max() - 2 * E
    near = rmin <= low
    far = rmax >= high
    cols = (S[near] <= low).any(axis=0) | (S[far] >= high).any(axis=0)
    return np.flatnonzero(near | far), np.flatnonzero(cols)


# A run block in which more than this share of the entries are candidates
# is handed back to _merge_extremes, so candidate arrays stay small when
# distances tie (one-hot rows, say).
_TIED_SHARE = 1 / 8


def _steps(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., size - 1 for each of the given run sizes, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _tile_cap() -> int:
    """Largest tile size k whose k x k block fits in _CHUNK_ELEMS and none
    of whose merges is screened: in a subtree of at most k leaves, a
    merge's smaller child has at most k // 2 leaves and the merge at most
    (k // 2) * (k - k // 2) = floor(k^2 / 4) cross pairs, fewer than
    _SCREEN_MIN_ELEMS exactly when k^2 < 4 * _SCREEN_MIN_ELEMS."""
    return min(math.isqrt(_CHUNK_ELEMS), math.isqrt(4 * _SCREEN_MIN_ELEMS - 1))


def _block_extremes(V, rowpos, colpos, seg, merges, flip, out, screen=None, row_segments=False):
    """Closest pair and farthest distance of the merges whose cross pairs
    are row segments of one block V, written into out = (dmin, first, dmax).

    V[r, c] belongs to the leaves at DFS positions rowpos[r] and
    colpos[r] + c.  It is their cdist value when screen is None; with
    screen = (E, A, B) it is the screening GEMM's approximate square,
    within E of the square of cdist(A, B)[r, c].  seg = (row, c0, c1,
    local): segment s is V[row[s], c0[s]:c1[s]], cross pairs of merge
    merges[local[s]]; segments are disjoint and in row-major order.
    Entries outside every segment are ignored.  flip[j] says that the rows
    of merge j are its right child.  Returns whether the merges were
    reduced.

    Per merge, every entry within 2E of the merge's extreme in V is a
    candidate, so the candidates hold every entry at the exact extreme.
    With row_segments, segment r is on row r (run blocks): each row is
    scanned against its segment's bound, and when more than _TIED_SHARE of
    the block's entries meet their bound (distances that tie) nothing is
    written and False is returned.  Otherwise (tile blocks, whose
    rows hold the nested segments of many merges) only the segments whose
    own extreme is within 2E are listed.  A screened block takes the
    candidates' exact values from one cdist block over their rows and
    columns, so no array grows beyond a few times the block.  The closest
    pair is the candidate at the exact minimum that comes first in the
    merge's left x right row-major order.
    """
    dmin, first, dmax = out
    row, c0, c1, local = seg
    E = 0.0 if screen is None else screen[0]
    C = V.shape[1]
    flat = V.reshape(-1)
    start = row * C + c0
    end = row * C + c1
    bounds = np.column_stack((start, end)).ravel()
    if bounds[-1] == flat.size:
        bounds = bounds[:-1]  # reduceat reduces its last index to the end
    k = len(merges)
    found = []
    for red, cmp, sign in ((np.minimum, np.less_equal, 1.0), (np.maximum, np.greater_equal, -1.0)):
        seg_ext = red.reduceat(flat, bounds)[::2]
        bound = np.full(k, sign * np.inf)
        red.at(bound, local, seg_ext)
        bound += sign * 2 * E
        near = np.flatnonzero(cmp(seg_ext, bound[local]))  # segments that may hold it
        if row_segments:  # scan each row against its segment's bound
            thr = np.full(len(V), -sign * np.inf)
            thr[near] = bound[local[near]]
            hit = cmp(V, thr[:, None])
            if np.count_nonzero(hit) > V.size * _TIED_SHARE:
                return False
            p = np.flatnonzero(hit)
            s = p // C
            inside = (p >= start[s]) & (p < end[s])
            p, s = p[inside], s[inside]
        else:  # list the entries of the near segments
            size = end[near] - start[near]
            s = np.repeat(near, size)
            p = np.repeat(start[near], size) + _steps(size)
        keep = cmp(flat[p], bound[local[s]])
        found.append((local[s[keep]], p[keep]))
    (lo, plo), (hi, phi) = found
    p = np.concatenate((plo, phi))
    r, c = np.divmod(p, C)
    if screen is None:
        val = flat[p]
    else:  # one cdist block over the candidates' rows and columns
        _, A, B = screen
        ur, ri = np.unique(r, return_inverse=True)
        uc, ci = np.unique(c, return_inverse=True)
        val = cross_distances(A[ur], B[uc])[ri, ci]
    nlo = len(lo)
    farthest = np.full(k, -np.inf)
    np.maximum.at(farthest, hi, val[nlo:])
    dmax[merges] = farthest
    val, r, c = val[:nlo], r[:nlo], c[:nlo]
    rp, cp = rowpos[r], colpos[r] + c
    closest = np.full(k, np.inf)
    np.minimum.at(closest, lo, val)
    dmin[merges] = closest
    swap = flip[lo]
    left = np.where(swap, cp, rp)
    right = np.where(swap, rp, cp)
    tie = np.flatnonzero(val == closest[lo])
    tie = tie[np.lexsort((right[tie], left[tie], lo[tie]))]
    head = tie[np.diff(lo[tie], prepend=-1) != 0]
    first[merges[lo[head]]] = np.column_stack((left[head], right[head]))
    return True


def _merge_extremes(Y, a0, a1, b0, b1, buf):
    """Minimum, its first pair (DFS positions) and maximum over the cross
    pairs of one merge, in the blocks of _blocks; screened when the merge
    has at least _SCREEN_MIN_ELEMS cross pairs.  buf holds the GEMM
    output."""
    screen = None
    if (a1 - a0) * (b1 - b0) >= _SCREEN_MIN_ELEMS:
        screen = _screen_factors(Y[a0:b1], a1 - a0)
    near, far, at = np.inf, -np.inf, (a0, b0)
    for ra, re, cb, ce in _blocks(a0, a1, b0, b1):
        if screen is None:
            bmin, r, c, bmax = _extremes(cross_distances(Y[ra:re], Y[cb:ce]))
            r, c = ra + r, cb + c
        else:
            L, R, E = screen
            A, B = L[ra - a0 : re - a0], R[cb - b0 : ce - b0]
            out = buf[: len(A) * len(B)]
            # the longer side runs along the rows of the GEMM output,
            # where the row reductions of _candidates are fast
            if len(A) <= len(B):
                rows, cols = _candidates(np.matmul(A, B.T, out=out.reshape(len(A), len(B))), E)
            else:
                cols, rows = _candidates(np.matmul(B, A.T, out=out.reshape(len(B), len(A))), E)
            rows += ra
            cols += cb
            bmin, r, c, bmax = _extremes(cross_distances(Y[rows], Y[cols]))
            r, c = rows[r], cols[c]
        if bmin < near:
            near, at = bmin, (r, c)
        far = max(far, bmax)
    return near, at, far


def _tile_pass(Y, spans, children, out) -> np.ndarray:
    """Reduce every merge inside a tile, a maximal subtree of at most
    K = _tile_cap() leaves; returns the mask of the merges done.

    A tile's leaves are one contiguous row range.  Tiles next to each
    other in DFS order share a window of at most K rows, and one cdist
    block of a window against itself holds every cross pair of its
    merges: merge (a0, a1, b0, b1) reads rows a0..a1-1, columns
    b0..b1-1.  Windows are stacked into blocks of at most _CHUNK_ELEMS
    entries, each reduced at once by _block_extremes."""
    K = _tile_cap()
    a0, a1, b0, b1 = spans.T
    small = b1 - a0 <= K
    if K < 2 or not small.any():
        return np.zeros(len(spans), dtype=bool)
    root = small.copy()
    kids = children[small]
    root[kids[kids >= 0]] = False  # a small merge under a small merge is not a tile root
    # tiles are disjoint, so sorting starts and ends keeps them paired
    starts, ends = [], []
    for lo, hi in zip(np.sort(a0[root]).tolist(), np.sort(b1[root]).tolist()):
        if starts and hi - starts[-1] <= K:
            ends[-1] = hi
        else:
            starts.append(lo)
            ends.append(hi)
    band = _CHUNK_ELEMS // K  # rows of one stacked block
    base = []  # stacked row of each window's first leaf
    cuts = [0]  # first window of each block
    pos = 0
    for w, size in enumerate(np.subtract(ends, starts).tolist()):
        if pos + size > band:
            cuts.append(w)
            pos = 0
        base.append((len(cuts) - 1) * band + pos)
        pos += size
    cuts.append(len(starts))
    w0, w1, base = np.array(starts), np.array(ends), np.array(base)
    sizes = w1 - w0
    step = _steps(sizes)
    rowpos = np.zeros(len(cuts) * band, dtype=np.int64)
    colpos = np.zeros_like(rowpos)
    rowpos[np.repeat(base, sizes) + step] = np.repeat(w0, sizes) + step
    colpos[np.repeat(base, sizes) + step] = np.repeat(w0, sizes)
    # one segment per left-child row of each tile merge
    M = np.flatnonzero(small)
    win = np.searchsorted(w0, a0[M], side="right") - 1
    na = a1[M] - a0[M]
    srow = np.repeat(base[win] + a0[M] - w0[win], na) + _steps(na)
    sc0 = np.repeat(b0[M] - w0[win], na)
    order = np.argsort(srow * K + sc0)
    srow, sc0 = srow[order], sc0[order]
    sc1 = np.repeat(b1[M] - w0[win], na)[order]
    smerge = np.repeat(M, na)[order]
    bseg = np.searchsorted(srow, np.arange(len(cuts)) * band)
    V = np.zeros((band, K))
    for b in range(len(cuts) - 1):
        for w in range(cuts[b], cuts[b + 1]):
            r, lo, hi = int(base[w]) - b * band, int(w0[w]), int(w1[w])
            V[r : r + hi - lo, : hi - lo] = cross_distances(Y[lo:hi], Y[lo:hi])
        s, e = bseg[b], bseg[b + 1]
        merges, local = np.unique(smerge[s:e], return_inverse=True)
        rows = slice(b * band, (b + 1) * band)
        seg = (srow[s:e] - b * band, sc0[s:e], sc1[s:e], local)
        _block_extremes(V, rowpos[rows], colpos[rows], seg, merges, np.zeros(len(merges), bool), out)
    return small


def _run_pass(Y, spans, children, todo, out):
    """Reduce every merge of the mask todo along heavy paths.

    Each merge reads the rows of its smaller child (on a tie the right
    one) against the contiguous span of its larger child.  A heavy path
    follows each merge's larger child, so along a run of one path's
    merges, taken bottom-up, each larger child holds the merge below, and
    one block serves the run: its rows against the span of the top
    merge's larger child, each merge reading its rows and the columns of
    its own larger child.  Runs are cut so that a block stays within
    _CHUNK_ELEMS entries and its rows and columns within _CHUNK_ELEMS
    coordinates (which only binds in high dimension); a block of at least
    _SCREEN_MIN_ELEMS entries is screened as in Dendrogram.cross_stats.
    A merge whose own block exceeds those caps, and the merges of a block
    whose distances tie, are reduced on their own by _merge_extremes."""
    m, d = len(spans), Y.shape[1]
    dmin, first, dmax = out
    a0, a1, b0, b1 = spans.T
    add_left = a1 - a0 < b1 - b0
    s0 = np.where(add_left, a0, b0)
    s1 = np.where(add_left, a1, b1)
    g0 = np.where(add_left, b0, a0)
    g1 = np.where(add_left, b1, a1)
    sa, sg = s1 - s0, g1 - g0
    fits = (sa * sg <= _CHUNK_ELEMS) & ((sa + sg) * d <= _CHUNK_ELEMS)
    run = todo & fits
    grow = np.where(add_left, children[:, 1], children[:, 0])
    bottom = np.where((grow >= 0) & run[grow], grow, np.arange(m))
    while True:  # pointer jumping to each run's first merge
        nxt = bottom[bottom]
        if (nxt == bottom).all():
            break
        bottom = nxt
    M = np.flatnonzero(run)
    M = M[np.lexsort((M, bottom[M]))]
    add = sa[M].tolist()
    width = sg[M].tolist()
    head = bottom[M].tolist()
    cuts = []
    rows = 0
    for j in range(len(M)):
        if (
            not cuts
            or head[j] != head[j - 1]
            or (rows + add[j]) * width[j] > _CHUNK_ELEMS
            or (rows + add[j] + width[j]) * d > _CHUNK_ELEMS
        ):
            cuts.append(j)
            rows = 0
        rows += add[j]
    cuts.append(len(M))
    alone = np.flatnonzero(todo & ~fits).tolist()
    buf = np.empty(_CHUNK_ELEMS)
    for j, k in zip(cuts[:-1], cuts[1:]):
        merges = M[j:k]
        sz = s1[merges] - s0[merges]
        R = int(sz.sum())
        lo, hi = int(g0[merges[-1]]), int(g1[merges[-1]])
        rowpos = np.repeat(s0[merges], sz) + _steps(sz)
        seg = (
            np.arange(R),
            np.repeat(g0[merges] - lo, sz),
            np.repeat(g1[merges] - lo, sz),
            np.repeat(np.arange(len(merges)), sz),
        )
        A, B = Y[rowpos], Y[lo:hi]
        factors = None
        if R * (hi - lo) >= _SCREEN_MIN_ELEMS:
            factors = _screen_factors(np.concatenate((A, B)), R)
        if factors is None:
            V, screen = cross_distances(A, B), None
        else:
            L, Rt, E = factors
            V, screen = np.matmul(L, Rt.T, out=buf[: R * (hi - lo)].reshape(R, hi - lo)), (E, A, B)
        if not _block_extremes(V, rowpos, np.full(R, lo), seg, merges, ~add_left[merges], out, screen, True):
            alone += merges.tolist()  # tied: the candidates would fill the block
    for i in alone:
        dmin[i], first[i], dmax[i] = _merge_extremes(Y, *spans[i].tolist(), buf)


@dataclass
class Dendrogram:
    n: int
    left: np.ndarray
    right: np.ndarray
    height: np.ndarray
    size: np.ndarray
    leaf_labels: np.ndarray
    _spans: tuple | None = field(default=None, repr=False, compare=False)
    _cross: tuple | None = field(default=None, repr=False, compare=False)  # (points, CrossStats)

    @property
    def root(self) -> int:
        return self.n - 1 + len(self.height) if self.n > 1 else 0

    # -- traversal ---------------------------------------------------------

    def leaf_spans(self):
        """DFS leaf order plus the contiguous span [lo, hi) of every node.

        Parents come after their children in merge order, so one pass in
        reverse merge order starts each left child where its parent starts
        and each right child after the left child's leaves."""
        if self._spans is None:
            n = self.n
            size = [1] * n + self.size.tolist()
            lo = [0] * (2 * n - 1)
            for node, l, r in zip(range(2 * n - 2, n - 1, -1), self.left.tolist()[::-1], self.right.tolist()[::-1]):
                lo[l] = lo[node]
                lo[r] = lo[node] + size[l]
            lo = np.array(lo, dtype=np.int64)
            hi = lo + np.array(size, dtype=np.int64)
            order = np.empty(n, dtype=np.int64)
            order[lo[:n]] = np.arange(n)
            object.__setattr__(self, "_spans", (order, lo, hi))
        return self._spans

    def _dfs_layout(self, points: PointSet):
        """Coordinates in DFS leaf order, so both children of a node are
        contiguous row slices, and per merge its spans (a0, a1, b0, b1) as
        an (m, 4) array: left child rows [a0, a1), right child rows
        [b0, b1), b0 == a1."""
        if points.n != self.n:
            raise ValueError("dendrogram and point set sizes differ")
        order, lo, hi = self.leaf_spans()
        spans = np.column_stack((lo[self.left], hi[self.left], lo[self.right], hi[self.right]))
        return points.coords[order], spans

    def cross_stats(self, points: PointSet) -> CrossStats:
        """Closest pair and farthest distance over each merge's cross pairs.

        Every reported distance is a cdist value, and the closest pair is
        the first one at the minimum in the merge's left x right row-major
        order.  In the DFS leaf layout every subtree is a contiguous row
        range, so most merges share a distance block with others:

        - tiles (_tile_pass): a maximal subtree of at most _tile_cap()
          leaves gets one cdist block over its rows, from which all of its
          merges are read;
        - heavy-path runs (_run_pass): every other merge reads its smaller
          child's rows against its larger child's span, and consecutive
          merges of one heavy path share a block.  The smaller child may
          be either child, so each merge keeps its own left x right order;
        - a merge too large for one block is reduced on its own, in the
          blocks of _blocks (_merge_extremes).

        A block of at least _SCREEN_MIN_ELEMS entries is screened: one
        GEMM ranks its entries by approximate squared distance
        (_screen_factors), and cdist recomputes only the rows and columns
        holding entries within 2E of a merge's approximate minimum or
        maximum, which contain every entry at the exact extremes, so the
        result equals a full scan's.  No cdist or GEMM block has more than
        _CHUNK_ELEMS entries.  The result depends only on topology and
        points, so it is memoized per PointSet object.
        """
        if self._cross is not None and self._cross[0] is points:
            return self._cross[1]
        Y, spans = self._dfs_layout(points)
        m = len(spans)
        dmin = np.empty(m)
        dmax = np.empty(m)
        first = np.empty((m, 2), dtype=np.int64)  # DFS positions of the closest pair
        out = (dmin, first, dmax)
        children = np.column_stack((self.left, self.right)) - self.n  # merge rows; < 0 for leaves
        children[children < 0] = -1
        _run_pass(Y, spans, children, ~_tile_pass(Y, spans, children, out), out)
        order = self.leaf_spans()[0]
        stats = CrossStats(dmin, order[first], dmax)
        object.__setattr__(self, "_cross", (points, stats))
        return stats

    def inv_sums(self, points: PointSet) -> np.ndarray:
        """Per merge, the sum of 1 / distance over its cross pairs (inf if
        one is 0): every pair once, through the cdist blocks of _blocks.
        Only the mean distortion needs it, so it is computed on demand."""
        Y, spans = self._dfs_layout(points)
        out = np.empty(len(spans))
        with np.errstate(divide="ignore"):
            for i, (a0, a1, b0, b1) in enumerate(spans.tolist()):
                inv = 0.0
                for ra, re, cb, ce in _blocks(a0, a1, b0, b1):
                    block = cross_distances(Y[ra:re], Y[cb:ce])
                    inv += np.reciprocal(block, out=block).sum()
                out[i] = inv
        return out

    # -- LCA heights -------------------------------------------------------

    def ultra_distance(self, u: int, v: int) -> float:
        """Height of the least common ancestor of leaves u and v: the first
        merge row whose leaf span holds both leaves.  Rows ascend, so every
        other row holding both is an ancestor of that one.  O(n) per query."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"leaf id out of range: ({u}, {v}) with n={n}")
        if u == v:
            return 0.0
        _, lo, hi = self.leaf_spans()
        a, b = sorted((int(lo[u]), int(lo[v])))
        row = int(np.argmax((lo[n:] <= a) & (b < hi[n:])))
        return float(self.height[row])

    def ultrametric_matrix(self) -> np.ndarray:
        """Dense n x n matrix of LCA heights. Quadratic memory; small n only."""
        n = self.n
        order, lo, hi = self.leaf_spans()
        out = np.zeros((n, n))
        for i in range(len(self.height)):
            l, r = int(self.left[i]), int(self.right[i])
            a = order[lo[l] : hi[l]]
            b = order[lo[r] : hi[r]]
            out[np.ix_(a, b)] = self.height[i]
            out[np.ix_(b, a)] = self.height[i]
        return out


def from_merge_rows(n: int, left, right, height, leaf_labels=None) -> Dendrogram:
    """Construct a dendrogram from merge rows already sorted by height.

    Row i joins dendrogram nodes left[i] and right[i] (leaves 0..n-1,
    internals n..) into node n+i at height[i].
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    height = np.asarray(height, dtype=np.float64)
    if not (len(left) == len(right) == len(height) == n - 1):
        raise ValueError(f"need {n - 1} merge rows for {n} leaves, got {len(left)}")
    if len(height) and (np.diff(height) < 0).any():
        raise ValueError("non-monotone heights: merge rows must ascend in height")
    if len(height) and height.min() < 0:
        raise ValueError("negative merge height")
    size = [1] * (2 * n - 1)
    used = [False] * (2 * n - 1)
    for i, (l, r) in enumerate(zip(left.tolist(), right.tolist())):
        node = n + i
        for c in (l, r):
            if not 0 <= c < node:
                raise ValueError(f"row {i}: child id {c} out of range")
            if used[c]:
                raise ValueError(f"row {i}: child id {c} used twice")
            used[c] = True
        size[node] = size[l] + size[r]
    if leaf_labels is None:
        leaf_labels = np.arange(n, dtype=np.int64)
    return Dendrogram(
        n=n, left=left, right=right, height=height,
        size=np.array(size[n:], dtype=np.int64), leaf_labels=np.asarray(leaf_labels),
    )


def build_dendrogram(tree: SpanningTree, heights) -> Dendrogram:
    """Cartesian-tree dendrogram of a spanning tree with per-edge heights.

    Edges merge bottom-up in ascending height order (ties follow the
    tree's canonical edge order), which reproduces the recursive
    max-edge-split construction.
    """
    heights = np.asarray(heights, dtype=np.float64)
    n = tree.n
    if len(heights) != n - 1:
        raise ValueError(f"heights misaligned: {len(heights)} values for {n - 1} edges")
    order = np.argsort(heights, kind="stable")
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    left = []
    right = []
    for node, (x, y) in enumerate(zip(tree.u[order].tolist(), tree.v[order].tolist()), start=n):
        a = find(x)
        b = find(y)
        left.append(a)
        right.append(b)
        parent[a] = node
        parent[b] = node
    hout = heights[order]
    return from_merge_rows(n, left, right, hout)


def normalize(dendro: Dendrogram, points: PointSet) -> tuple[Dendrogram, float]:
    """Scale all heights by the smallest factor making the ultrametric
    dominate the input metric; returns the scaled dendrogram and the factor.

    The factor is max over pairs of distance / LCA height, rounded up by
    the ulps it takes for every scaled height to reach its node's farthest
    cross pair, so afterwards min over pairs of height / distance is 1
    exactly.  Topology is unchanged, so the scaled dendrogram shares the
    leaf spans and cross-pair statistics of the input.
    """
    if dendro.n != points.n:
        raise ValueError("dendrogram and point set sizes differ")
    if dendro.n == 1:
        return dendro, 1.0
    if dendro.height.min() <= 0:
        raise ValueError("cannot normalize: zero merge height for distinct points (dedupe first)")
    dmax = dendro.cross_stats(points).dmax
    scale = float((dmax / dendro.height).max())
    # height * (dmax / height) can round an ulp or two below dmax
    while (dendro.height * scale < dmax).any():
        scale = float(np.nextafter(scale, np.inf))
    return replace(dendro, height=dendro.height * scale), scale


def expand_duplicates(dendro: Dendrogram, groups: dict[int, list[int]]) -> Dendrogram:
    """Re-expand collapsed duplicates as zero-height merges at the bottom.

    groups maps each dendrogram leaf to the original indices it represents
    (as produced by core.dedupe).  The result is a dendrogram over the
    original points whose labels are the original indices.
    """
    n = dendro.n
    if sorted(groups) != list(range(n)):
        raise ValueError("groups must cover every dendrogram leaf")
    originals = sorted(x for g in groups.values() for x in g)
    total = len(originals)
    if originals != list(range(total)):
        raise ValueError("groups must partition 0..N-1 of the original points")
    if total == n:
        relabel = np.array([groups[i][0] for i in range(n)])
        return from_merge_rows(n, dendro.left, dendro.right, dendro.height, relabel)

    left, right, height = [], [], []
    node_of = {}  # dendrogram leaf -> current expanded node id
    next_node = total
    for i in range(n):
        g = sorted(groups[i])
        cur = g[0]
        for dup in g[1:]:
            left.append(cur)
            right.append(dup)
            height.append(0.0)
            cur = next_node
            next_node += 1
        node_of[i] = cur
    offset = next_node - n  # old internal ids shift by this much
    for i in range(n - 1):
        l, r = int(dendro.left[i]), int(dendro.right[i])
        left.append(node_of[l] if l < n else l + offset)
        right.append(node_of[r] if r < n else r + offset)
        height.append(float(dendro.height[i]))
    return from_merge_rows(total, left, right, height)


def contract_duplicates(dendro: Dendrogram, groups: dict[int, list[int]]) -> Dendrogram:
    """Restrict a dendrogram to one representative leaf per duplicate group.

    Inverse of expand_duplicates: merges internal to a group vanish, every
    other merge keeps its height.  groups maps each surviving point to the
    original leaf indices it represents.
    """
    n_old = dendro.n
    n_new = len(groups)
    new_of_leaf = np.full(n_old, -1, dtype=np.int64)
    for ni, members in groups.items():
        for x in members:
            new_of_leaf[x] = ni
    if (new_of_leaf < 0).any():
        raise ValueError("groups must cover every leaf")
    if n_new == n_old:
        return from_merge_rows(n_old, dendro.left, dendro.right, dendro.height)
    mapped = np.concatenate([new_of_leaf, np.full(n_old - 1, -1, dtype=np.int64)])
    left, right, height = [], [], []
    next_new = n_new
    for i in range(n_old - 1):
        l, r = int(dendro.left[i]), int(dendro.right[i])
        nl, nr = int(mapped[l]), int(mapped[r])
        if nl == nr:  # both sides are copies of the same surviving point
            mapped[n_old + i] = nl
        else:
            left.append(nl)
            right.append(nr)
            height.append(float(dendro.height[i]))
            mapped[n_old + i] = next_new
            next_new += 1
    return from_merge_rows(n_new, left, right, height)


# -- serialization ----------------------------------------------------------


def to_merge_rows(dendro: Dendrogram) -> list[tuple[int, int, float, int]]:
    """(left, right, height, size) per merge, ascending heights."""
    return [
        (int(l), int(r), float(h), int(s))
        for l, r, h, s in zip(dendro.left, dendro.right, dendro.height, dendro.size)
    ]


def format_merge_list(dendro: Dendrogram) -> str:
    lines = [f"{l} {r} {h!r} {s}" for l, r, h, s in to_merge_rows(dendro)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_merge_list(text: str, n_leaves: int | None = None) -> Dendrogram:
    """Parse the 4-column merge-list format back into a Dendrogram.

    Validates column count, id ranges, single-use children and ascending
    heights; raises ValueError with a row-numbered message otherwise.
    """
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"merge list row {ln}: expected 4 columns, got {len(parts)}")
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])))
        except ValueError as exc:
            raise ValueError(f"merge list row {ln}: {exc}") from None
        if not np.isfinite(rows[-1][2]) or rows[-1][2] < 0:
            raise ValueError(f"merge list row {ln}: invalid height {parts[2]}")
    n = len(rows) + 1
    if n_leaves is not None and n != n_leaves:
        raise ValueError(f"merge list has {len(rows)} rows implying {n} leaves, expected {n_leaves}")
    if n == 1:
        return from_merge_rows(1, [], [], [])
    heights = [r[2] for r in rows]
    if any(b < a for a, b in zip(heights, heights[1:])):
        raise ValueError("merge list heights are non-monotone: rows must ascend in height")
    dendro = from_merge_rows(n, [r[0] for r in rows], [r[1] for r in rows], heights)
    expect = np.array([r[3] for r in rows])
    if (expect != dendro.size).any():
        bad = int(np.flatnonzero(expect != dendro.size)[0])
        raise ValueError(f"merge list row {bad + 1}: size column inconsistent with structure")
    return dendro


def _fmt_branch(x: float) -> str:
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


def to_newick(dendro: Dendrogram, labels=None) -> str:
    """Newick text; branch length = parent height - child height."""
    n = dendro.n
    if labels is None:
        labels = [str(int(x)) for x in dendro.leaf_labels]
    if len(labels) != n:
        raise ValueError(f"need {n} labels, got {len(labels)}")
    if n == 1:
        return f"{labels[0]};"
    rendered: list[str] = [str(x) for x in labels]
    node_h = np.concatenate([np.zeros(n), dendro.height])
    for i in range(n - 1):
        l, r = int(dendro.left[i]), int(dendro.right[i])
        h = dendro.height[i]
        bl = _fmt_branch(h - node_h[l])
        br = _fmt_branch(h - node_h[r])
        rendered.append(f"({rendered[l]}:{bl},{rendered[r]}:{br})")
    return rendered[dendro.root] + ";"
