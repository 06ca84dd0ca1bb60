"""Rooted binary merge trees with monotone heights.

A dendrogram over n leaves stores its n-1 merges as rows in ascending
height order; row i creates internal node n+i.  Leaf heights are 0, so
LCA heights induce an ultrametric on the leaves.  Equal-height merges in
any fixed order induce the same ultrametric, so ties follow the input
edge order.
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import PointSet, cross_distances, fork_map, worker_limit
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


def _screen_factors(Y: np.ndarray) -> np.ndarray:
    """Column factors F = [y', 1, N] of every row of Y, centred once on
    the mean c of all rows: y' = y - c and N = |y'|^2.  A screened block
    takes its columns' factors as a slice of F and builds its rows'
    (_row_factors)."""
    d = Y.shape[1]
    F = np.empty((len(Y), d + 2))
    Yc = np.subtract(Y, Y.mean(axis=0), out=F[:, :d])
    F[:, d] = 1.0
    F[:, d + 1] = np.einsum("ij,ij->i", Yc, Yc)
    return F


def _row_factors(F: np.ndarray, rows: np.ndarray, c0: int, c1: int):
    """Row factors L and margin E for rows `rows` of F against its columns
    [c0, c1), or None when M (below) is outside _SCREEN_NORMS.

    L = [-2a', N, 1] and R = F[c0:c1] = [b', 1, N], so (L @ R.T)[i, j]
    approximates the squared distance s = |a_i - b_j|^2.  Against the
    square of the cdist value D, the GEMM errs by at most (d+2) eps M,
    with M = max N over the rows + max N over the columns, the norms by
    d eps M / 2, the centring by 2 eps M and cdist itself by (d+4) eps M,
    so |L @ R.T - D^2| <= E = 8 (d+4) eps M holds with room to spare, in
    any summation order.  Every term is bounded through the norms of the
    centred rows alone, so the bound holds for any centre c, the one
    shared by the whole tree included, as long as M is taken from the
    norms after that centring.
    """
    d = F.shape[1] - 2
    M = F[rows, d + 1].max() + F[c0:c1, d + 1].max()
    if not _SCREEN_NORMS[0] <= M <= _SCREEN_NORMS[1]:  # also catches NaN and inf
        return None
    L = F[rows]
    L[:, :d] *= -2.0
    L[:, d] = L[:, d + 1]
    L[:, d + 1] = 1.0
    return L, 8 * (d + 4) * np.finfo(np.float64).eps * M


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
# cross pairs outside the tiles from which cross_stats runs its units on
# core.fork_map's workers (all cross pairs, for inv_sums).  On 2 cores
# (medians of 7 alternated calls on approx and average trees) pooled and
# serial calls broke even near 7.9M such pairs (4000 points) at d = 16 and
# 2M-4.4M (2000-3000 points) at d = 77; the pool took 0.65-0.82 of the
# serial time from 17.9M pairs at either d, and 1.5-2.3x at 0.45M.  A
# pooled inv_sums broke even near 2M-4.5M pairs at d = 16 and below 2M at
# d = 77, so this constant is conservative for it
_POOL_MIN_PAIRS = 1 << 23
# _blocks row bands per unit of a merge too large for one block
_PART_BLOCKS = 8
# runs of whole merges that a pooled inv_sums is cut into; 4, 8, 16 and 32
# read within noise of each other at 2000-8000 points
_INV_UNITS = 16


def _workers(pairs) -> int:
    """Processes for a pass over this many cross pairs: one below the
    crossover, else as many as core.worker_limit allows."""
    return worker_limit() if pairs >= _POOL_MIN_PAIRS else 1


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


def _merge_extremes(Y, F, a0, a1, b0, b1, buf):
    """Minimum, its first pair (DFS positions) and maximum over the cross
    pairs of one merge, in the blocks of _blocks; screened, from the
    factors F = _screen_factors(Y), when the merge has at least
    _SCREEN_MIN_ELEMS cross pairs.  buf holds the GEMM output."""
    screened = (a1 - a0) * (b1 - b0) >= _SCREEN_MIN_ELEMS
    near, far, at = np.inf, -np.inf, (a0, b0)
    for ra, re, cb, ce in _blocks(a0, a1, b0, b1):
        screen = _row_factors(F, np.arange(ra, re), cb, ce) if screened else None
        if screen is None:
            bmin, r, c, bmax = _extremes(cross_distances(Y[ra:re], Y[cb:ce]))
            r, c = ra + r, cb + c
        else:
            L, E = screen
            R = F[cb:ce]
            out = buf[: len(L) * len(R)]
            # the longer side runs along the rows of the GEMM output,
            # where the row reductions of _candidates are fast
            if len(L) <= len(R):
                rows, cols = _candidates(np.matmul(L, R.T, out=out.reshape(len(L), len(R))), E)
            else:
                cols, rows = _candidates(np.matmul(R, L.T, out=out.reshape(len(R), len(L))), E)
            rows += ra
            cols += cb
            bmin, r, c, bmax = _extremes(cross_distances(Y[rows], Y[cols]))
            r, c = rows[r], cols[c]
        if bmin < near:
            near, at = bmin, (r, c)
        far = max(far, bmax)
    return near, at, far


def _tile_pass(Y, spans, children, small, out, buf):
    """Reduce every merge of the mask small, the merges inside a tile, a
    maximal subtree of at most K = _tile_cap() leaves, and return
    (merges, dmin, first, dmax) of them, as a unit of _run_units does.

    A tile's leaves are one contiguous row range.  Tiles next to each
    other in DFS order share a window of at most K rows, and one cdist
    block of a window against itself holds every cross pair of its
    merges: merge (a0, a1, b0, b1) reads rows a0..a1-1, columns
    b0..b1-1.  Windows are stacked into blocks of at most _CHUNK_ELEMS
    entries, each reduced at once by _block_extremes, in buf."""
    K = _tile_cap()
    a0, a1, b0, b1 = spans.T
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
    V = buf[: band * K].reshape(band, K)
    V.fill(0.0)
    for b in range(len(cuts) - 1):
        for w in range(cuts[b], cuts[b + 1]):
            r, lo, hi = int(base[w]) - b * band, int(w0[w]), int(w1[w])
            V[r : r + hi - lo, : hi - lo] = cross_distances(Y[lo:hi], Y[lo:hi])
        s, e = bseg[b], bseg[b + 1]
        merges, local = np.unique(smerge[s:e], return_inverse=True)
        rows = slice(b * band, (b + 1) * band)
        seg = (srow[s:e] - b * band, sc0[s:e], sc1[s:e], local)
        _block_extremes(V, rowpos[rows], colpos[rows], seg, merges, np.zeros(len(merges), bool), out)
    dmin, first, dmax = out
    return M, dmin[M], first[M], dmax[M]


def _run_units(Y, F, spans, children, todo, out, buf):
    """Units that reduce every merge of the mask todo along heavy paths.

    Each merge reads the rows of its smaller child (on a tie the right
    one) against the contiguous span of its larger child.  A heavy path
    follows each merge's larger child, so along a run of one path's
    merges, taken bottom-up, each larger child holds the merge below, and
    one block serves the run: its rows against the span of the top
    merge's larger child, each merge reading its rows and the columns of
    its own larger child.  Runs are cut so that a block stays within
    _CHUNK_ELEMS entries and its gathered rows within _CHUNK_ELEMS
    coordinates (which only binds in high dimension); its columns are
    views of Y and F.  A block of at least _SCREEN_MIN_ELEMS entries is
    screened from the factors F = _screen_factors(Y), as in
    Dendrogram.cross_stats.  A merge whose own block exceeds those caps,
    and the merges of a block whose distances tie, are reduced on their
    own by _merge_extremes.

    A unit is a callable returning (merges, dmin, first, dmax) for the
    merges it reduced; each run block is one (_run_unit, which writes
    into out first).  A merge too large for one block is one unit per
    _PART_BLOCKS row bands of its _blocks, whose partial results the
    caller folds in order."""
    m, d = len(spans), Y.shape[1]
    a0, a1, b0, b1 = spans.T
    add_left = a1 - a0 < b1 - b0
    s0 = np.where(add_left, a0, b0)
    s1 = np.where(add_left, a1, b1)
    g0 = np.where(add_left, b0, a0)
    g1 = np.where(add_left, b1, a1)
    sa, sg = s1 - s0, g1 - g0
    fits = (sa * sg <= _CHUNK_ELEMS) & (sa * d <= _CHUNK_ELEMS)
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
            or (rows + add[j]) * d > _CHUNK_ELEMS
        ):
            cuts.append(j)
            rows = 0
        rows += add[j]
    cuts.append(len(M))
    layout = (s0, s1, g0, g1, add_left)
    units = [partial(_run_unit, Y, F, spans, layout, M[j:k], out, buf) for j, k in zip(cuts[:-1], cuts[1:])]
    alone = np.flatnonzero(todo & ~fits)
    for i, (r0, r1, c0, c1) in zip(alone.tolist(), spans[alone].tolist()):
        step = _PART_BLOCKS * max(1, _CHUNK_ELEMS // min(c1 - c0, _CHUNK_ELEMS))
        units += [partial(_merge_part, Y, F, i, ra, min(ra + step, r1), c0, c1, buf) for ra in range(r0, r1, step)]
    return units


def _run_unit(Y, F, spans, layout, merges, out, buf):
    """One run block's unit of _run_units: its merges, reduced on their
    own when the block's distances tie, which is done once the block is
    freed."""
    if not _run_block(Y, F, layout, merges, out, buf):
        dmin, first, dmax = out
        for i in merges.tolist():  # tied: the candidates would fill the block
            dmin[i], first[i], dmax[i] = _merge_extremes(Y, F, *spans[i].tolist(), buf)
    return merges, out[0][merges], out[1][merges], out[2][merges]


def _run_block(Y, F, layout, merges, out, buf) -> bool:
    """Reduce the merges of one run block into out; returns whether they
    were reduced (_block_extremes)."""
    s0, s1, g0, g1, add_left = layout
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
        factors = _row_factors(F, rowpos, lo, hi)
    if factors is None:
        V, screen = cross_distances(A, B), None
    else:
        L, E = factors
        V, screen = np.matmul(L, F[lo:hi].T, out=buf[: R * (hi - lo)].reshape(R, hi - lo)), (E, A, B)
    return _block_extremes(V, rowpos, np.full(R, lo), seg, merges, ~add_left[merges], out, screen, True)


def _merge_part(Y, F, i, a0, a1, b0, b1, buf):
    """The extremes of merge i over its rows [a0, a1) only, as a unit's result."""
    near, at, far = _merge_extremes(Y, F, a0, a1, b0, b1, buf)
    return np.array([i]), np.array([near]), np.array([at], dtype=np.int64), np.array([far])


def _inv_part(Y, spans):
    """Per merge of spans, the sum of 1 / distance over its cross pairs,
    through the cdist blocks of _blocks in order."""
    out = np.empty(len(spans))
    with np.errstate(divide="ignore"):
        for i, (a0, a1, b0, b1) in enumerate(spans.tolist()):
            inv = 0.0
            for ra, re, cb, ce in _blocks(a0, a1, b0, b1):
                block = cross_distances(Y[ra:re], Y[cb:ce])
                inv += np.reciprocal(block, out=block).sum()
            out[i] = inv
    return out


@dataclass
class Dendrogram:
    n: int
    left: np.ndarray
    right: np.ndarray
    height: np.ndarray
    size: np.ndarray
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
        - heavy-path runs (_run_units, _run_block): every other merge reads its smaller
          child's rows against its larger child's span, and consecutive
          merges of one heavy path share a block.  The smaller child may
          be either child, so each merge keeps its own left x right order;
        - a merge too large for one block is reduced on its own, in the
          blocks of _blocks (_merge_extremes), _PART_BLOCKS row bands of
          them at a time; the parts are folded in row order with a strict
          <, so the first pair at the minimum still wins.

        A block of at least _SCREEN_MIN_ELEMS entries is screened: one
        GEMM ranks its entries by approximate squared distance, from
        factors centred once per call (_screen_factors), and cdist
        recomputes only the rows and columns holding entries within 2E of
        a merge's approximate minimum or maximum, which contain every
        entry at the exact extremes, so the result equals a full scan's.
        No cdist or GEMM block has more than _CHUNK_ELEMS entries.  The
        result depends only on topology and points, so it is memoized per
        PointSet object.

        When the cross pairs outside the tiles reach _POOL_MIN_PAIRS, the
        units (the tile pass, each run block and each part of a merge too
        large for one block) run on core.fork_map's workers, which inherit the points and factors at fork; the parent
        folds their results in unit order, so the output is bitwise that
        of the serial pass.
        """
        if self._cross is not None and self._cross[0] is points:
            return self._cross[1]
        Y, spans = self._dfs_layout(points)
        m = len(spans)
        children = np.column_stack((self.left, self.right)) - self.n  # merge rows; < 0 for leaves
        children[children < 0] = -1
        a0, a1, b0, b1 = spans.T
        small = b1 - a0 <= _tile_cap()
        workers = _workers(((a1 - a0) * (b1 - b0))[~small].sum())
        # each process, the parent when serial, runs its units in its own
        # scratch and buffer
        scratch = (np.empty(m), np.empty((m, 2), dtype=np.int64), np.empty(m))
        buf = np.empty(_CHUNK_ELEMS)
        units = _run_units(Y, _screen_factors(Y), spans, children, ~small, scratch, buf)
        if small.any():
            units.insert(0, partial(_tile_pass, Y, spans, children, small, scratch, buf))
        dmin = np.full(m, np.inf)
        dmax = np.full(m, -np.inf)
        first = np.empty((m, 2), dtype=np.int64)  # DFS positions of the closest pair
        with fork_map(lambda u: units[u](), range(len(units)), workers, label="block") as results:
            # a merge in parts gets them in row order, so the strict < keeps
            # its first pair at the minimum; any other merge is in one unit
            for merges, near, at, far in results:
                closer = near < dmin[merges]
                dmin[merges[closer]] = near[closer]
                first[merges[closer]] = at[closer]
                dmax[merges] = np.maximum(dmax[merges], far)
        order = self.leaf_spans()[0]
        stats = CrossStats(dmin, order[first], dmax)
        object.__setattr__(self, "_cross", (points, stats))
        return stats

    def inv_sums(self, points: PointSet) -> np.ndarray:
        """Per merge, the sum of 1 / distance over its cross pairs (inf if
        one is 0): every pair once, through the cdist blocks of _blocks.
        Only the mean distortion needs it, so it is computed on demand.
        Past the crossover of cross_stats, runs of whole merges, cut at
        about equal pair counts, are the units of core.fork_map, so each
        merge sums its blocks in the same order as a serial scan."""
        Y, spans = self._dfs_layout(points)
        pairs = np.cumsum((spans[:, 1] - spans[:, 0]) * (spans[:, 3] - spans[:, 2]))
        workers = _workers(pairs[-1] if len(pairs) else 0)
        cuts = [0, len(spans)]
        if workers > 1:
            cuts[1:1] = np.unique(np.searchsorted(pairs, pairs[-1] * np.arange(1, _INV_UNITS) / _INV_UNITS)).tolist()
        # the last merges, the root's among them, hold the most pairs: they go first
        ids = range(len(cuts) - 2, -1, -1)
        with fork_map(lambda u: _inv_part(Y, spans[cuts[u] : cuts[u + 1]]), ids, workers, label="merge run") as sums:
            return np.concatenate(list(sums)[::-1])

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


def from_merge_rows(n: int, left, right, height) -> Dendrogram:
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
    return Dendrogram(n=n, left=left, right=right, height=height, size=np.array(size[n:], dtype=np.int64))


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
    original points, whose leaf ids are the original indices: the cartesian
    tree of a spanning tree that joins each group's first index to its other
    indices at height 0, then each merge's children through the first index
    of their first DFS leaves at the merge's height.
    """
    n = dendro.n
    if sorted(groups) != list(range(n)):
        raise ValueError("groups must cover every dendrogram leaf")
    members = [sorted(groups[i]) for i in range(n)]
    heads = np.array([g[0] for g in members], dtype=np.int64)
    copies = np.array([x for g in members for x in g[1:]], dtype=np.int64)
    total = n + len(copies)
    if sorted(np.concatenate((heads, copies)).tolist()) != list(range(total)):
        raise ValueError("groups must partition 0..N-1 of the original points")
    order, lo, _ = dendro.leaf_spans()
    u = np.concatenate((np.repeat(heads, [len(g) - 1 for g in members]), heads[order[lo[dendro.left]]]))
    v = np.concatenate((copies, heads[order[lo[dendro.right]]]))
    heights = np.concatenate((np.zeros(len(copies)), dendro.height))
    return build_dendrogram(SpanningTree(total, u, v, heights), heights)


def contract_duplicates(dendro: Dendrogram, groups: dict[int, list[int]]) -> Dendrogram:
    """Restrict a dendrogram to one representative leaf per duplicate group.

    Inverse of expand_duplicates: merges internal to a group vanish, every
    other merge keeps its height.  groups maps each surviving point to the
    original leaf indices it represents.  The kept merges are those whose
    DFS span holds two or more groups; each joins the groups of its
    children's first DFS leaves.  Raises ValueError when the copies of a
    point do not form one subtree.
    """
    n = dendro.n
    group = np.full(n, -1, dtype=np.int64)
    for ni, members in groups.items():
        group[members] = ni
    if (group < 0).any():
        raise ValueError("groups must cover every leaf")
    order, lo, hi = dendro.leaf_spans()
    first = group[order[lo]]  # per node: the group of its first DFS leaf
    # group changes along the DFS order up to each position
    changes = np.concatenate(([0], np.cumsum(np.diff(group[order]) != 0)))
    mixed = changes[hi - 1] != changes[lo]  # per node: its span holds 2+ groups
    kept = np.flatnonzero(mixed[n:])
    l, r = dendro.left[kept], dendro.right[kept]
    # a group is one subtree when exactly one unmixed child of a kept merge holds it
    kids = np.concatenate((l, r))
    split = np.flatnonzero(np.bincount(first[kids[~mixed[kids]]], minlength=len(groups)) > 1)
    if len(split):
        rows = ", ".join(map(str, sorted(groups[int(split[0])])))
        raise ValueError(f"copies of a duplicate point are separated: rows {rows} (from 0) are not one subtree")
    heights = dendro.height[kept]
    return build_dendrogram(SpanningTree(len(groups), first[l], first[r], heights), heights)


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
    dendro = from_merge_rows(n, [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    expect = np.array([r[3] for r in rows])
    if (expect != dendro.size).any():
        bad = int(np.flatnonzero(expect != dendro.size)[0])
        raise ValueError(f"merge list row {bad + 1}: size column inconsistent with structure")
    return dendro


def _fmt_branch(x: float) -> str:
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


def to_newick(dendro: Dendrogram, labels=None) -> str:
    """Newick text; branch length = parent height - child height.  Leaves
    are labelled by their ids unless labels are given.

    Tokens are emitted from an explicit stack in DFS order and joined once,
    so time and memory are linear in the text, however deep the tree."""
    n = dendro.n
    labels = [str(x) for x in (range(n) if labels is None else labels)]
    if len(labels) != n:
        raise ValueError(f"need {n} labels, got {len(labels)}")
    node = labels + list(range(n - 1))  # a leaf's text, or an internal node's merge row
    node_h = np.concatenate([np.zeros(n), dendro.height])
    bl = [f":{_fmt_branch(x)}," for x in (dendro.height - node_h[dendro.left]).tolist()]
    br = [f":{_fmt_branch(x)})" for x in (dendro.height - node_h[dendro.right]).tolist()]
    tokens = []
    stack = [node[dendro.root]]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            tokens.append(x)
        else:
            tokens.append("(")
            stack += (br[x], node[dendro.right[x]], bl[x], node[dendro.left[x]])
    tokens.append(";")
    return "".join(tokens)
