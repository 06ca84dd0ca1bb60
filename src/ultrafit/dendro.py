"""Rooted binary merge trees with monotone heights.

A dendrogram over n leaves stores its n-1 merges as rows in ascending
height order; row i creates internal node n+i.  Leaf heights are 0, so
LCA heights induce an ultrametric on the leaves.  Equal-height merges in
any fixed order induce the same ultrametric, so ties follow the input
edge order.
"""

import math
import os
import re
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import PointSet, _check_matrix_fits, _roots, cross_distances, fork_map, paired_distances, worker_limit
from .mst import SpanningTree

_CHUNK_ELEMS = 1 << 18  # cap on the entries of one cross-distance block
# Blocks of at least _SCREEN_MIN_ELEMS entries are screened (see
# Dendrogram.cross_stats); below that a plain cdist block is cheaper.
_SCREEN_MIN_ELEMS = 1 << 12
# Screening bounds rounding errors relative to the squared norms M of a
# block (_row_factors); outside these ranges a sum could overflow, or
# underflow could add absolute errors.  A block whose M is within the
# binary64 range alone is screened in binary64 only.
_SCREEN_NORMS = (2.0**-100, float(np.finfo(np.float32).max) / 4)  # binary32
_SCREEN_NORMS_64 = (2.0**-900, np.finfo(np.float64).max / 4)
# candidates per cdist block of _pair_distances, whose diagonal holds their
# values.  6,582 random pairs of 1800 points took, in ms, at block sizes
#   block     1    4    8   12   16   32   64
#   d = 77   21  6.6  4.6  4.5  4.7  6.8   12
#   d = 16   18  5.0  2.9  2.4  2.1  2.1  2.9
# (medians of 7 calls, 2 cores), against 7.6 ms (d = 77) for one cdist
# block of 720k entries, about the candidates' rows x columns on the
# benchmark's high-d trees.
_PAIR_BLOCK = 8
_NEWICK_QUOTED = re.compile(r"[\s()\[\]':;,]")  # a leaf label holding one is quoted


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


def _screen_factors(Y: np.ndarray):
    """Column factors F = [y', 1, N] of every row of Y, centred once on
    the mean c of all rows: y' = y - c and N = |y'|^2, as the pair (F, F
    rounded to binary32).  A screened block takes its columns' factors as
    a slice of either and builds its rows' (_row_factors)."""
    d = Y.shape[1]
    F = np.empty((len(Y), d + 2))
    Yc = np.subtract(Y, Y.mean(axis=0), out=F[:, :d])
    F[:, d] = 1.0
    F[:, d + 1] = np.einsum("ij,ij->i", Yc, Yc)
    with np.errstate(over="ignore"):  # such rows are outside _SCREEN_NORMS
        return F, F.astype(np.float32)


def _screens(F, rows: np.ndarray, c0: int, c1: int):
    """M = max N over rows `rows` of the factors F + max N over rows
    [c0, c1), in binary64, and the screens the block takes in turn, as
    _row_factors' precise flags: binary32 then binary64 when M is within
    _SCREEN_NORMS, binary64 alone within _SCREEN_NORMS_64, and none
    outside both (NaN and inf included)."""
    N = F[0][:, -1]
    M = N[rows].max() + N[c0:c1].max()
    if _SCREEN_NORMS[0] <= M <= _SCREEN_NORMS[1]:
        return M, (False, True)
    return M, (True,) if _SCREEN_NORMS_64[0] <= M <= _SCREEN_NORMS_64[1] else ()


def _row_factors(F, rows: np.ndarray, c0: int, c1: int, M: float, precise: bool):
    """Row factors L, column factors R and margin E of rows `rows` of the
    factors F against rows [c0, c1), in binary32, or in binary64 when
    precise; M from _screens(F, rows, c0, c1).

    L = [-2a', N, 1] and R = [b', 1, N], so (L @ R.T)[i, j] approximates
    the squared distance s = |a_i - b_j|^2, with |L @ R.T - D^2| <= E =
    8 (d+4) eps M against the square of the cdist value D, eps the
    machine epsilon of the GEMM's precision, in any summation order.  Let
    u = eps / 2.  In binary64, the GEMM errs by at most (d+2) eps M, the
    norms by d eps M / 2, the centring by 2 eps M and cdist itself by
    (d+4) eps M.  In binary32, rounding the inputs moves each product
    a'_k b'_k by at most 2u |a'_k b'_k| and each norm by u N, so the
    exact sum moves by at most 2u 2 sum |a'_k b'_k| + u (N_a + N_b) <=
    3u M, as 2 |a'_k b'_k| <= a'_k^2 + b'_k^2.  The d+2 terms of the sum,
    whose magnitudes add up to at most about 2M, accumulate at most
    (d+2) u / (1 - (d+2) u) 2M ~ (d+2) eps M in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1):
    (d+4) eps M in all, to which the binary64 errors add less than 2^-26
    as much.  So E holds with room to spare as long as (d+2) u <= 1/2,
    which every d below 2^22 meets; binary32 factors are used only there.
    M within _SCREEN_NORMS keeps every sum of the GEMM below the binary32
    maximum, and a value that underflows errs by at most 2^-150, which
    moves the sum by at most about 4d sqrt(M) 2^-150 <= d 2^-75 eps M;
    _SCREEN_NORMS_64 does the same in binary64.
    Every term is bounded through the norms of the centred rows alone, so
    the bound holds for any centre c, the one shared by the whole tree
    included, as long as M is taken from the norms after that centring.
    """
    d = F[0].shape[1] - 2
    G = F[0] if precise or d >= 1 << 22 else F[1]
    L = G[rows]
    L[:, :d] *= -2.0
    L[:, d] = L[:, d + 1]
    L[:, d + 1] = 1.0
    return L, G[c0:c1], 8 * (d + 4) * float(np.finfo(G.dtype).eps) * M


def _outward(x, dtype, sign: float):
    """The binary64 values x rounded to dtype, up for sign 1 and down for
    sign -1: an entry of dtype at or below (at or above) x compares so
    against the rounded value too."""
    x = np.asarray(x, dtype=np.float64)
    y = x.astype(dtype)
    return np.where(sign * (y - x) < 0, np.nextafter(y, sign * np.inf), y)


def _candidates(S: np.ndarray, E: float):
    """Rows and columns of S holding every entry whose exact value may be
    S's minimum or maximum: those within 2E of the extreme of S.  The
    bounds are taken in binary64 and rounded outward to S's precision."""
    rmin = S.min(axis=1)
    rmax = S.max(axis=1)
    low = _outward(float(rmin.min()) + 2 * E, S.dtype, 1.0)
    high = _outward(float(rmax.max()) - 2 * E, S.dtype, -1.0)
    near = rmin <= low
    far = rmax >= high
    cols = (S[near] <= low).any(axis=0) | (S[far] >= high).any(axis=0)
    return np.flatnonzero(near | far), np.flatnonzero(cols)


# A run block in which more than this share of the entries are candidates
# is handed back to _merge_extremes, so candidate arrays stay small when
# distances tie (one-hot rows, say).
_TIED_SHARE = 1 / 8
# cross pairs outside the tiles from which cross_stats runs its units on
# core.fork_map's workers.  On 2 cores (pooled / serial time, medians of
# 15 alternated calls on uniform points, approx and average trees):
#   points (pairs)    3000 (4.4M)  4000 (7.9M)  6000 (17.9M)  8000 (31.9M)
#   d = 16                -        1.45-2.10    1.03-1.06     0.93-1.04
#   d = 77            1.24-1.51    1.01-1.04    0.87-0.89         -
# and on approx trees (7 calls) 0.81 at 8000 points (d = 77) and 0.79
# (d = 16) and 0.68 (d = 77) at 11000 points (60M pairs).
# So the pool breaks even near 8M pairs at d = 77 and 18M-32M at d = 16.
_POOL_MIN_PAIRS = 1 << 24
# OpenBLAS takes its thread count from the first of these that holds a
# positive integer, else it starts a thread per core
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# rows of one cdist window of _tile_pass: the rows of tiles next to each
# other in DFS order share a window up to this size, and a larger tile has
# one of its own.  A window is one cdist call of its size squared entries,
# so small windows compute fewer entries that no merge reads, in more
# calls.  Tile pass in ms, medians of 11 alternated calls, 2 cores
# (serial), the trees of compare-highd-1800 (d = 77) and
# approx-blobs-11k's approx tree (d = 16), seed 1:
#   window            0     8    16    32    64   127
#   highd approx    8.7   8.4   8.4   8.4   8.7  10.0
#   highd acc       5.4   5.2   5.1   5.1   5.4   6.5
#   highd exact     4.4   4.1   4.0   4.2   4.4   5.5
#   highd single    2.8   2.3   2.2   2.3   2.7   3.6
#   highd average   4.9   4.9   4.8   4.8   5.3   7.6
#   highd ward      6.8   6.8   6.8   6.8   6.9   6.9
#   blobs approx   15.7  12.9  11.8  11.3  11.8  13.0
_WINDOW = 16


def _one_blas_thread() -> bool:
    """Whether the environment holds OpenBLAS to one thread (_BLAS_THREAD_VARS)."""
    for name in _BLAS_THREAD_VARS:
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return count == 1
    return False


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


def _block_extremes(V, rowpos, colpos, seg, merges, flip, screen=None, row_segments=False):
    """Closest pair and farthest distance of the merges whose cross pairs
    are row segments of one block V, as a unit's (merges, dmin, first,
    dmax), first in DFS positions.

    V[r, c] belongs to the leaves at DFS positions rowpos[r] and
    colpos[r] + c.  It is their cdist value when screen is None; with
    screen = (E, Y) it is a screening GEMM's approximate square, in
    binary32 or binary64, within E of the square of the cdist value of
    those rows of Y.  seg = (row, c0, c1,
    local): segment s is V[row[s], c0[s]:c1[s]], cross pairs of merge
    merges[local[s]]; segments are disjoint and in row-major order.
    Entries outside every segment are ignored.  flip[j] says that the rows
    of merge j are its right child.

    Per merge, every entry within 2E of the merge's extreme in V is a
    candidate, so the candidates hold every entry at the exact extreme;
    the bounds are rounded outward to V's precision (_outward).  Only
    the segments whose own extreme is within 2E can hold a candidate.
    With row_segments, segment r is on row r (run blocks): the rows of
    those segments are scanned against their bounds, and when more than
    _TIED_SHARE of the block's entries meet their bound (distances that
    tie, or a binary32 margin too wide for them) None is returned.
    Otherwise (tile blocks, whose rows hold the nested segments of many
    merges) the entries of those segments are listed.  A screened block
    takes each candidate's exact value on its own (_pair_distances), so
    no array grows beyond a few times the block.  The closest pair is the
    candidate at the exact minimum that comes first in the merge's left x
    right row-major order.
    """
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
        bound = _outward(bound + sign * 2 * E, V.dtype, sign)
        near = np.flatnonzero(cmp(seg_ext, bound[local]))  # segments that may hold it
        if row_segments:  # scan each near row against its segment's bound
            hit = cmp(V.take(near, axis=0), bound[local[near], None])
            if np.count_nonzero(hit) > V.size * _TIED_SHARE:
                return None
            i, c = np.divmod(np.flatnonzero(hit), C)
            s = near[i]
            inside = (c >= c0[s]) & (c < c1[s])
            s = s[inside]
            p = s * C + c[inside]
        else:  # list the entries of the near segments
            size = end[near] - start[near]
            s = np.repeat(near, size)
            p = np.repeat(start[near], size) + _steps(size)
        keep = cmp(flat[p], bound[local[s]])
        found.append((local[s[keep]], p[keep]))
    (lo, plo), (hi, phi) = found
    r, c = np.divmod(np.concatenate((plo, phi)), C)
    rp, cp = rowpos[r], colpos[r] + c
    val = V[r, c] if screen is None else _pair_distances(screen[1], rp, cp)
    nlo = len(lo)
    farthest = np.full(k, -np.inf)
    np.maximum.at(farthest, hi, val[nlo:])
    val, rp, cp = val[:nlo], rp[:nlo], cp[:nlo]
    closest = np.full(k, np.inf)
    np.minimum.at(closest, lo, val)
    swap = flip[lo]
    left = np.where(swap, cp, rp)
    right = np.where(swap, rp, cp)
    tie = np.flatnonzero(val == closest[lo])
    tie = tie[np.lexsort((right[tie], left[tie], lo[tie]))]
    # every merge has a candidate at its minimum, so head holds one per merge, in order
    head = tie[np.diff(lo[tie], prepend=-1) != 0]
    return merges, closest, np.column_stack((left[head], right[head])), farthest


def _pair_distances(Y, i, j):
    """cdist(Y[i], Y[j]).diagonal(): the cdist value of every pair on its
    own, as diagonals of blocks of at most _PAIR_BLOCK x _PAIR_BLOCK and
    _CHUNK_ELEMS entries (core.paired_distances), gathering at most
    _CHUNK_ELEMS coordinates of each side at a time."""
    k = min(_PAIR_BLOCK, math.isqrt(_CHUNK_ELEMS))
    g = max(1, _CHUNK_ELEMS // Y.shape[1])
    return np.concatenate([paired_distances(Y[i[s : s + g]], Y[j[s : s + g]], k) for s in range(0, len(i), g)])


def _merge_extremes(Y, F, a0, a1, b0, b1, buf):
    """Minimum, its first pair (DFS positions) and maximum over the cross
    pairs of one merge, in the blocks of _blocks.  When the merge has at
    least _SCREEN_MIN_ELEMS cross pairs, a block is screened from the
    factors F = _screen_factors(Y), in binary32 and, when more than
    _TIED_SHARE of its entries are in candidate rows and columns, again
    in binary64 (or as _screens allows); cdist then recomputes the
    candidate rows x columns.  buf holds the GEMM output."""
    screened = (a1 - a0) * (b1 - b0) >= _SCREEN_MIN_ELEMS
    near, far, at = np.inf, -np.inf, (a0, b0)
    for ra, re, cb, ce in _blocks(a0, a1, b0, b1):
        block = np.arange(ra, re)
        M, screens = _screens(F, block, cb, ce) if screened else (None, ())
        if not screens:
            bmin, r, c, bmax = _extremes(cross_distances(Y[ra:re], Y[cb:ce]))
            r, c = ra + r, cb + c
        else:
            for precise in screens:
                L, R, E = _row_factors(F, block, cb, ce, M, precise)
                out = buf.view(L.dtype)[: len(L) * len(R)]
                # the longer side runs along the rows of the GEMM output,
                # where the row reductions of _candidates are fast
                if len(L) <= len(R):
                    rows, cols = _candidates(np.matmul(L, R.T, out=out.reshape(len(L), len(R))), E)
                else:
                    cols, rows = _candidates(np.matmul(R, L.T, out=out.reshape(len(R), len(L))), E)
                if len(rows) * len(cols) <= out.size * _TIED_SHARE:
                    break
            rows += ra
            cols += cb
            bmin, r, c, bmax = _extremes(cross_distances(Y[rows], Y[cols]))
            r, c = rows[r], cols[c]
        if bmin < near:
            near, at = bmin, (r, c)
        far = max(far, bmax)
    return near, at, far


def _tile_pass(Y, spans, children, small, buf):
    """Reduce every merge of the mask small, the merges inside a tile, a
    maximal subtree of at most _tile_cap() leaves, and return
    (merges, dmin, first, dmax) of them, as every unit of _run_units does.

    A tile's leaves are one contiguous row range.  Tiles next to each
    other in DFS order share a window of the rows of the tiles alone (the
    rows between them, leaves that hang off larger merges, are left out),
    at most min(_WINDOW, _tile_cap()) of them, and a larger tile is a
    window of its own, so a window's block fits _CHUNK_ELEMS.  One cdist
    block of a window against itself holds every cross pair of its
    merges: merge (a0, a1, b0, b1) reads the window rows of leaves
    a0..a1-1 and the window columns of leaves b0..b1-1, which are
    contiguous as each tile's are.  Windows are stacked into blocks as
    wide as the widest window and of at most _CHUNK_ELEMS entries, each
    reduced at once by _block_extremes, in buf."""
    a0, a1, b0, b1 = spans.T
    root = small.copy()
    kids = children[small]
    root[kids[kids >= 0]] = False  # a small merge under a small merge is not a tile root
    # tiles are disjoint, so sorting starts and ends keeps them paired
    cap = min(_WINDOW, _tile_cap())  # a window's block fits _CHUNK_ELEMS
    t0, t1 = np.sort(a0[root]), np.sort(b1[root])
    tsize = t1 - t0
    widths, off, win = [], [], []  # rows of each window; offset and window of each tile
    for size in tsize.tolist():
        if widths and widths[-1] + size <= cap:
            off.append(widths[-1])
            widths[-1] += size
        else:
            off.append(0)
            widths.append(size)
        win.append(len(widths) - 1)
    K = max(widths)  # columns of one stacked block
    band = _CHUNK_ELEMS // K  # rows of one stacked block
    base = []  # stacked row of each window's first leaf
    cuts = [0]  # first window of each block
    pos = 0
    for w, size in enumerate(widths):
        if pos + size > band:
            cuts.append(w)
            pos = 0
        base.append((len(cuts) - 1) * band + pos)
        pos += size
    cuts.append(len(widths))
    base, off = np.array(base), np.array(off)
    first = base[win] + off  # stacked row of each tile's first leaf
    step = _steps(tsize)
    rowpos = np.zeros(len(cuts) * band, dtype=np.int64)
    colpos = np.zeros_like(rowpos)
    rowpos[np.repeat(first, tsize) + step] = np.repeat(t0, tsize) + step
    colpos[np.repeat(first, tsize) + step] = np.repeat(t0 - off, tsize)
    # one segment per left-child row of each tile merge
    M = np.flatnonzero(small)
    tile = np.searchsorted(t0, a0[M], side="right") - 1
    shift = off[tile] - t0[tile]  # window column of a leaf minus its DFS position
    na = a1[M] - a0[M]
    srow = np.repeat(first[tile] + a0[M] - t0[tile], na) + _steps(na)
    sc0 = np.repeat(b0[M] + shift, na)
    order = np.argsort(srow * K + sc0)
    srow, sc0 = srow[order], sc0[order]
    sc1 = np.repeat(b1[M] + shift, na)[order]
    smerge = np.repeat(M, na)[order]
    bseg = np.searchsorted(srow, np.arange(len(cuts)) * band)
    V = buf[: band * K].reshape(band, K)
    V.fill(0.0)
    parts = []
    for b in range(len(cuts) - 1):
        for w in range(cuts[b], cuts[b + 1]):
            r, size = int(base[w]), widths[w]
            lo, hi = int(rowpos[r]), int(rowpos[r + size - 1]) + 1
            # contiguous rows (a tile wider than the window, say) are read in place
            A = Y[lo:hi] if hi - lo == size else Y[rowpos[r : r + size]]
            V[r - b * band : r - b * band + size, :size] = cross_distances(A, A)
        s, e = bseg[b], bseg[b + 1]
        merges, local = np.unique(smerge[s:e], return_inverse=True)
        rows = slice(b * band, (b + 1) * band)
        seg = (srow[s:e] - b * band, sc0[s:e], sc1[s:e], local)
        parts.append(_block_extremes(V, rowpos[rows], colpos[rows], seg, merges, np.zeros(len(merges), bool)))
    return tuple(map(np.concatenate, zip(*parts)))


def _run_units(Y, F, spans, children, small, buf):
    """The units of Dendrogram.cross_stats: callables that each return
    (merges, dmin, first, dmax) of the merges they reduce, every merge in
    exactly one unit.  First comes one _merge_unit per merge too large for
    one block, largest first, then the tile pass over the mask small, then
    one _run_unit per heavy-path run block of the other merges.

    Each merge outside the tiles reads the rows of its smaller child (on a
    tie the right one) against the contiguous span of its larger child.  A
    heavy path follows each merge's larger child, so along a run of one
    path's merges, taken bottom-up, each larger child holds the merge
    below, and one block serves the run: its rows against the span of the
    top merge's larger child, each merge reading its rows and the columns
    of its own larger child.  Runs are cut so that a block stays within
    _CHUNK_ELEMS entries and its gathered rows within _CHUNK_ELEMS
    coordinates (which only binds in high dimension); its columns are
    views of Y and F.  A block of at least _SCREEN_MIN_ELEMS entries is
    screened from the factors F = _screen_factors(Y), as in
    Dendrogram.cross_stats.  A merge whose own block exceeds those caps,
    and the merges of a block whose distances tie in both screens, are
    reduced on their own by _merge_extremes."""
    m, d = len(spans), Y.shape[1]
    a0, a1, b0, b1 = spans.T
    add_left = a1 - a0 < b1 - b0
    s0 = np.where(add_left, a0, b0)
    s1 = np.where(add_left, a1, b1)
    g0 = np.where(add_left, b0, a0)
    g1 = np.where(add_left, b1, a1)
    sa, sg = s1 - s0, g1 - g0
    fits = (sa * sg <= _CHUNK_ELEMS) & (sa * d <= _CHUNK_ELEMS)
    run = ~small & fits
    grow = np.where(add_left, children[:, 1], children[:, 0])
    bottom = _roots(np.where((grow >= 0) & run[grow], grow, np.arange(m)))  # each run's first merge
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
    alone = np.flatnonzero(~small & ~fits)
    alone = alone[np.argsort(-(sa * sg)[alone], kind="stable")]
    units = [partial(_merge_unit, Y, F, spans, alone[j : j + 1], buf) for j in range(len(alone))]
    if small.any():
        units.append(partial(_tile_pass, Y, spans, children, small, buf))
    layout = (s0, s1, g0, g1, add_left)
    return units + [partial(_run_unit, Y, F, spans, layout, M[j:k], buf) for j, k in zip(cuts[:-1], cuts[1:])]


def _merge_unit(Y, F, spans, merges, buf):
    """The unit of merges reduced one by one through _merge_extremes: a
    merge too large for one block, or the merges of a run block whose
    distances tie."""
    near, at, far = zip(*(_merge_extremes(Y, F, *spans[i].tolist(), buf) for i in merges.tolist()))
    return merges, np.array(near), np.array(at, dtype=np.int64), np.array(far)


def _run_unit(Y, F, spans, layout, merges, buf):
    """One run block's unit of _run_units; when the block's distances tie,
    its merges go to _merge_unit once the block is freed."""
    return _run_block(Y, F, layout, merges, buf) or _merge_unit(Y, F, spans, merges, buf)


def _run_block(Y, F, layout, merges, buf):
    """The merges of one run block reduced at once: screened in binary32
    and, when that screen leaves too many candidates, in binary64 (or as
    _screens allows; a plain cdist block below _SCREEN_MIN_ELEMS
    entries); None when its distances tie (_block_extremes)."""
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
    args = rowpos, np.full(R, lo), seg, merges, ~add_left[merges]
    M, screens = _screens(F, rowpos, lo, hi) if R * (hi - lo) >= _SCREEN_MIN_ELEMS else (None, ())
    if not screens:
        return _block_extremes(cross_distances(Y[rowpos], Y[lo:hi]), *args, row_segments=True)
    for precise in screens:
        L, B, E = _row_factors(F, rowpos, lo, hi, M, precise)
        V = np.matmul(L, B.T, out=buf.view(L.dtype)[: R * (hi - lo)].reshape(R, hi - lo))
        found = _block_extremes(V, *args, screen=(E, Y), row_segments=True)
        if found is not None:
            return found
    return None


@dataclass
class Dendrogram:
    n: int
    left: np.ndarray
    right: np.ndarray
    height: np.ndarray
    size: np.ndarray
    _spans: tuple | None = field(default=None, repr=False, compare=False)
    # [points, CrossStats] once cross_stats has run.  Copies made with
    # replace keep the topology (normalize, single_linkage) and share this
    # cell, so one scan serves them all, whichever runs it; _cross=None
    # gives a copy a cell of its own.
    _cross: list | None = field(default_factory=list, repr=False, compare=False)

    def __eq__(self, other):
        """Equal n and merge rows (left, right, height); not hashable."""
        if not isinstance(other, Dendrogram):
            return NotImplemented
        rows = ("left", "right", "height")
        return self.n == other.n and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in rows)

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
          leaves is read from one cdist block over its rows, a window that
          tiles next to each other share up to _WINDOW rows;
        - heavy-path runs (_run_units, _run_block): every other merge reads its smaller
          child's rows against its larger child's span, and consecutive
          merges of one heavy path share a block.  The smaller child may
          be either child, so each merge keeps its own left x right order;
        - a merge too large for one block is reduced on its own, in the
          blocks of _blocks (_merge_extremes).

        A block of at least _SCREEN_MIN_ELEMS entries is screened: one
        binary32 GEMM ranks its entries by approximate squared distance,
        from factors centred once per call (_screen_factors), and cdist
        recomputes only the entries within 2E of a merge's approximate
        minimum or maximum (each on its own in a run block, the rows x
        columns holding them in a merge too large for one block), which
        hold every entry at the exact extremes, so the result equals a
        full scan's.  Where the binary32 margin leaves more than
        _TIED_SHARE of a block's entries as candidates (a tight cluster
        far from the centre, or distances that tie), the block is
        screened again in binary64, as tight as before.  A block whose
        squared norms lie outside _SCREEN_NORMS is screened in binary64
        alone, or is plain cdist outside _SCREEN_NORMS_64.  No cdist or
        GEMM block has more than _CHUNK_ELEMS entries.  The
        result depends only on topology and points, so it is memoized per
        PointSet object, in a cell that every replace copy of this
        dendrogram shares: normalize's output, and single linkage with
        the tree-order dendrogram of its tree (tree_order), whose scan
        exact_cut_weights and kt_factor read too.

        Each merge belongs to exactly one unit (_run_units): the tile
        pass, a run block, or a merge too large for one block, and the
        parent writes each unit's results where they belong.  When the
        cross pairs outside the tiles reach _POOL_MIN_PAIRS and OpenBLAS
        runs one thread (_one_blas_thread; its threads would share the
        cores with the workers), the units run on core.fork_map's workers,
        which inherit the points and factors at fork, and the output is
        bitwise that of the serial pass.  The largest merges go first, so
        two workers finish together (core._MAX_WORKERS).
        """
        cell = self._cross
        if cell is None:
            cell = []
            object.__setattr__(self, "_cross", cell)
        if cell and cell[0] is points:
            return cell[1]
        Y, spans = self._dfs_layout(points)
        m = len(spans)
        children = np.column_stack((self.left, self.right)) - self.n  # merge rows; < 0 for leaves
        children[children < 0] = -1
        a0, a1, b0, b1 = spans.T
        small = b1 - a0 <= _tile_cap()
        pooled = _one_blas_thread() and ((a1 - a0) * (b1 - b0))[~small].sum() >= _POOL_MIN_PAIRS
        workers = worker_limit() if pooled else 1
        # each process, the parent when serial, runs its units in its own buffer
        units = _run_units(Y, _screen_factors(Y), spans, children, small, np.empty(_CHUNK_ELEMS))
        dmin = np.empty(m)
        dmax = np.empty(m)
        first = np.empty((m, 2), dtype=np.int64)  # DFS positions of the closest pair
        with fork_map(lambda u: units[u](), range(len(units)), workers, label="block") as results:
            for merges, near, at, far in results:
                dmin[merges], first[merges], dmax[merges] = near, at, far
        order = self.leaf_spans()[0]
        stats = CrossStats(dmin, order[first], dmax)
        cell[:] = (points, stats)
        return stats

    def inv_sums(self, points: PointSet) -> np.ndarray:
        """Per merge, the sum of 1 / distance over its cross pairs (inf if
        one is 0): every pair once, through the cdist blocks of _blocks in
        order, in one serial pass.  Only the mean distortion needs it, so
        it is computed on demand."""
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
        """Dense n x n matrix of LCA heights. Quadratic memory; small n only:
        a matrix larger than the memory available is refused before it is
        allocated (core._check_matrix_fits)."""
        n = self.n
        _check_matrix_fits(n, "ultrametric_matrix", "float64 matrix")
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
    return from_merge_rows(n, left, right, heights[order])


def tree_order(tree: SpanningTree) -> Dendrogram:
    """The dendrogram that merges the tree's edges in their stored order,
    at heights 0, 1, ...: node n+i is the merge of edge i.

    Built once per tree and kept on it (a tree's arrays are read-only, so
    it cannot go stale).  exact_cut_weights reads its farthest cross
    pairs, kt_factor its closest ones, and single_linkage is the same
    merges at heights tree.w, a replace copy that shares its cross_stats
    cell; so on one tree and point set the three share one scan."""
    if tree._order is None:
        object.__setattr__(tree, "_order", build_dendrogram(tree, np.arange(tree.n - 1)))
    return tree._order


def normalize(dendro: Dendrogram, points: PointSet) -> tuple[Dendrogram, float]:
    """Scale all heights by the smallest factor making the ultrametric
    dominate the input metric; returns the scaled dendrogram and the factor.

    The factor is max over pairs of distance / LCA height, rounded up by
    the ulps it takes for every scaled height to reach its node's farthest
    cross pair, so afterwards min over pairs of height / distance is 1
    exactly.  Topology is unchanged, so the scaled dendrogram shares the
    leaf spans and the cross_stats cell of the input: the scan made here
    serves the distortion of the output, and a scan the input (or any
    copy sharing its cell) already made on these points is reused.
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
    are labelled by their ids unless labels are given; a label holding
    whitespace or one of ()[]':;, is single-quoted, its quotes doubled.

    Tokens are emitted from an explicit stack in DFS order and joined once,
    so time and memory are linear in the text, however deep the tree."""
    n = dendro.n
    labels = [str(x) for x in (range(n) if labels is None else labels)]
    labels = ["'" + x.replace("'", "''") + "'" if _NEWICK_QUOTED.search(x) else x for x in labels]
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
