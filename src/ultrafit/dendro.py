"""Rooted binary merge trees with monotone heights.

A dendrogram over n leaves stores its n-1 merges as rows in ascending
height order; row i creates internal node n+i.  Leaf heights are 0, so
LCA heights induce an ultrametric on the leaves.  Equal-height merges in
any fixed order induce the same ultrametric, so ties follow the input
edge order.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import PointSet, cross_distances
from .mst import SpanningTree

_CHUNK_ELEMS = 1 << 18  # cap on the entries of one cross-distance block
# Nodes whose children both have at least _SCREEN_MIN_SIDE leaves and whose
# cross pairs number at least _SCREEN_MIN_ELEMS are screened (see
# Dendrogram.cross_stats); below that a plain cdist block is cheaper.
_SCREEN_MIN_SIDE = 8
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

    def _children(self, node: int) -> tuple[int, int]:
        i = node - self.n
        return int(self.left[i]), int(self.right[i])

    def leaf_spans(self):
        """DFS leaf order plus the contiguous span [lo, hi) of every node."""
        if self._spans is None:
            n = self.n
            total = 2 * n - 1
            lo = np.zeros(total, dtype=np.int64)
            hi = np.zeros(total, dtype=np.int64)
            order = np.empty(n, dtype=np.int64)
            pos = 0
            stack = [(self.root, False)]
            while stack:
                node, done = stack.pop()
                if node < n:
                    order[pos] = node
                    lo[node] = pos
                    hi[node] = pos + 1
                    pos += 1
                    continue
                if done:
                    l, r = self._children(node)
                    lo[node] = lo[l]
                    hi[node] = hi[r]
                    continue
                l, r = self._children(node)
                stack.append((node, True))
                stack.append((r, False))
                stack.append((l, False))
            object.__setattr__(self, "_spans", (order, lo, hi))
        return self._spans

    def _dfs_layout(self, points: PointSet):
        """Coordinates in DFS leaf order, so both children of a node are
        contiguous row slices, and per merge its spans (a0, a1, b0, b1):
        left child rows [a0, a1), right child rows [b0, b1), b0 == a1."""
        if points.n != self.n:
            raise ValueError("dendrogram and point set sizes differ")
        order, lo, hi = self.leaf_spans()
        lo, hi = lo.tolist(), hi.tolist()
        spans = [(lo[l], hi[l], lo[r], hi[r]) for l, r in zip(self.left.tolist(), self.right.tolist())]
        return points.coords[order], spans

    def cross_stats(self, points: PointSet) -> CrossStats:
        """Closest pair and farthest distance over each merge's cross pairs.

        Every reported distance is a cdist value: the left child's rows
        meet the right child's in the _CHUNK_ELEMS blocks of _blocks.  A
        small node scans each block with cdist.  A large one is screened:
        one GEMM per block ranks its entries by approximate squared
        distance (_screen_factors), and cdist recomputes only the rows and
        columns holding entries within 2E of the block's approximate
        minimum or maximum, which contain every entry at the exact
        extremes, so the first closest pair in row-major order is found as
        in a full scan.  The result depends only on topology and points,
        so it is memoized per PointSet object.
        """
        if self._cross is not None and self._cross[0] is points:
            return self._cross[1]
        Y, spans = self._dfs_layout(points)
        m = len(spans)
        dmin = np.empty(m)
        dmax = np.empty(m)
        first = np.empty((m, 2), dtype=np.int64)  # DFS positions of the closest pair
        buf = np.empty(_CHUNK_ELEMS)  # GEMM output of screened blocks
        for i, (a0, a1, b0, b1) in enumerate(spans):
            screen = None
            if min(a1 - a0, b1 - b0) >= _SCREEN_MIN_SIDE and (a1 - a0) * (b1 - b0) >= _SCREEN_MIN_ELEMS:
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
            dmin[i], dmax[i] = near, far
            first[i] = at
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
            for i, (a0, a1, b0, b1) in enumerate(spans):
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
