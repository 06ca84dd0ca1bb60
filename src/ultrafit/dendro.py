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


class CrossStats(NamedTuple):
    """Per internal node (merge order), over the pairs it separates."""

    dmin: np.ndarray  # closest cross-pair distance
    pair: np.ndarray  # (m, 2) leaf ids of the first pair at dmin, left child's leaf first
    dmax: np.ndarray  # farthest cross-pair distance
    inv_sum: np.ndarray  # sum of 1 / distance (inf if a distance is 0)


@dataclass
class Dendrogram:
    n: int
    left: np.ndarray
    right: np.ndarray
    height: np.ndarray
    size: np.ndarray
    leaf_labels: np.ndarray
    _lca: tuple | None = field(default=None, repr=False, compare=False)
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

    def cross_stats(self, points: PointSet) -> CrossStats:
        """Scan every leaf pair once, at its least common ancestor.

        Coordinates are put in DFS leaf order once, so both children of a
        node are contiguous row slices; the left child's rows meet the
        right child's columns in blocks of at most _CHUNK_ELEMS entries,
        visited in row-major order.  The result depends only on topology
        and points, so it is memoized per PointSet object.
        """
        if self._cross is not None and self._cross[0] is points:
            return self._cross[1]
        if points.n != self.n:
            raise ValueError("dendrogram and point set sizes differ")
        order, lo, hi = self.leaf_spans()
        Y = points.coords[order]
        lo, hi = lo.tolist(), hi.tolist()
        m = len(self.height)
        dmin = np.empty(m)
        dmax = np.empty(m)
        inv_sum = np.empty(m)
        first = np.empty((m, 2), dtype=np.int64)  # DFS positions of the closest pair
        with np.errstate(divide="ignore"):
            for i, (l, r) in enumerate(zip(self.left.tolist(), self.right.tolist())):
                a0, a1, b0, b1 = lo[l], hi[l], lo[r], hi[r]
                cols = min(b1 - b0, _CHUNK_ELEMS)
                rows = max(1, _CHUNK_ELEMS // cols)
                near, far, inv, at = np.inf, -np.inf, 0.0, (a0, b0)
                for ra in range(a0, a1, rows):
                    A = Y[ra : min(ra + rows, a1)]
                    for cb in range(b0, b1, cols):
                        block = cross_distances(A, Y[cb : min(cb + cols, b1)])
                        k = int(block.argmin())
                        if block.flat[k] < near:
                            near = block.flat[k]
                            at = (ra + k // block.shape[1], cb + k % block.shape[1])
                        far = max(far, block.max())
                        inv += np.reciprocal(block, out=block).sum()
                dmin[i], dmax[i], inv_sum[i] = near, far, inv
                first[i] = at
        stats = CrossStats(dmin, order[first], dmax, inv_sum)
        object.__setattr__(self, "_cross", (points, stats))
        return stats

    # -- LCA queries -------------------------------------------------------

    def _lca_index(self):
        if self._lca is None:
            n = self.n
            total = 2 * n - 1
            tour = np.empty(2 * total - 1, dtype=np.int64)
            depth = np.empty(2 * total - 1, dtype=np.int32)
            first = np.full(total, -1, dtype=np.int64)
            pos = 0
            stack: list[tuple[int, int, int]] = [(self.root, 0, 0)]  # node, depth, state
            while stack:
                node, dep, state = stack.pop()
                tour[pos] = node
                depth[pos] = dep
                if first[node] < 0:
                    first[node] = pos
                pos += 1
                if node >= n and state < 2:
                    l, r = self._children(node)
                    stack.append((node, dep, state + 1))
                    stack.append(((l, r)[state], dep + 1, 0))
            m = pos
            tour = tour[:m]
            depth = depth[:m]
            levels = max(1, m.bit_length())
            table = np.empty((levels, m), dtype=np.int64)
            table[0] = np.arange(m)
            span = 1
            for lev in range(1, levels):
                prev = table[lev - 1]
                cur = prev.copy()
                k = m - span
                right = prev[span : span + k]
                pick = depth[right] < depth[cur[:k]]
                cur[:k][pick] = right[pick]
                table[lev] = cur
                span *= 2
            object.__setattr__(self, "_lca", (tour, depth, first, table))
        return self._lca

    def lca(self, us, vs) -> np.ndarray:
        tour, depth, first, table = self._lca_index()
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        i = first[us]
        j = first[vs]
        a = np.minimum(i, j)
        b = np.maximum(i, j)
        length = b - a + 1
        lev = np.maximum(length.astype(np.int64).clip(min=1), 1)
        lev = np.floor(np.log2(lev)).astype(np.int64)
        left = table[lev, a]
        right = table[lev, b - (1 << lev) + 1]
        pick = depth[right] < depth[left]
        res = np.where(pick, right, left)
        return tour[res]

    def ultra_distance(self, u: int, v: int) -> float:
        """Height of the least common ancestor of leaves u and v."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"leaf id out of range: ({u}, {v}) with n={n}")
        if u == v:
            return 0.0
        node = int(self.lca([u], [v])[0])
        return float(self.height[node - n])

    def ultra_distances(self, us, vs) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if len(us) == 0:
            return np.empty(0)
        nodes = self.lca(us, vs)
        out = np.zeros(len(us))
        internal = nodes >= self.n
        out[internal] = self.height[nodes[internal] - self.n]
        return out

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
    LCA index, leaf spans and cross-pair statistics of the input.
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
