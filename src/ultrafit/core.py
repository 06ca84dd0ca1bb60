"""Geometric primitives and the canonical edge order shared by every
other module.

All Euclidean distances in the package flow through the cdist kernel of
scipy so that any two code paths computing the distance of the same point
pair produce bitwise-identical float64 values.  Weights are always true
distances; squared-distance shortcuts are never stored.

fork_map is the one ordered map over forked worker processes; the
spanner's scales and the evaluator's blocks run on it.
"""

import math
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np
from scipy.spatial.distance import cdist

_CHUNK = 1 << 15  # entries that chunks and compact handle at a time
_TILE = 128  # rows and columns of one distance_matrix tile
# workers at most: they were measured on 2 cores only, and each worker
# holds its own buffers beside the parent's.  Dendrogram.cross_stats
# balances on this bound: it hands out whole merges, largest first, and a
# merge holds at most about half of the n(n-1)/2 cross pairs, so on two
# workers the largest does not outlast the rest; with more workers the
# largest merge would cap the speedup
_MAX_WORKERS = 2
# the cgroup v2 mount, and this process's line "0::<path>" below it; each
# cgroup's cpu.max holds its CPU quota, "<quota> <period>" or "max <period>"
_CGROUP_ROOT = "/sys/fs/cgroup"
_SELF_CGROUP = "/proc/self/cgroup"
_MEMINFO = "/proc/meminfo"


@dataclass(frozen=True, eq=False)
class PointSet:
    """n points in d-dimensional Euclidean space, immutable after construction.

    _mst holds the exact MST once mst.exact_mst has computed it: coords
    are write-protected, so the tree cannot go stale.  Equality (same
    shape, equal coordinates) and repr ignore it; a PointSet is not
    hashable.
    """

    coords: np.ndarray
    _mst: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.coords, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"coords must be 2-d (n, d), got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("coordinates must be finite (no NaN/Inf)")
        # the squared bbox diameter bounds every squared pairwise distance,
        # every spanner radius and every entry of the kernel's factor arrays
        with np.errstate(over="ignore"):
            span = a.max(axis=0) - a.min(axis=0)
            if not np.isfinite((span * span).sum()):
                raise ValueError(
                    "coordinates too far apart: the squared bounding-box diameter overflows float64"
                )
        a = a + 0.0  # normalize -0.0 so duplicate detection is value-based
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "coords", a)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full |a| x |b| Euclidean distance matrix."""
    return cdist(np.atleast_2d(a), np.atleast_2d(b))


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """The n x n Euclidean distance matrix of coords, bitwise equal to
    cross_distances(coords, coords) at about half its kernel work: each
    square tile on or above the diagonal is one cdist call, and its
    transpose fills the mirror tile below (a cdist entry does not depend
    on the order of its two points)."""
    n = len(coords)
    D = np.empty((n, n))
    for s in range(0, n, _TILE):
        for t in range(s, n, _TILE):
            block = cdist(coords[s : s + _TILE], coords[t : t + _TILE])
            D[s : s + _TILE, t : t + _TILE] = block
            if t != s:
                D[t : t + _TILE, s : s + _TILE] = block.T
    return D


def paired_distances(a: np.ndarray, b: np.ndarray, chunk: int = 64) -> np.ndarray:
    """Row-wise distances between a[i] and b[i].

    Computed as diagonals of small cdist blocks so every value is
    bitwise-identical to the corresponding full-matrix entry.
    """
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    m = a.shape[0]
    out = np.empty(m)
    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        out[s:e] = cdist(a[s:e], b[s:e]).diagonal()
    return out


def edge_distances(coords: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distances for an edge list sorted by u.

    Consecutive edges sharing u are served by one cdist row, so each pair
    costs exactly one kernel entry (values identical to paired_distances).
    """
    m = len(u)
    out = np.empty(m)
    if m == 0:
        return out
    starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
    ends = np.append(starts[1:], m)
    for s, e, uu in zip(starts.tolist(), ends.tolist(), u[starts].tolist()):
        out[s:e] = cdist(coords[uu : uu + 1], coords.take(v[s:e], axis=0))[0]
    return out


def distance(points: PointSet, i: int, j: int) -> float:
    """Euclidean distance between points i and j."""
    n = points.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"point index out of range: ({i}, {j}) with n={n}")
    if i == j:
        return 0.0
    return float(cdist(points.coords[i : i + 1], points.coords[j : j + 1])[0, 0])


def dedupe(points: PointSet) -> tuple[PointSet, dict[int, list[int]]]:
    """Collapse exact duplicate points, keeping first-occurrence order.

    Returns the deduplicated set and a map from each surviving point's new
    index to the list of original indices it represents.
    """
    coords = points.coords
    _, first, inverse = np.unique(coords, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")  # first-occurrence order
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    new_of_old = rank[inverse.ravel()]
    groups: dict[int, list[int]] = {i: [] for i in range(len(order))}
    for orig, ni in enumerate(new_of_old):
        groups[int(ni)].append(orig)
    return PointSet(coords[first[order]]), groups


def canonical_edges(u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return edge arrays with u < v, sorted by (weight, min index, max index).

    Equal triples keep their input order, as in a stable three-key sort.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    # an unstable sort by weight is far faster than a stable one; only the
    # runs of equal weights (NaNs count as equal) need the full key
    order = np.argsort(w)
    ws = w[order]
    tie = (ws[1:] == ws[:-1]) | (np.isnan(ws[1:]) & np.isnan(ws[:-1]))
    if tie.any():
        starts = np.concatenate(([True], ~tie))
        in_run = ~(starts & np.append(starts[1:], True))
        pos = np.flatnonzero(in_run)
        sub = order[pos]
        run = np.cumsum(starts)[pos]
        order[pos] = sub[np.lexsort((sub, hi[sub], lo[sub], run))]
    return lo[order], hi[order], w[order]


def _roots(parent: np.ndarray) -> np.ndarray:
    """Root of every element, by pointer jumping; parent is not modified."""
    roots = parent
    while True:
        nxt = roots[roots]
        if (nxt == roots).all():
            return roots
        roots = nxt


def index_dtype(count: int) -> type:
    """int32 when it holds every index below count, else int64: the width
    of spanner endpoints and of kruskal's live-edge index."""
    return np.int32 if count < 2**31 else np.int64


def chunks(a):
    """a in consecutive views of at most _CHUNK entries."""
    return (a[s : s + _CHUNK] for s in range(0, len(a), _CHUNK))


def compact(a: np.ndarray, keep) -> np.ndarray:
    """Compact a in place, one chunk at a time, to the entries that
    keep(chunk) marks, and return that prefix.  Order is kept; keep sees the
    chunks in order, each before anything is written over it."""
    kept = 0
    for part in chunks(a):
        part = part[keep(part)]
        a[kept : kept + len(part)] = part
        kept += len(part)
    return a[:kept]


def _available_bytes() -> int | None:
    """MemAvailable from _MEMINFO in bytes; None where that file or field
    is absent."""
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_matrix_fits(n: int, caller: str, matrix: str) -> None:
    """Refuse an n x n float64 matrix larger than the memory available,
    which would otherwise end in an out-of-memory kill; the error names
    the caller, the matrix, n and both byte counts.  No check where the
    memory available cannot be read."""
    need = 8 * n * n
    avail = _available_bytes()
    if avail is not None and need > avail:
        raise ValueError(
            f"{caller} at n = {n} needs an n x n {matrix} of {need} bytes, "
            f"but only {avail} bytes of memory are available"
        )


def _cgroup_dirs() -> list[str]:
    """This process's cgroup v2 directory under _CGROUP_ROOT, then each
    ancestor up to the root itself.  Inside a cgroup namespace (a
    container) the path reads "/", so only the root is listed."""
    path = "/"
    try:
        with open(_SELF_CGROUP, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("0::"):
                    path = line[3:].strip()
    except OSError:
        pass
    parts = [p for p in path.split("/") if p]
    return [os.path.join(_CGROUP_ROOT, *parts[:k]) for k in range(len(parts), -1, -1)]


def _cpu_quota() -> int | None:
    """CPUs the tightest cgroup v2 quota over this process's cgroup and
    its ancestors allows, ceil(quota / period); None where no cpu.max on
    that path is readable and sets a quota (absent, max, or malformed)."""
    cpus = []
    for directory in _cgroup_dirs():
        try:
            with open(os.path.join(directory, "cpu.max"), encoding="ascii") as fh:
                quota, period = fh.read().split()[:2]
            if quota != "max":
                cpus.append(max(1, math.ceil(int(quota) / int(period))))
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return min(cpus, default=None)


def worker_limit() -> int:
    """Worker processes that fork_map may run: one (serial) without fork,
    inside a daemonic process, which may not start children, or on one
    usable CPU, counted from the affinity mask and the cgroup CPU quotas
    (_cpu_quota; the mask alone does not see a quota); at most
    _MAX_WORKERS."""
    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return min(cpus, _MAX_WORKERS)


def _serve(job, conn, parent_ends):
    """A worker's loop: job(i) for each id i the parent sends, answered as
    (True, result) or (False, the exception raised).  Ends when the parent
    closes its end or terminates the worker.  The parent's ends inherited
    at fork are closed first, so that the death of the parent reads as EOF
    here."""
    for end in parent_ends:
        end.close()
    while True:
        try:
            i = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, job(i))
        except Exception as exc:
            reply = (False, exc)
        conn.send(reply)


def _in_order(conns, ids, label):
    """The workers' results for ids, in order.  Each idle worker is sent
    the next id, and every ready result is taken as soon as the caller
    asks for the next one; results that arrive ahead of their turn wait in
    a dict.  A worker's exception is raised here, and a worker that dies
    (EOF on its pipe) raises an error naming the label and id it held."""
    todo = iter(ids)
    busy = {}  # connection -> the id its worker computes
    ready = {}  # id -> result
    for conn in conns:
        i = next(todo, None)
        if i is not None:
            conn.send(i)
            busy[conn] = i
    for i in ids:
        while i not in ready:
            for conn in wait(list(busy)):
                j = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    raise RuntimeError(f"the worker computing {label} {j} died") from None
                if not ok:
                    raise value
                ready[j] = value
                nxt = next(todo, None)
                if nxt is not None:
                    conn.send(nxt)
                    busy[conn] = nxt
        yield ready.pop(i)


@contextmanager
def fork_map(job, ids, workers: int, label: str = "item"):
    """job(i) for each i of ids (distinct, picklable), in order: from
    min(workers, len(ids)) forked worker processes, which inherit job and
    everything it reads, each talk to the parent over a pipe of its own
    and compute ahead of the caller, or from the builtin map when that is
    below 2.  The caller decides whether workers pay and asks for at most
    worker_limit() of them.  A worker's exception is raised in the
    parent, and a worker's death raises a RuntimeError naming label and
    the id it held.  No worker outlives the block."""
    workers = min(workers, len(ids))
    if workers < 2:
        yield map(job, ids)
        return
    fork = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child = fork.Pipe()
            conns.append(conn)
            proc = fork.Process(target=_serve, args=(job, child, tuple(conns)), daemon=True)
            proc.start()
            procs.append(proc)
            child.close()  # the worker's end, so its death reads as EOF here
        yield _in_order(conns, ids, label)
    finally:
        # a worker shares no lock with the parent, so it can be killed
        # anywhere, mid-send included
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
