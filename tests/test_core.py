import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest

from ultrafit import PointSet, dedupe, distance, exact_mst
from ultrafit import core as core_mod
from ultrafit.core import canonical_edges, cross_distances, distance_matrix, fork_map, paired_distances, worker_limit


def test_distance_axis_aligned():
    p = PointSet([[0, 0], [1, 0], [3, 0]])
    assert distance(p, 0, 1) == 1.0
    assert distance(p, 0, 2) == 3.0


def test_distance_three_four_five():
    p = PointSet([[0, 0], [3, 4]])
    assert distance(p, 0, 1) == 5.0


def test_distance_symmetric_zero_diix():
    p = PointSet(np.random.default_rng(0).random((10, 3)))
    for i in range(10):
        assert distance(p, i, i) == 0.0
    assert distance(p, 2, 7) == distance(p, 7, 2)


def test_distance_index_errors():
    p = PointSet([[0, 0], [1, 1]])
    with pytest.raises(IndexError):
        distance(p, 0, 2)
    with pytest.raises(IndexError):
        distance(p, -3, 1)


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointSet([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        PointSet([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        PointSet([1.0, 2.0])


@pytest.mark.parametrize(
    "coords",
    [
        [[0.0, 0.0], [1e154, 1e154]],  # each squared span is finite, their sum 2e308 is not
        np.random.default_rng(0).random((50, 4)) * 1e160,
        [[-1e308], [1e308]],  # the span itself overflows
    ],
    ids=["two-points", "uniform-1e160", "span"],
)
def test_pointset_rejects_an_overflowing_diameter(coords):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean ValueError, no overflow warning first
        with pytest.raises(ValueError, match="squared bounding-box diameter overflows"):
            PointSet(coords)


def test_pointset_accepts_a_finite_squared_diameter():
    assert PointSet([[0.0, 0.0], [9e153, 9e153]]).n == 2  # squared diameter 1.62e308


def test_pointset_immutable():
    p = PointSet([[1.0, 2.0]])
    with pytest.raises(ValueError):
        p.coords[0, 0] = 5.0


def test_pointset_equality_is_by_value():
    x = np.random.default_rng(5).random((20, 3))
    p = PointSet(x)
    assert p == PointSet(x.copy()) and not p != PointSet(x.copy())
    exact_mst(p)  # caches the tree on p alone
    assert p == PointSet(x)
    y = x.copy()
    y[7, 1] += 1e-9
    assert p != PointSet(y) and not p == PointSet(y)


def test_pointset_equality_across_shapes_and_types():
    p = PointSet(np.arange(6.0).reshape(3, 2))
    assert p != PointSet(np.arange(6.0).reshape(2, 3))
    assert p != PointSet(np.arange(6.0).reshape(6, 1))
    assert p != PointSet(np.arange(4.0).reshape(2, 2))
    assert p != p.coords.tolist() and not p == p.coords.tolist()
    assert p != "points" and p != None  # noqa: E711
    assert p.__eq__(p.coords) is NotImplemented  # other types decide for themselves


def test_pointset_is_not_hashable():
    with pytest.raises(TypeError):
        hash(PointSet([[0.0, 1.0]]))


def _cgroups(tmp_path, monkeypatch, line, quotas):
    """A fake cgroup v2 tree under tmp_path: quotas maps a cgroup path
    ("" for the root) to the text of its cpu.max, and line is this
    process's entry in /proc/self/cgroup."""
    root = tmp_path / "cgroup"
    root.mkdir()
    for path, text in quotas.items():
        (root / path).mkdir(parents=True, exist_ok=True)
        (root / path / "cpu.max").write_text(text)
    self_cgroup = tmp_path / "self_cgroup"
    self_cgroup.write_text(line)
    monkeypatch.setattr(core_mod, "_CGROUP_ROOT", str(root))
    monkeypatch.setattr(core_mod, "_SELF_CGROUP", str(self_cgroup))


@pytest.mark.parametrize(
    "text, cpus",
    [("200000 100000\n", 2), ("150000 100000\n", 2), ("50000 100000\n", 1), ("100000 100000\n", 1),
     ("max 100000\n", None), ("", None), ("garbage\n", None), ("100000 0\n", None)],
)
def test_cpu_quota_reads_the_cgroup_file(text, cpus, tmp_path, monkeypatch):
    # inside a cgroup namespace the process sits at the root
    _cgroups(tmp_path, monkeypatch, "0::/\n", {"": text})
    assert core_mod._cpu_quota() == cpus


def test_cpu_quota_without_the_file_is_none(tmp_path, monkeypatch):
    _cgroups(tmp_path, monkeypatch, "0::/\n", {})
    assert core_mod._cpu_quota() is None
    monkeypatch.setattr(core_mod, "_SELF_CGROUP", str(tmp_path / "absent"))
    assert core_mod._cpu_quota() is None


@pytest.mark.parametrize(
    "quotas, cpus",
    [
        ({"a/b": "100000 100000\n"}, 1),  # the process's own cgroup (systemd CPUQuota=, say)
        ({"a": "100000 100000\n", "a/b": "max 100000\n"}, 1),  # an ancestor's quota binds too
        ({"": "300000 100000\n", "a": "200000 100000\n", "a/b": "400000 100000\n"}, 2),  # the tightest wins
        ({"a/b": "max 100000\n", "a": "max 100000\n"}, None),
        ({"c": "100000 100000\n"}, None),  # a sibling's quota does not apply
    ],
)
def test_cpu_quota_takes_the_tightest_over_the_cgroup_and_its_ancestors(quotas, cpus, tmp_path, monkeypatch):
    _cgroups(tmp_path, monkeypatch, "1:name=systemd:/x\n0::/a/b\n", quotas)
    assert core_mod._cpu_quota() == cpus


def test_worker_limit_honours_the_cpu_quota(monkeypatch):
    monkeypatch.setattr(core_mod, "_cpu_quota", lambda: None)
    free = worker_limit()
    assert 1 <= free <= core_mod._MAX_WORKERS
    monkeypatch.setattr(core_mod, "_cpu_quota", lambda: 1)
    assert worker_limit() == 1
    monkeypatch.setattr(core_mod, "_cpu_quota", lambda: 64)
    assert worker_limit() == free


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_map_yields_in_id_order(workers):
    table = np.random.default_rng(6).random(40)  # inherited by the workers at fork

    def job(i):
        return i, float(table[i] * 3)

    ids = [17, 3, 39, 0, 8, 22, 5, 31]
    with fork_map(job, ids, workers) as results:
        assert list(results) == [job(i) for i in ids]


@needs_fork
def test_fork_map_runs_a_single_id_in_this_process():
    # one id starts no worker, however many the caller allows
    with fork_map(lambda i: os.getpid(), [0], 2) as results:
        assert list(results) == [os.getpid()]


@needs_fork
def test_fork_map_raises_a_worker_error():
    def job(i):
        if i == 5:
            raise ValueError("unit 5 failed")
        return i

    with pytest.raises(ValueError, match="unit 5 failed"):
        with fork_map(job, range(12), 2) as results:
            list(results)


@needs_fork
@pytest.mark.parametrize("finish", [None, lambda last: last], ids=["plain", "finish"])
def test_fork_map_drops_the_errors_of_ids_computed_past_the_last_result(finish):
    # while one worker holds id 0, the other computes ids 1, 2, 3, ... ahead;
    # those from 2 on fail, but the caller stops after id 0
    def job(i):
        if i == 0:
            time.sleep(0.2)
        if i >= 2:
            raise ValueError(f"unit {i} failed")
        return i

    with fork_map(job, range(8), 2, finish=finish) as results:
        assert next(results) == 0
        if finish:
            assert results.finish() == [0, 0]
    assert multiprocessing.active_children() == []


@needs_fork
def test_fork_map_raises_when_a_worker_dies(run_bounded):
    # a worker that exits without a reply loses its id; the parent must name
    # it and stop the other worker instead of waiting for it
    script = (
        "import multiprocessing, os, sys, time\n"
        "from ultrafit.core import fork_map\n"
        "def job(i):\n"
        "    if i == 7:\n"
        "        os._exit(1)\n"
        "    time.sleep(0.005)\n"
        "    return i\n"
        "t0 = time.perf_counter()\n"
        "try:\n"
        "    with fork_map(job, range(20), 2, label='unit') as results:\n"
        "        list(results)\n"
        "except RuntimeError as exc:\n"
        "    print(time.perf_counter() - t0, exc)\n"
        "else:\n"
        "    sys.exit('fork_map returned')\n"
        "assert multiprocessing.active_children() == []\n"
    )
    seconds, message = run_bounded(script, timeout=30).split(" ", 1)
    assert "unit 7" in message
    assert float(seconds) < 5


@needs_fork
def test_fork_map_stops_workers_mid_send_without_hanging(run_bounded):
    # every id from 3 on returns 16 MiB, so a worker is often sending when
    # the parent, done after four results, leaves the block and terminates it
    script = (
        "import multiprocessing\n"
        "import numpy as np\n"
        "from ultrafit.core import fork_map\n"
        "payload = np.ones(2**21, dtype=np.uint64)\n"
        "def job(i):\n"
        "    return payload if i >= 3 else i\n"
        "for _ in range(200):\n"
        "    with fork_map(job, range(10), 2) as results:\n"
        "        got = [next(results) for _ in range(4)]\n"
        "    assert got[:3] == [0, 1, 2] and (got[3] == payload).all()\n"
        "    assert multiprocessing.active_children() == []\n"
        "print('done')\n"
    )
    assert run_bounded(script, timeout=120).strip() == "done"


def _finish_job():
    """A job that keeps each id it computes in the process that computed
    it, and a finish step that returns (pid, the kept ids up to last, how
    often finish ran in that process)."""
    kept = []
    runs = []

    def job(i):
        kept.append(i)
        return i * i

    def finish(last):
        runs.append(last)
        return os.getpid(), sorted(i for i in kept if last is not None and i <= last), len(runs)

    return job, finish


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stop", [None, 0, 5, 11])
def test_fork_map_finish_runs_once_per_worker_on_the_last_id(workers, stop):
    # stop: the id after whose result the caller stops (None: before the first)
    job, finish = _finish_job()
    with fork_map(job, range(12), workers, finish=finish) as results:
        got = []
        if stop is not None:
            for value in results:
                got.append(value)
                if len(got) == stop + 1:
                    break
        done = results.finish()
    assert got == [i * i for i in range(0 if stop is None else stop + 1)]
    pids = [pid for pid, _, _ in done]
    assert len(done) == workers and len(set(pids)) == workers
    assert (os.getpid() in pids) == (workers == 1)
    assert all(runs == 1 for _, _, runs in done)
    # each id up to the last result was kept by exactly one process
    kept = sorted(i for _, ids, _ in done for i in ids)
    assert kept == list(range(0 if stop is None else stop + 1))
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_fork_map_raises_a_finish_error(workers):
    def finish(last):
        raise ValueError(f"finish failed after {last}")

    with pytest.raises(ValueError, match="finish failed after 3"):
        with fork_map(lambda i: i, range(8), workers, finish=finish) as results:
            for i in results:
                if i == 3:
                    break
            results.finish()
    assert multiprocessing.active_children() == []


@needs_fork
def test_fork_map_raises_when_a_worker_dies_in_finish(run_bounded):
    script = (
        "import multiprocessing, os, sys, time\n"
        "from ultrafit.core import fork_map\n"
        "def finish(last):\n"
        "    os._exit(1)\n"
        "t0 = time.perf_counter()\n"
        "try:\n"
        "    with fork_map(lambda i: i, range(20), 2, label='unit', finish=finish) as results:\n"
        "        list(results)\n"
        "        results.finish()\n"
        "except RuntimeError as exc:\n"
        "    print(time.perf_counter() - t0, exc)\n"
        "else:\n"
        "    sys.exit('fork_map returned')\n"
        "assert multiprocessing.active_children() == []\n"
    )
    seconds, message = run_bounded(script, timeout=30).split(" ", 1)
    assert "finishing its units" in message
    assert float(seconds) < 5


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(42)
    p = PointSet(rng.random((40, 6)))
    d = cross_distances(p.coords, p.coords)
    for _ in range(500):
        i, j, k = rng.integers(0, 40, 3)
        assert d[i, j] <= (d[i, k] + d[k, j]) * (1 + 1e-9)


def test_paired_matches_matrix_bitwise():
    rng = np.random.default_rng(3)
    x = rng.random((200, 16))
    u = rng.integers(0, 200, 500)
    v = rng.integers(0, 200, 500)
    full = cross_distances(x, x)
    pair = paired_distances(x[u], x[v])
    assert (pair == full[u, v]).all()


@pytest.mark.parametrize("d", [1, 3, 77])
@pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
def test_distance_matrix_matches_cdist_bitwise(n, d):
    rng = np.random.default_rng(n * 1000 + d)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, d)
    x[n // 2] = x[0]  # a duplicate: zeros off the diagonal
    got = distance_matrix(x)
    want = cross_distances(x, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dedupe_collapses_and_maps():
    p = PointSet([[0, 0], [0, 0], [1, 1]])
    q, groups = dedupe(p)
    assert q.n == 2
    assert q.coords.tolist() == [[0, 0], [1, 1]]
    assert groups == {0: [0, 1], 1: [2]}


def test_dedupe_identity_when_distinct():
    p = PointSet([[0, 0], [1, 1]])
    q, groups = dedupe(p)
    assert q.n == 2
    assert (q.coords == p.coords).all()
    assert groups == {0: [0], 1: [1]}


def test_dedupe_all_same():
    p = PointSet([[2, 2], [2, 2], [2, 2]])
    q, groups = dedupe(p)
    assert q.n == 1
    assert groups == {0: [0, 1, 2]}


def test_dedupe_preserves_first_occurrence_order():
    p = PointSet([[5, 0], [1, 0], [5, 0], [0, 0]])
    q, groups = dedupe(p)
    assert q.coords[:, 0].tolist() == [5, 1, 0]
    assert groups == {0: [0, 2], 1: [1], 2: [3]}


def test_canonical_edge_order():
    u = [3, 0, 2, 1]
    v = [1, 2, 0, 0]
    w = [1.0, 2.0, 1.0, 1.0]
    cu, cv, cw = canonical_edges(u, v, w)
    triples = list(zip(cu.tolist(), cv.tolist(), cw.tolist()))
    assert triples == [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (0, 2, 2.0)]


def _lexsort_canonical(u, v, w):
    """The three-key sort that canonical_edges replaces, kept as the oracle."""
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w, dtype=np.float64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo, w))
    return lo[order], hi[order], w[order]


def _edge_lists():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 40, 300)
        v = rng.integers(0, 40, 300)
        w = rng.integers(0, 5, 300) / 4.0  # few distinct weights: long tie runs
        if seed % 2:
            w = w + rng.random(300) * 1e-3 * (rng.random(300) < 0.5)  # ties mixed with unique weights
        # the same pairs again with swapped endpoints, and repeated pairs with new weights
        u, v, w = np.concatenate([u, v, u]), np.concatenate([v, u, v]), np.concatenate([w, w, w[::-1]])
        if seed == 3:
            w[rng.random(len(w)) < 0.1] = np.nan
        yield u, v, w
    rng = np.random.default_rng(11)
    yield rng.integers(0, 1000, 5000), rng.integers(0, 1000, 5000), rng.random(5000)  # no ties
    yield [], [], []


@pytest.mark.parametrize(
    "u, v, w", list(_edge_lists()), ids=["ties", "mixed", "ties2", "mixed-nan", "no-ties", "empty"]
)
def test_canonical_edges_matches_lexsort(u, v, w):
    got = canonical_edges(u, v, w)
    want = _lexsort_canonical(u, v, w)
    assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
    assert np.array_equal(got[2], want[2], equal_nan=True)
