"""Compare every fitter on one clustered dataset, normalized.

Reproduces the usual comparison table: normalized max distortion plus
wall time per algorithm.  Single linkage under-estimates distances and
gets scaled up; the exact fitter is the baseline nothing can beat.

Wall times are marginal costs in ALGORITHMS order: acc, exact and single
share the exact MST stored on the point set, so acc, the first of them,
pays for it and the other two reuse it.
"""

import time

import numpy as np

from ultrafit import ALGORITHMS, PointSet, SpannerConfig, dedupe, distortion, run_algorithm

rng = np.random.default_rng(3)
centers = rng.random((8, 12)) * 5
labels = rng.integers(0, 8, 1200)
points = PointSet(centers[labels] + rng.standard_normal((1200, 12)) * 0.4)
points, _ = dedupe(points)
config = SpannerConfig(gamma=2.5, seed=0)

print(f"n={points.n} d={points.d}")
print(f"{'algorithm':<10} {'max_distortion':>15} {'scale':>10} {'wall_s':>8}")
rows = []
for name in ALGORITHMS:
    t0 = time.perf_counter()
    result = run_algorithm(name, points, config)
    wall = time.perf_counter() - t0
    report = distortion(points, result.dendrogram, normalize_first=True, algorithm=name)
    rows.append((name, report.max_ratio))
    print(f"{name:<10} {report.max_ratio:>15.3f} {report.scale:>10.4f} {wall:>8.2f}")

by_algo = dict(rows)
assert all(by_algo["exact"] <= v * (1 + 1e-12) for v in by_algo.values())
print("\nexact is the floor for every method, as guaranteed.")
