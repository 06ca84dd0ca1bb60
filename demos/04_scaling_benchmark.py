"""Growth-rate comparison: the approximate pipeline vs average linkage.

Emits one row per (algorithm, n) with the wall time of one fit and its
stage breakdown, ready for a log-log plot.  The quadratic baseline falls
behind quickly; on this machine the crossover sits around a thousand
points.
"""

import time

import numpy as np

from ultrafit import PointSet, SpannerConfig, run_algorithm

rng = np.random.default_rng(11)
config = SpannerConfig(gamma=2.5, seed=1)

print(f"{'n':>6} {'algorithm':<10} {'wall_ms':>10}  stage breakdown (ms)")
for n in (500, 1000, 2000, 4000, 8000):
    points = PointSet(rng.random((n, 16)))
    for name in ("approx", "average"):
        t0 = time.perf_counter()
        res = run_algorithm(name, points, config)
        wall_ms = (time.perf_counter() - t0) * 1e3
        stages = {k: round(v) for k, v in res.timings_ms.items()}
        print(f"{n:>6} {name:<10} {wall_ms:>10.1f}  {stages}")
