"""Distortion measurement.

Distortion is the exact all-pairs statistic max (and min, mean) of
ultrametric distance over true distance.  Every pair is accounted for at
its LCA by Dendrogram.cross_stats (max, min) and Dendrogram.inv_sums
(mean); no sampling, a max statistic would miss its argmax otherwise.
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import PointSet
from .dendro import Dendrogram, normalize


@dataclass
class DistortionReport:
    max_ratio: float
    min_ratio: float
    argmax_pair: tuple[int, int]
    n: int
    algorithm: str = ""
    scale: float | None = None
    _mean: float | Callable[[], float] = field(default=float("nan"), repr=False, compare=False)

    @property
    def mean_ratio(self) -> float:
        """Mean ratio over all pairs; its scan runs on first read."""
        if callable(self._mean):
            self._mean = self._mean()
        return self._mean

    def to_dict(self) -> dict:
        return {
            "max": self.max_ratio,
            "min": self.min_ratio,
            "mean": self.mean_ratio,
            "argmax_pair": list(self.argmax_pair),
            "n": self.n,
            "algorithm": self.algorithm,
            "scale": self.scale,
        }


def distortion(
    points: PointSet,
    dendro: Dendrogram,
    normalize_first: bool = False,
    algorithm: str = "",
) -> DistortionReport:
    """Exact all-pairs ratio scan of LCA height / Euclidean distance.

    With normalize_first the dendrogram is scaled to dominate the metric
    first and the scale is reported.  Zero pairwise distances are refused:
    deduplicate the input instead.

    Division is monotone, so a node's largest ratio is its height over its
    closest cross pair and its smallest is the height over its farthest;
    argmax_pair is the first closest pair of the first node attaining the
    max.  The mean sums height * (sum of 1 / distance) per node, equal to
    the pairwise mean up to float rounding; that sum scans every pair with
    cdist, so it runs only when mean_ratio is first read.
    """
    if points.n != dendro.n:
        raise ValueError("point set and dendrogram sizes differ")
    if points.n < 2:
        raise ValueError("distortion needs at least 2 points")
    scale = None
    if normalize_first:
        dendro, scale = normalize(dendro, points)
    stats = dendro.cross_stats(points)
    zero = np.flatnonzero(stats.dmin == 0)
    if len(zero):
        a, b = stats.pair[zero[0]].tolist()
        raise ValueError(f"zero distance between points {a} and {b}: dedupe first")
    h = dendro.height
    top = int(np.argmax(h / stats.dmin))
    arg = stats.pair[top].tolist()
    return DistortionReport(
        max_ratio=float(h[top] / stats.dmin[top]),
        min_ratio=float((h / stats.dmax).min()),
        argmax_pair=(min(arg), max(arg)),
        n=points.n,
        algorithm=algorithm,
        scale=scale,
        _mean=lambda: float((h * dendro.inv_sums(points)).sum()) / (points.n * (points.n - 1) // 2),
    )

