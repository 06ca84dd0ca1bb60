"""Ultrametric fitting for Euclidean point sets.

A fast approximate pipeline (multi-scale spanner, Kruskal, 5-estimated
cut weights, cartesian tree), an exact optimal baseline, the classic
linkage baselines, and an exact distortion-evaluation harness.
"""

from .core import PointSet, dedupe, distance
from .cutweight import approximate_cut_weights, exact_cut_weights, kt_factor
from .dendro import (
    Dendrogram,
    build_dendrogram,
    contract_duplicates,
    expand_duplicates,
    format_merge_list,
    from_merge_rows,
    normalize,
    parse_merge_list,
    to_merge_rows,
    to_newick,
)
from .evaluate import DistortionReport, distortion
from .linkage import METHODS, agglomerate, single_linkage
from .mst import (
    DisconnectedGraphError,
    SpanningTree,
    connect_components,
    exact_mst,
    kruskal,
)
from .pipeline import (
    ALGORITHMS,
    FitResult,
    approx_acc_ult,
    approx_ult,
    brute_force_opt_alpha,
    farach_exact,
    run_algorithm,
)
from .spanner import SpannerConfig, SpannerGraph, build_spanner, estimate_scales, verify_stretch

__version__ = "0.1.0"

__all__ = [
    "PointSet", "dedupe", "distance",
    "approximate_cut_weights", "exact_cut_weights", "kt_factor",
    "Dendrogram", "build_dendrogram", "contract_duplicates", "expand_duplicates", "format_merge_list",
    "from_merge_rows", "normalize", "parse_merge_list", "to_merge_rows", "to_newick",
    "DistortionReport", "distortion",
    "METHODS", "agglomerate", "single_linkage",
    "DisconnectedGraphError", "SpanningTree", "connect_components",
    "exact_mst", "kruskal",
    "ALGORITHMS", "FitResult", "approx_acc_ult", "approx_ult",
    "brute_force_opt_alpha", "farach_exact", "run_algorithm",
    "SpannerConfig", "SpannerGraph", "build_spanner", "estimate_scales", "verify_stretch",
    "__version__",
]
