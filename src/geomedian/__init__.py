"""Spatial-median based simultaneous inference for high-dimensional centers.

Point estimation (spatial median, geometric median-of-means), a multiplier
bootstrap for max-norm calibration, simultaneous confidence intervals, global
tests, coordinate-wise screening with FDR control, relative-efficiency
estimation, and a reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapDraws,
    bootstrap_mean,
    bootstrap_spatial_median,
    conditional_variance,
    quantile,
)
from .data import (
    Sample,
    ShapeMatrix,
    ar1_shape,
    read_csv,
    symmetric_sqrt,
    validate_sample,
    write_csv,
)
from .estimator import (
    SpatialMedianFit,
    bahadur_remainder,
    gmom,
    spatial_median,
)
from .harness import (
    MetricsTable,
    ScenarioSpec,
    emit_report,
    run_are,
    run_coverage,
    run_fdr,
    run_scenario,
    run_size_power,
    scenario_from_json,
)
from .inference import (
    AreReport,
    FdrResult,
    GlobalTestResult,
    SciResult,
    are_analytic,
    are_bootstrap,
    bh_fdr,
    fdr_screen,
    global_test_cq,
    global_test_mean,
    global_test_median,
    global_test_wpl,
    marginal_stats,
    sci,
)
from .simdata import DistributionSpec, ThetaPattern, draw, theta_vector
from .streams import child_seed, substream

__all__ = [
    "AreReport",
    "BootstrapDraws",
    "DistributionSpec",
    "FdrResult",
    "GlobalTestResult",
    "MetricsTable",
    "Sample",
    "ScenarioSpec",
    "SciResult",
    "ShapeMatrix",
    "SpatialMedianFit",
    "ThetaPattern",
    "ar1_shape",
    "are_analytic",
    "are_bootstrap",
    "bahadur_remainder",
    "bh_fdr",
    "bootstrap_mean",
    "bootstrap_spatial_median",
    "child_seed",
    "conditional_variance",
    "draw",
    "emit_report",
    "fdr_screen",
    "global_test_cq",
    "global_test_mean",
    "global_test_median",
    "global_test_wpl",
    "gmom",
    "marginal_stats",
    "quantile",
    "read_csv",
    "run_are",
    "run_coverage",
    "run_fdr",
    "run_scenario",
    "run_size_power",
    "scenario_from_json",
    "sci",
    "spatial_median",
    "substream",
    "symmetric_sqrt",
    "theta_vector",
    "validate_sample",
    "write_csv",
]
