"""Characterization and reporting (Section 2 + the figure breakdowns)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "area": ("AreaBreakdown", "tandem_area"),
    "dse": (
        "DesignPoint", "DseResult", "config_for", "pareto_frontier", "sweep",
    ),
    "breakdown": (
        "figure3", "figure17", "figure22", "figure24", "figure25",
        "runtime_fractions",
    ),
    "opstats": (
        "CumulativeOps", "ModelOpStats", "cumulative_usage", "model_stats",
        "operator_diversity",
    ),
    "overheads": ("OverheadResult", "average_overheads", "overhead_analysis"),
    "roofline_points": ("RooflinePoint", "ridge_point", "roofline"),
    "utilization": ("UtilizationComparison", "utilization_comparison"),
})

__all__ = [
    "DesignPoint",
    "DseResult",
    "config_for",
    "pareto_frontier",
    "sweep",
    "AreaBreakdown",
    "CumulativeOps",
    "ModelOpStats",
    "OverheadResult",
    "RooflinePoint",
    "UtilizationComparison",
    "average_overheads",
    "cumulative_usage",
    "figure17",
    "figure22",
    "figure24",
    "figure25",
    "figure3",
    "model_stats",
    "operator_diversity",
    "overhead_analysis",
    "ridge_point",
    "roofline",
    "runtime_fractions",
    "tandem_area",
    "utilization_comparison",
]
