"""Experiment harness: figure/table registry + paper-vs-measured reports."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "experiments": (
        "EXPERIMENTS", "Experiment", "all_experiment_ids", "run_experiment",
    ),
    "paper_data": ("PAPER",),
    "report": ("paper_vs_measured", "render_table"),
})

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "PAPER",
    "all_experiment_ids",
    "paper_vs_measured",
    "render_table",
    "run_experiment",
]
