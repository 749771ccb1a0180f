"""Systolic-array GEMM unit simulator."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "buffers": ("BufferBudget", "budget_from_params"),
    "systolic": ("GemmCost", "SystolicArray", "SystolicParams", "gemm_dims"),
})

__all__ = [
    "BufferBudget",
    "GemmCost",
    "SystolicArray",
    "SystolicParams",
    "budget_from_params",
    "gemm_dims",
]
