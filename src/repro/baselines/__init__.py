"""Comparison design points (Section 2.3 classes)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "cpu": ("CpuModel", "CpuParams"),
    "cpu_fallback": ("CpuFallbackDesign",),
    "dedicated": ("DedicatedUnitsDesign",),
    "gemmini": ("GemminiDesign", "RiscvParams", "runtime_breakdown"),
    "gpu": (
        "A100", "JETSON_XAVIER_NX", "RTX_2080_TI", "GpuDesign", "GpuParams",
    ),
    "pcie": ("PcieLink", "PcieParams"),
    "vpu": ("TpuVpuDesign", "VpuFlags"),
})

__all__ = [
    "A100",
    "CpuFallbackDesign",
    "CpuModel",
    "CpuParams",
    "DedicatedUnitsDesign",
    "GemminiDesign",
    "GpuDesign",
    "GpuParams",
    "JETSON_XAVIER_NX",
    "PcieLink",
    "PcieParams",
    "RTX_2080_TI",
    "RiscvParams",
    "TpuVpuDesign",
    "VpuFlags",
    "runtime_breakdown",
]
