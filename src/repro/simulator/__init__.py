"""Cycle-level + functional simulator of the Tandem Processor."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "alu": (
        "ALU_OPS", "CALCULUS_OPS", "COMPARISON_OPS", "cast_value", "wrap32",
    ),
    "analytic": ("AnalyticNest", "ProgramMeta", "estimate"),
    "dae": ("DataAccessEngine", "DramStore", "TileTransfer"),
    "energy": ("EnergyLedger",),
    "iterators": ("IteratorEntry", "IteratorError", "IteratorTable"),
    "machine": (
        "MachineError", "MachineResult", "SyncEvent",
        "TandemMachine", "charge_nest",
    ),
    "params": (
        "DramParams", "EnergyParams", "SimParams", "TandemParams",
        "VpuOverlay",
    ),
    "pipeline": ("BodyOpMeta", "NestTiming", "nest_points", "nest_timing"),
    "scratchpad": ("Scratchpad", "ScratchpadError", "ScratchpadFile"),
})

__all__ = [
    "ALU_OPS",
    "AnalyticNest",
    "BodyOpMeta",
    "CALCULUS_OPS",
    "COMPARISON_OPS",
    "DataAccessEngine",
    "DramParams",
    "DramStore",
    "EnergyLedger",
    "EnergyParams",
    "IteratorEntry",
    "IteratorError",
    "IteratorTable",
    "MachineError",
    "MachineResult",
    "NestTiming",
    "ProgramMeta",
    "Scratchpad",
    "ScratchpadError",
    "ScratchpadFile",
    "SimParams",
    "SyncEvent",
    "TandemMachine",
    "TandemParams",
    "TileTransfer",
    "VpuOverlay",
    "cast_value",
    "charge_nest",
    "estimate",
    "nest_points",
    "nest_timing",
    "wrap32",
]
