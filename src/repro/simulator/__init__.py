"""Cycle-level + functional simulator of the Tandem Processor."""

from .alu import ALU_OPS, CALCULUS_OPS, COMPARISON_OPS, cast_value, wrap32
from .analytic import AnalyticNest, ProgramMeta, estimate
from .dae import DataAccessEngine, DramStore, TileTransfer
from .energy import EnergyLedger
from .iterators import IteratorEntry, IteratorError, IteratorTable
from .machine import (
    MachineError,
    MachineResult,
    PermuteBinding,
    SyncEvent,
    TandemMachine,
    charge_nest,
)
from .params import DramParams, EnergyParams, SimParams, TandemParams, VpuOverlay
from .pipeline import BodyOpMeta, NestTiming, nest_points, nest_timing
from .scratchpad import Scratchpad, ScratchpadError, ScratchpadFile

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
    "PermuteBinding",
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
