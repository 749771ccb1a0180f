"""NPU-Tandem: GEMM unit + Tandem Processor integration."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("NPUConfig", "iso_a100_config", "table3_config"),
    "controller": ("BlockSchedule", "ExecutionController", "FsmState"),
    "npu": ("NPUTandem",),
    "runner": ("FunctionalRunner", "to_tile_transfer"),
    "trace": (
        "TraceEvent", "overlap_fraction", "render_timeline", "trace_block",
        "trace_model",
    ),
})

__all__ = [
    "TraceEvent",
    "overlap_fraction",
    "render_timeline",
    "trace_block",
    "trace_model",
    "BlockSchedule",
    "ExecutionController",
    "FsmState",
    "FunctionalRunner",
    "NPUConfig",
    "NPUTandem",
    "iso_a100_config",
    "table3_config",
    "to_tile_transfer",
]
