"""Serving layer: a multi-device NPU-Tandem fleet simulator.

Layers a discrete-event serving simulation on top of the ``npu`` /
``runtime`` stack: load generators (:mod:`~repro.serving.workload`),
admission control, batching and resilience policies
(:mod:`~repro.serving.scheduler`), one routed device-fleet event core
(:mod:`~repro.serving.scale`, exported as both ``FleetSimulator`` and
``ScaledFleetSimulator``) with fault injection, retries, a circuit
breaker, streaming monitoring (:mod:`~repro.serving.monitor`) and
cell autoscaling (:mod:`~repro.serving.autoscale`, a $/device-hour
cost model), SLO metrics (:mod:`~repro.serving.metrics`) and the
``serving_sweep`` grid (:mod:`~repro.serving.sweep`). Entry points:
``python -m repro serve`` and the ``serving_sweep`` harness experiment;
see ``docs/operations.md`` for the capacity-planning guide.
"""

from .autoscale import (
    AUTOSCALE_ACTIONS,
    AutoscaleConfig,
    AutoscaleController,
    CostModel,
)
from .continuous import (
    DEFAULT_LLM_SLO_MULTIPLIER,
    LLM_SCHEDULERS,
    ContinuousBatcher,
    LLMRequest,
    LLMServiceCosts,
    OneShotBatcher,
    llm_poisson_requests,
    make_llm_batcher,
)
from .fleet import FleetSimulator, simulate
from .metrics import (
    DEFAULT_SLO_MULTIPLIER,
    LLMServingReport,
    ServingReport,
    percentile,
)
from .monitor import (
    MONITOR_SCHEMA,
    FleetMonitor,
    LLMMonitor,
    MonitorConfig,
    MonitorPoint,
    monitor_table,
    run_monitor_point,
    validate_monitor_report,
)
from .scale import (
    ROUTING_POLICIES,
    SCALE_SCHEMA,
    ScaledFleetSimulator,
    ScalePoint,
    run_scale_point,
    scale_table,
    tail_bounded_throughput,
    validate_fleet_scale_report,
)
from .scheduler import (
    BATCH_POLICIES,
    RESILIENCE_POLICIES,
    AdmissionPolicy,
    BatchPolicy,
    Launch,
    ModelCost,
    ResiliencePolicy,
    ServiceCosts,
    Wait,
    plan_batch,
)
from .sweep import (
    SweepPoint,
    by_config,
    default_grid,
    knee_sharpness,
    max_throughput_at_slo,
    run_point,
    run_sweep,
    sweep_table,
)
from .workload import (
    TRACE_SCHEMA,
    ClosedLoop,
    DiurnalTrace,
    OpenLoopPoisson,
    Request,
    TraceReplay,
    Workload,
    load_trace,
    save_trace,
    zoo_mix_trace,
)

__all__ = [
    "AUTOSCALE_ACTIONS",
    "BATCH_POLICIES",
    "DEFAULT_LLM_SLO_MULTIPLIER",
    "DEFAULT_SLO_MULTIPLIER",
    "LLM_SCHEDULERS",
    "RESILIENCE_POLICIES",
    "ROUTING_POLICIES",
    "SCALE_SCHEMA",
    "TRACE_SCHEMA",
    "AdmissionPolicy",
    "AutoscaleConfig",
    "AutoscaleController",
    "BatchPolicy",
    "ClosedLoop",
    "ContinuousBatcher",
    "CostModel",
    "DiurnalTrace",
    "FleetSimulator",
    "FleetMonitor",
    "LLMMonitor",
    "LLMRequest",
    "LLMServiceCosts",
    "LLMServingReport",
    "Launch",
    "MONITOR_SCHEMA",
    "ModelCost",
    "MonitorConfig",
    "MonitorPoint",
    "OneShotBatcher",
    "OpenLoopPoisson",
    "Request",
    "ResiliencePolicy",
    "ScalePoint",
    "ScaledFleetSimulator",
    "ServiceCosts",
    "ServingReport",
    "SweepPoint",
    "TraceReplay",
    "Wait",
    "Workload",
    "llm_poisson_requests",
    "make_llm_batcher",
    "monitor_table",
    "by_config",
    "default_grid",
    "knee_sharpness",
    "load_trace",
    "max_throughput_at_slo",
    "percentile",
    "plan_batch",
    "run_monitor_point",
    "run_point",
    "run_scale_point",
    "run_sweep",
    "save_trace",
    "scale_table",
    "simulate",
    "sweep_table",
    "tail_bounded_throughput",
    "validate_fleet_scale_report",
    "validate_monitor_report",
    "zoo_mix_trace",
]
