"""Serving layer: a multi-device NPU-Tandem fleet simulator.

Layers a discrete-event serving simulation on top of the ``npu`` /
``runtime`` stack: load generators (:mod:`~repro.serving.workload`,
and the LLM workload in :mod:`~repro.serving.continuous`), admission
control, batching and resilience policies
(:mod:`~repro.serving.scheduler`), one routed device-fleet event core
(:mod:`~repro.serving.scale`, exported as both ``FleetSimulator`` and
``ScaledFleetSimulator``) that also runs continuous and one-shot LLM
batching, with fault injection, retries, a circuit breaker, streaming
monitoring (:mod:`~repro.serving.monitor`) and cell autoscaling
(:mod:`~repro.serving.autoscale`, a $/device-hour cost model), SLO
metrics (:mod:`~repro.serving.metrics`) and the
``serving_sweep`` grid (:mod:`~repro.serving.sweep`). Entry points:
``python -m repro serve`` and the ``serving_sweep`` harness experiment;
see ``docs/operations.md`` for the capacity-planning guide.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "autoscale": (
        "AUTOSCALE_ACTIONS", "AutoscaleConfig", "AutoscaleController",
        "CostModel",
    ),
    "continuous": (
        "DEFAULT_LLM_SLO_MULTIPLIER", "LLM_SCHEDULERS", "LLMRequest",
        "LLMServiceCosts", "LLMWorkload", "llm_poisson_requests", "llm_policy",
    ),
    "fleet": ("FleetSimulator",),
    "metrics": (
        "DEFAULT_SLO_MULTIPLIER", "LLMServingReport", "ServingReport",
        "percentile",
    ),
    "monitor": (
        "MONITOR_SCHEMA", "FleetMonitor", "MonitorConfig", "MonitorPoint",
        "monitor_table", "run_monitor_point", "validate_monitor_report",
    ),
    "scale": (
        "SCALE_SCHEMA", "FleetCell", "ScaledFleetSimulator", "run_cell",
        "scale_table", "tail_bounded_throughput",
        "validate_fleet_scale_report",
    ),
    "scheduler": (
        "BATCH_POLICIES", "RESILIENCE_POLICIES", "ROUTING_POLICIES",
        "AdmissionPolicy", "BatchPolicy", "ModelCost", "ResiliencePolicy",
        "ServiceCosts",
    ),
    "sweep": (
        "by_config", "default_grid", "knee_sharpness",
        "max_throughput_at_slo", "sweep_table",
    ),
    "workload": (
        "REQUEST_TRACE_SPEC", "TRACE_SCHEMA", "Arrivals", "ClosedLoop",
        "DiurnalTrace", "OpenLoopPoisson", "Request", "TraceFileError",
        "TraceReplay", "Workload", "load_trace", "save_trace", "zoo_mix_trace",
    ),
})

__all__ = [
    "AUTOSCALE_ACTIONS",
    "BATCH_POLICIES",
    "DEFAULT_LLM_SLO_MULTIPLIER",
    "DEFAULT_SLO_MULTIPLIER",
    "LLM_SCHEDULERS",
    "REQUEST_TRACE_SPEC",
    "RESILIENCE_POLICIES",
    "ROUTING_POLICIES",
    "SCALE_SCHEMA",
    "TRACE_SCHEMA",
    "AdmissionPolicy",
    "Arrivals",
    "AutoscaleConfig",
    "AutoscaleController",
    "BatchPolicy",
    "ClosedLoop",
    "CostModel",
    "DiurnalTrace",
    "FleetCell",
    "FleetSimulator",
    "FleetMonitor",
    "LLMRequest",
    "LLMServiceCosts",
    "LLMServingReport",
    "LLMWorkload",
    "MONITOR_SCHEMA",
    "ModelCost",
    "MonitorConfig",
    "MonitorPoint",
    "OpenLoopPoisson",
    "Request",
    "ResiliencePolicy",
    "ScaledFleetSimulator",
    "ServiceCosts",
    "ServingReport",
    "TraceFileError",
    "TraceReplay",
    "Workload",
    "llm_poisson_requests",
    "llm_policy",
    "monitor_table",
    "by_config",
    "default_grid",
    "knee_sharpness",
    "load_trace",
    "max_throughput_at_slo",
    "percentile",
    "run_cell",
    "run_monitor_point",
    "save_trace",
    "scale_table",
    "sweep_table",
    "tail_bounded_throughput",
    "validate_fleet_scale_report",
    "validate_monitor_report",
    "zoo_mix_trace",
]
