"""Fault injection + chaos sweeps for the serving fleet.

Declarative, seeded fault plans (:mod:`~repro.faults.plan`), their
deterministic materialization against one fleet configuration
(:mod:`~repro.faults.injector`), word-level corruption of compiled
Tandem programs shared with the verifier fuzz suite
(:mod:`~repro.faults.corrupt`), and the ``repro chaos`` sweep that
measures how much goodput each resilience policy retains as fault rates
ramp (:mod:`~repro.faults.chaos`).

Every stochastic decision is pinned by ``REPRO_SEED``: the same plan
against the same workload replays the exact same disaster, serially or
under ``--jobs``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "chaos": (
        "CHAOS_SCHEMA", "DEFAULT_SCALES", "chaos_grid", "chaos_report",
        "chaos_table", "validate_chaos_report",
    ),
    "corrupt": (
        "CORRUPTION_KINDS", "corrupt_word", "model_sites", "word_sites",
    ),
    "injector": ("FAULT_KINDS", "FaultInjector"),
    "plan": (
        "BurstSpec", "CorruptSpec", "CrashSpec", "FaultPlan",
        "FlakyCompileSpec", "SlowdownSpec", "TileFaultSpec", "default_plan",
    ),
})

__all__ = [
    "CHAOS_SCHEMA",
    "CORRUPTION_KINDS",
    "DEFAULT_SCALES",
    "FAULT_KINDS",
    "BurstSpec",
    "CorruptSpec",
    "CrashSpec",
    "FaultInjector",
    "FaultPlan",
    "FlakyCompileSpec",
    "SlowdownSpec",
    "TileFaultSpec",
    "chaos_grid",
    "chaos_report",
    "chaos_table",
    "corrupt_word",
    "default_plan",
    "model_sites",
    "validate_chaos_report",
    "word_sites",
]
