"""Autoregressive LLM serving: KV-cache decode steps + batching sweeps.

``repro.llm`` makes single-token decoding a first-class citizen of the
compiled flow: :func:`build_step` emits prefill/decode graphs whose
KV-cache residency is explicit (``CacheAppend`` stores only the new
tokens' K/V slice; the cache tensors alias in DRAM),
:class:`DecodeSession` drives multi-step generation through the
detailed machine or the integer reference, and :mod:`repro.llm.sweep`
reduces continuous-vs-one-shot batching simulations to the
``repro-llm-report-v1`` schema. Entry points: ``repro decode`` and
``repro serve --llm``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "decode": (
        "LLM_CONFIGS", "DecodeSession", "DecodeStep", "DecodeStepCosts",
        "LLMConfig", "StepRecord", "available_llm_configs", "build_step",
        "decode_step_costs", "embed_table", "get_llm_config", "rope_tables",
        "step_weights",
    ),
    "sweep": (
        "DEFAULT_SLO_ATTAINMENT", "LLM_SCHEMA", "goodput_at_slo",
        "llm_grid", "llm_report", "llm_table", "validate_llm_report",
    ),
})

__all__ = [
    "DEFAULT_SLO_ATTAINMENT",
    "LLM_CONFIGS",
    "LLM_SCHEMA",
    "DecodeSession",
    "DecodeStep",
    "DecodeStepCosts",
    "LLMConfig",
    "StepRecord",
    "available_llm_configs",
    "build_step",
    "decode_step_costs",
    "embed_table",
    "get_llm_config",
    "goodput_at_slo",
    "llm_grid",
    "llm_report",
    "llm_table",
    "rope_tables",
    "step_weights",
    "validate_llm_report",
]
