"""The LLM serving sweep: scheduler x arrival-rate, schema-tagged.

``repro serve --llm`` runs a grid of one-shot vs continuous batching
points over an offered-rate ladder and reduces the per-point
:class:`~repro.serving.metrics.LLMServingReport` rows to the headline
the continuous-batching literature predicts: at equal SLO, continuous
batching sustains strictly more goodput than one-shot dynamic batching,
because slots freed by short requests are refilled immediately instead
of decoding padding until the longest member finishes.

Work items are :class:`~repro.serving.scale.FleetCell` values carrying
their own :class:`LLMServiceCosts`, fanned out as ``parallel_map(run_cell,
cells, jobs=...)``; every cell is a pure function of ``(REPRO_SEED,
cell)``, so serial and ``--jobs N`` sweeps produce byte-identical
reports.

The JSON report carries a ``schema`` tag (``repro-llm-report-v1``) and
passes :func:`validate_llm_report`, which CI's llm-smoke job runs
against a fresh sweep.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runtime import knobs
from ..schema import check
from ..serving.continuous import (
    LLM_SCHEDULERS,
    LLMServiceCosts,
    LLMWorkload,
    llm_policy,
)
from ..serving.metrics import LLMServingReport
from ..serving.scale import FleetCell

LLM_SCHEMA = "repro-llm-report-v1"

#: Rate ladder as fractions of the estimated saturation throughput.
DEFAULT_LOAD_FRACTIONS = (0.1, 0.25, 0.5, 0.8)
DEFAULT_SLO_ATTAINMENT = 0.95


def llm_grid(costs: Optional[LLMServiceCosts] = None,
             config: str = "gpt2_rms",
             schedulers: Sequence[str] = LLM_SCHEDULERS,
             rates: Optional[Sequence[float]] = None,
             duration_s: float = 10.0,
             max_slots: int = 8,
             prompt_range: Tuple[int, int] = (8, 64),
             output_range: Tuple[int, int] = (4, 64)) -> List[FleetCell]:
    """The scheduler x rate grid, in a stable order.

    With no explicit ``rates``, the ladder is anchored to the costs'
    estimated saturation throughput (:data:`DEFAULT_LOAD_FRACTIONS` of
    it), so the sweep stays meaningful when the underlying cycle model
    shifts.
    """
    costs = costs or LLMServiceCosts.resolve(config)
    if rates is None:
        mean_prompt = sum(prompt_range) / 2.0
        mean_output = sum(output_range) / 2.0
        saturation = costs.saturation_rps(max_slots, mean_prompt,
                                          mean_output)
        rates = tuple(round(saturation * f, 2)
                      for f in DEFAULT_LOAD_FRACTIONS)
    return [FleetCell(
                sim=dict(costs=costs,
                         batch_policy=llm_policy(scheduler, max_slots)),
                workload=partial(LLMWorkload.poisson, rate, duration_s,
                                 tuple(prompt_range), tuple(output_range)),
                rate_rps=rate)
            for scheduler in schedulers
            for rate in rates]


def goodput_at_slo(rows: Sequence[Dict[str, Any]],
                   attainment: float = DEFAULT_SLO_ATTAINMENT) -> float:
    """Highest goodput among rows meeting the SLO-attainment bar."""
    eligible = [row["goodput_rps"] for row in rows
                if row["slo_attainment"] >= attainment]
    return max(eligible, default=0.0)


def llm_report(reports: Sequence[LLMServingReport]) -> Dict[str, Any]:
    """Reduce a sweep to the schema-tagged LLM serving report.

    The summary keeps, per scheduler, the best goodput among points
    with >= 95 % SLO attainment — the "req/s at SLO" headline — plus
    the cross-scheduler comparison the benchmark asserts on.
    """
    if not reports:
        raise ValueError("empty LLM sweep")
    rows = [report.as_dict() for report in reports]
    summary: Dict[str, Any] = {}
    for scheduler in dict.fromkeys(r.scheduler for r in reports):
        mine = [r for r in rows if r["scheduler"] == scheduler]
        summary[scheduler] = {
            "goodput_at_slo_rps": goodput_at_slo(mine),
            "best_goodput_rps": max(r["goodput_rps"] for r in mine),
            "ttft_p95_ms_at_min_rate": mine[0]["ttft_p95_ms"],
            "itl_p95_ms_at_min_rate": mine[0]["itl_p95_ms"],
        }
    if {"continuous", "oneshot"} <= set(summary):
        summary["continuous_beats_oneshot"] = bool(
            summary["continuous"]["goodput_at_slo_rps"]
            > summary["oneshot"]["goodput_at_slo_rps"])
    first = reports[0]
    return {
        "schema": LLM_SCHEMA,
        "seed": knobs.get("REPRO_SEED"),
        "config": first.config,
        "max_slots": first.max_slots,
        "kv_budget_tokens": first.kv_budget_tokens,
        "slo_multiplier": first.slo_multiplier,
        "slo_attainment_bar": DEFAULT_SLO_ATTAINMENT,
        "duration_s": first.duration_s,
        "rows": rows,
        "summary": summary,
    }


#: Shape of an LLM serving report (:func:`llm_report`).
LLM_SPEC = {"keys": {
    "schema": {"enum": [LLM_SCHEMA]},
    "seed": "int", "config": "str", "max_slots": "int",
    "kv_budget_tokens": "int", "slo_multiplier": "number",
    "slo_attainment_bar": "number", "duration_s": "number",
    "rows": {"min": 1, "items": {"keys": {
        "scheduler": {"enum": LLM_SCHEDULERS}, "config": "str",
        "max_slots": "int", "kv_budget_tokens": "int",
        "rate_rps": "number", "duration_s": "number",
        "slo_multiplier": "number", "offered": "int", "completed": "int",
        "rejected": "int", "makespan_s": "number",
        "throughput_rps": "number", "goodput_rps": "number",
        "slo_attainment": "number", "tokens_generated": "int",
        "tokens_per_s": "number", "mean_batch_size": "number",
        "kv_peak_tokens": "int", "ttft_p50_ms": "number",
        "ttft_p95_ms": "number", "ttft_p99_ms": "number",
        "itl_p50_ms": "number", "itl_p95_ms": "number",
        "itl_p99_ms": "number"}}},
    "summary": {"optional": dict.fromkeys(
        LLM_SCHEDULERS, {"keys": {"goodput_at_slo_rps": "number"}})},
}}


def validate_llm_report(payload: Any) -> List[str]:
    """Problems with an LLM report (empty list = valid)."""
    return check(payload, LLM_SPEC)


def llm_table(payload: Dict[str, Any]) -> str:
    """Fixed-width rendering of one LLM serving report."""
    from ..harness.report import render_table
    rows = [(r["scheduler"], r["rate_rps"], r["offered"], r["completed"],
             round(r["goodput_rps"], 2), round(r["slo_attainment"], 4),
             round(r["mean_batch_size"], 2), round(r["ttft_p95_ms"], 3),
             round(r["itl_p95_ms"], 3), r["kv_peak_tokens"])
            for r in payload["rows"]]
    title = (f"llm serving: {payload['config']}, {payload['max_slots']} "
             f"slot(s), KV budget {payload['kv_budget_tokens']} tokens")
    return render_table(
        ("scheduler", "rate", "offered", "done", "goodput", "SLO",
         "batch", "ttft p95", "itl p95", "kv peak"),
        rows, title=title)
