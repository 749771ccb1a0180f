"""The LLM serving sweep: scheduler x arrival-rate, schema-tagged.

``repro serve --llm`` runs a grid of one-shot vs continuous batching
points over an offered-rate ladder and reduces the per-point
:class:`~repro.serving.metrics.LLMServingReport` rows to the headline
the continuous-batching literature predicts: at equal SLO, continuous
batching sustains strictly more goodput than one-shot dynamic batching,
because slots freed by short requests are refilled immediately instead
of decoding padding until the longest member finishes.

Work items follow the :mod:`repro.serving.sweep` discipline: frozen,
picklable points carrying their own :class:`LLMServiceCosts`, fanned
out through :func:`repro.runtime.parallel.parallel_map`, every point a
pure function of ``(REPRO_SEED, point)`` — serial and ``--jobs N``
sweeps produce byte-identical reports.

The JSON report carries a ``schema`` tag (``repro-llm-report-v1``) and
passes :func:`validate_llm_report`, which CI's llm-smoke job runs
against a fresh sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runtime import knobs, parallel_map
from ..serving.continuous import (
    LLM_SCHEDULERS,
    LLMServiceCosts,
    llm_poisson_requests,
    make_llm_batcher,
)
from ..serving.metrics import LLMServingReport

LLM_SCHEMA = "repro-llm-report-v1"

#: Rate ladder as fractions of the estimated saturation throughput.
DEFAULT_LOAD_FRACTIONS = (0.1, 0.25, 0.5, 0.8)
DEFAULT_SLO_ATTAINMENT = 0.95


@dataclass(frozen=True)
class LLMSweepPoint:
    """One (scheduler, rate) cell; self-contained and picklable."""
    costs: LLMServiceCosts
    scheduler: str             # one of LLM_SCHEDULERS
    rate_rps: float
    duration_s: float = 10.0
    max_slots: int = 8
    prompt_range: Tuple[int, int] = (8, 64)
    output_range: Tuple[int, int] = (4, 64)
    stream: int = 0


def run_llm_point(point: LLMSweepPoint) -> LLMServingReport:
    """Simulate one cell (module-level so process pools can pickle)."""
    requests = llm_poisson_requests(point.rate_rps, point.duration_s,
                                    point.prompt_range,
                                    point.output_range, point.stream)
    batcher = make_llm_batcher(point.scheduler, point.costs,
                               max_slots=point.max_slots)
    return batcher.run(requests, rate_rps=point.rate_rps,
                       duration_s=point.duration_s)


def llm_grid(costs: Optional[LLMServiceCosts] = None,
             config: str = "gpt2_rms",
             schedulers: Sequence[str] = LLM_SCHEDULERS,
             rates: Optional[Sequence[float]] = None,
             duration_s: float = 10.0,
             max_slots: int = 8,
             prompt_range: Tuple[int, int] = (8, 64),
             output_range: Tuple[int, int] = (4, 64)) -> List[LLMSweepPoint]:
    """The scheduler x rate grid, in a stable order.

    With no explicit ``rates``, the ladder is anchored to the costs'
    estimated saturation throughput (:data:`DEFAULT_LOAD_FRACTIONS` of
    it), so the sweep stays meaningful when the underlying cycle model
    shifts.
    """
    costs = costs or LLMServiceCosts.resolve(config)
    unknown = [s for s in schedulers if s not in LLM_SCHEDULERS]
    if unknown:
        raise ValueError(f"unknown LLM schedulers {', '.join(unknown)}; "
                         f"known: {', '.join(LLM_SCHEDULERS)}")
    if rates is None:
        mean_prompt = sum(prompt_range) / 2.0
        mean_output = sum(output_range) / 2.0
        saturation = costs.saturation_rps(max_slots, mean_prompt,
                                          mean_output)
        rates = tuple(round(saturation * f, 2)
                      for f in DEFAULT_LOAD_FRACTIONS)
    base = LLMSweepPoint(costs=costs, scheduler="continuous", rate_rps=0.0,
                         duration_s=duration_s, max_slots=max_slots,
                         prompt_range=tuple(prompt_range),
                         output_range=tuple(output_range))
    return [replace(base, scheduler=scheduler, rate_rps=rate)
            for scheduler in schedulers
            for rate in rates]


def run_llm_sweep(points: Sequence[LLMSweepPoint],
                  jobs: int = 1) -> List[LLMServingReport]:
    """All cells, in input order; ``jobs`` fans out across processes."""
    return parallel_map(run_llm_point, list(points), jobs=jobs)


def goodput_at_slo(rows: Sequence[Dict[str, Any]],
                   attainment: float = DEFAULT_SLO_ATTAINMENT) -> float:
    """Highest goodput among rows meeting the SLO-attainment bar."""
    eligible = [row["goodput_rps"] for row in rows
                if row["slo_attainment"] >= attainment]
    return max(eligible, default=0.0)


def llm_report(points: Sequence[LLMSweepPoint],
               reports: Sequence[LLMServingReport]) -> Dict[str, Any]:
    """Reduce a sweep to the schema-tagged LLM serving report.

    The summary keeps, per scheduler, the best goodput among points
    with >= 95 % SLO attainment — the "req/s at SLO" headline — plus
    the cross-scheduler comparison the benchmark asserts on.
    """
    if len(points) != len(reports):
        raise ValueError("points and reports must pair up")
    if not points:
        raise ValueError("empty LLM sweep")
    rows = [report.as_dict() for report in reports]
    summary: Dict[str, Any] = {}
    for scheduler in dict.fromkeys(p.scheduler for p in points):
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
    first = points[0]
    return {
        "schema": LLM_SCHEMA,
        "seed": knobs.get("REPRO_SEED"),
        "config": first.costs.config,
        "max_slots": first.max_slots,
        "kv_budget_tokens": first.costs.kv_budget_tokens,
        "slo_multiplier": first.costs.slo_multiplier,
        "slo_attainment_bar": DEFAULT_SLO_ATTAINMENT,
        "duration_s": first.duration_s,
        "rows": rows,
        "summary": summary,
    }


def llm_report_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: Required row fields and their types.
_ROW_FIELDS = {
    "scheduler": str, "config": str, "max_slots": int,
    "kv_budget_tokens": int, "rate_rps": (int, float),
    "duration_s": (int, float), "slo_multiplier": (int, float),
    "offered": int, "completed": int, "rejected": int,
    "makespan_s": (int, float), "throughput_rps": (int, float),
    "goodput_rps": (int, float), "slo_attainment": (int, float),
    "tokens_generated": int, "tokens_per_s": (int, float),
    "mean_batch_size": (int, float), "kv_peak_tokens": int,
    "ttft_p50_ms": (int, float), "ttft_p95_ms": (int, float),
    "ttft_p99_ms": (int, float), "itl_p50_ms": (int, float),
    "itl_p95_ms": (int, float), "itl_p99_ms": (int, float),
}


def validate_llm_report(payload: Any) -> List[str]:
    """Structural problems with an LLM report (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"report must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != LLM_SCHEMA:
        problems.append(f"schema must be {LLM_SCHEMA!r}, "
                        f"got {payload.get('schema')!r}")
    for key, kind in (("seed", int), ("config", str), ("max_slots", int),
                      ("kv_budget_tokens", int),
                      ("slo_multiplier", (int, float)),
                      ("slo_attainment_bar", (int, float)),
                      ("duration_s", (int, float)), ("rows", list),
                      ("summary", dict)):
        if not isinstance(payload.get(key), kind):
            problems.append(f"missing or mistyped field {key!r}")
    rows = payload.get("rows")
    if isinstance(rows, list):
        if not rows:
            problems.append("rows must be non-empty")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"rows[{i}] must be an object")
                continue
            for key, kind in _ROW_FIELDS.items():
                if not isinstance(row.get(key), kind) or \
                        isinstance(row.get(key), bool):
                    problems.append(f"rows[{i}].{key} missing or mistyped")
            if row.get("scheduler") not in LLM_SCHEDULERS:
                problems.append(f"rows[{i}].scheduler not a known scheduler")
    summary = payload.get("summary")
    if isinstance(summary, dict):
        for scheduler in LLM_SCHEDULERS:
            entry = summary.get(scheduler)
            if entry is None:
                continue
            if not isinstance(entry, dict) or not isinstance(
                    entry.get("goodput_at_slo_rps"), (int, float)):
                problems.append(
                    f"summary[{scheduler!r}].goodput_at_slo_rps missing")
    return problems


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
