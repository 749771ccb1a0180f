"""Chaos sweeps: fault-rate ladders x resilience policies, reduced.

``repro chaos`` runs one :class:`~repro.faults.plan.FaultPlan` at a
ladder of fault-rate scales against each resilience policy and reduces
the serving reports to the question that matters: *how much goodput
does each policy retain as faults ramp up?* Scale ``0.0`` is the
fault-free control every retention number is measured against, so the
sweep is self-calibrating — no external baseline file.

Work items are :class:`~repro.serving.scale.FleetCell` values carrying
their own :class:`ServiceCosts`, fanned out as ``parallel_map(run_cell,
cells, jobs=...)``; every cell is a pure function of ``(REPRO_SEED,
cell)``, so serial and ``--jobs N`` sweeps produce byte-identical
reports.

The JSON report carries a ``schema`` tag and passes
:func:`validate_chaos_report`, which CI's chaos-smoke job runs against
a fresh sweep.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..runtime import knobs
from ..schema import check
from ..serving.metrics import ServingReport
from ..serving.scale import FleetCell
from ..serving.scheduler import (
    RESILIENCE_POLICIES,
    AdmissionPolicy,
    BatchPolicy,
    ResiliencePolicy,
    ServiceCosts,
)
from ..serving.workload import OpenLoopPoisson
from .plan import FaultPlan, default_plan

CHAOS_SCHEMA = "repro-chaos-report-v1"

DEFAULT_SCALES = (0.0, 0.5, 1.0, 2.0)

#: One chaos grid entry: ``((resilience policy, fault scale), cell)``.
_Labelled = Tuple[Tuple[str, float], FleetCell]


def chaos_grid(plan: Optional[FaultPlan] = None,
               scales: Sequence[float] = DEFAULT_SCALES,
               policies: Sequence[str] = RESILIENCE_POLICIES,
               model: str = "bert",
               devices: int = 4,
               rate_rps: float = 120.0,
               duration_s: float = 8.0,
               costs: Optional[ServiceCosts] = None) -> List[_Labelled]:
    """The policy x fault-scale grid, in a stable order.

    Each entry is a ``((policy, scale), cell)`` pair. A ``0.0`` scale
    (the fault-free control) is always prepended so retention is
    well-defined even when the caller's ladder omits it. Each cell
    batches dynamically (8 requests, 2 ms wait), routes to the
    least-loaded device and sheds arrivals past a 256-deep queue.
    """
    plan = plan or default_plan()
    costs = costs or ServiceCosts.resolve([model])
    ladder = list(dict.fromkeys([0.0, *scales]))
    return [((policy, scale), FleetCell(
                sim=dict(costs=costs, devices=devices,
                         batch_policy=BatchPolicy("dynamic"),
                         admission=AdmissionPolicy(256),
                         fault_plan=plan.scaled(scale),
                         resilience=ResiliencePolicy(kind=policy)),
                workload=partial(OpenLoopPoisson, (model,), rate_rps,
                                 duration_s),
                rate_rps=rate_rps))
            for policy in policies
            for scale in ladder]


def chaos_report(grid: Sequence[_Labelled],
                 reports: Sequence[ServingReport],
                 plan: FaultPlan, model: str) -> Dict[str, Any]:
    """Reduce a sweep of ``plan`` on ``model`` to the chaos report.

    Each row pairs one cell's serving outcomes with its
    ``goodput_retention``: goodput divided by the same policy's
    fault-free (scale 0.0) goodput. The summary keeps each policy's
    worst retention across faulted scales — the headline the resilience
    benchmark asserts on.
    """
    if len(grid) != len(reports):
        raise ValueError("grid and reports must pair up")
    if not grid:
        raise ValueError("empty chaos sweep")
    labels = [label for label, _ in grid]
    baseline: Dict[str, float] = {}
    for (policy, scale), report in zip(labels, reports):
        if scale == 0.0 and policy not in baseline:
            baseline[policy] = report.goodput_rps
    rows: List[Dict[str, Any]] = []
    for (policy, scale), report in zip(labels, reports):
        base = baseline.get(policy, 0.0)
        retention = report.goodput_rps / base if base > 0 else 0.0
        rows.append({
            "policy": policy,
            "fault_scale": scale,
            "offered": report.offered,
            "completed": report.completed,
            "failed": report.failed,
            "rejected": report.rejected,
            "bad_completions": report.bad_completions,
            "retries": report.retries,
            "timeouts": report.timeouts,
            "compile_retries": report.compile_retries,
            "devices_ejected": report.devices_ejected,
            "devices_readmitted": report.devices_readmitted,
            "faults": dict(report.faults),
            "throughput_rps": report.throughput_rps,
            "goodput_rps": report.goodput_rps,
            "goodput_retention": retention,
            "slo_attainment": report.slo_attainment,
            "p99_ms": report.p99_ms,
        })
    summary = {}
    for policy in dict.fromkeys(r["policy"] for r in rows):
        faulted = [r["goodput_retention"] for r in rows
                   if r["policy"] == policy and r["fault_scale"] > 0]
        summary[policy] = {
            "baseline_goodput_rps": baseline.get(policy, 0.0),
            "min_goodput_retention": min(faulted, default=1.0),
        }
    first = reports[0]
    return {
        "schema": CHAOS_SCHEMA,
        "seed": knobs.get("REPRO_SEED"),
        "plan": plan.as_dict(),
        "model": model,
        "devices": first.devices,
        "rate_rps": first.rate_rps,
        "duration_s": first.duration_s,
        "rows": rows,
        "summary": summary,
    }


#: Shape of a chaos report (:func:`chaos_report`).
CHAOS_SPEC = {"keys": {
    "schema": {"enum": [CHAOS_SCHEMA]},
    "seed": "int", "plan": "object", "model": "str", "devices": "int",
    "rate_rps": "number", "duration_s": "number",
    "rows": {"min": 1, "items": {"keys": {
        "policy": {"enum": RESILIENCE_POLICIES}, "fault_scale": "number",
        "offered": "int", "completed": "int", "failed": "int",
        "rejected": "int", "bad_completions": "int", "retries": "int",
        "timeouts": "int", "compile_retries": "int",
        "devices_ejected": "int", "devices_readmitted": "int",
        "faults": "object", "throughput_rps": "number",
        "goodput_rps": "number", "goodput_retention": "number",
        "slo_attainment": "number", "p99_ms": "number"}}},
    "summary": {"values": {"keys": {"min_goodput_retention": "number"}}},
}}


def validate_chaos_report(payload: Any) -> List[str]:
    """Problems with a chaos report (empty list = valid)."""
    return check(payload, CHAOS_SPEC)


def chaos_table(payload: Dict[str, Any]) -> str:
    """Fixed-width rendering of one chaos report."""
    from ..harness.report import render_table
    rows = [(r["policy"], r["fault_scale"], r["offered"], r["completed"],
             r["failed"], r["retries"], r["devices_ejected"],
             round(r["goodput_rps"], 2), round(r["goodput_retention"], 4),
             round(r["slo_attainment"], 4))
            for r in payload["rows"]]
    title = (f"chaos: {payload['model']} on {payload['devices']} device(s) "
             f"@ {payload['rate_rps']} req/s, plan "
             f"{payload['plan'].get('name', '?')}")
    return render_table(
        ("policy", "scale", "offered", "done", "failed", "retries",
         "ejects", "goodput", "retention", "SLO"),
        rows, title=title)
