"""The ``serving_sweep`` grid: batch-policy x fleet-size x arrival-rate.

Builds a grid of :class:`~repro.serving.scale.FleetCell` work items
(each carrying its own frozen
:class:`~repro.serving.scheduler.ServiceCosts`, so worker processes
never re-evaluate models), fanned out as ``parallel_map(run_cell,
cells, jobs=...)``, and reduces the reports to the latency-throughput
picture the TPU paper's 99th-percentile-SLO argument predicts: p99
latency rises superlinearly once the offered rate crosses a fleet's
saturation throughput, and doubling the fleet moves the knee right.

Every cell is a pure function of ``(REPRO_SEED, cell)``, so serial
and ``--jobs N`` sweeps are byte-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import ServingReport
from .scale import FleetCell
from .scheduler import AdmissionPolicy, BatchPolicy, ServiceCosts
from .workload import OpenLoopPoisson

DEFAULT_POLICIES = ("single", "dynamic")
DEFAULT_FLEETS = (1, 2, 4)
DEFAULT_RATES = (25.0, 50.0, 100.0, 200.0, 400.0)
DEFAULT_SLO_ATTAINMENT = 0.95


def default_grid(model: str = "bert",
                 policies: Sequence[str] = DEFAULT_POLICIES,
                 fleets: Sequence[int] = DEFAULT_FLEETS,
                 rates: Sequence[float] = DEFAULT_RATES,
                 duration_s: float = 4.0,
                 costs: Optional[ServiceCosts] = None) -> List[FleetCell]:
    """The batch-policy x fleet-size x arrival-rate grid, in a stable order.

    Each cell batches up to 8 requests with a 2 ms wait, routes to the
    least-loaded device and sheds arrivals past a 4096-deep queue.
    """
    costs = costs or ServiceCosts.resolve([model])
    return [FleetCell(
                sim=dict(costs=costs, devices=devices,
                         batch_policy=BatchPolicy(policy),
                         admission=AdmissionPolicy(4096)),
                workload=partial(OpenLoopPoisson, (model,), rate,
                                 duration_s),
                rate_rps=rate)
            for policy in policies
            for devices in fleets
            for rate in rates]


def sweep_table(reports: Sequence[ServingReport]) -> str:
    from ..harness.report import render_table
    rows = [(r.batch_policy, r.devices, r.rate_rps, r.throughput_rps,
             r.p50_ms, r.p99_ms, r.mean_batch_size, r.device_utilization,
             r.slo_attainment)
            for r in reports]
    return render_table(
        ("policy", "devices", "rate (req/s)", "throughput", "p50 (ms)",
         "p99 (ms)", "batch", "util", "SLO attain"),
        rows, title="serving_sweep: batch policy x fleet size x rate")


# ---------------------------------------------------------------------------
# Shape reductions (used by the experiment + perf benchmark)
# ---------------------------------------------------------------------------
def by_config(reports: Sequence[ServingReport]
              ) -> Dict[Tuple[str, int], List[ServingReport]]:
    """Group a sweep by (policy, fleet size), rate-ascending."""
    grouped: Dict[Tuple[str, int], List[ServingReport]] = {}
    for report in reports:
        grouped.setdefault((report.batch_policy, report.devices),
                           []).append(report)
    for ladder in grouped.values():
        ladder.sort(key=lambda r: r.rate_rps)
    return grouped


def max_throughput_at_slo(ladder: Sequence[ServingReport],
                          attainment: float = DEFAULT_SLO_ATTAINMENT
                          ) -> float:
    """Highest sustained throughput among points meeting the SLO bar."""
    eligible = [r.throughput_rps for r in ladder
                if r.slo_attainment >= attainment]
    return max(eligible, default=0.0)


def knee_sharpness(ladder: Sequence[ServingReport]) -> float:
    """p99 growth vs rate growth between the ladder's endpoints.

    A value above 1.0 means p99 latency grew faster than the offered
    rate — the superlinear blow-up past the saturation knee. Stable
    (underloaded) ladders stay near or below 1.0.
    """
    lo, hi = ladder[0], ladder[-1]
    if lo.p99_ms <= 0 or lo.rate_rps <= 0:
        return 0.0
    return (hi.p99_ms / lo.p99_ms) / (hi.rate_rps / lo.rate_rps)
