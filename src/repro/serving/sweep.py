"""The ``serving_sweep`` grid: batch-policy x fleet-size x arrival-rate.

Builds a grid of :class:`SweepPoint` work items (each carrying its own
frozen :class:`~repro.serving.scheduler.ServiceCosts`, so worker
processes never re-evaluate models), fans them out through
:func:`repro.runtime.parallel.parallel_map`, and reduces the reports to
the latency-throughput picture the TPU paper's 99th-percentile-SLO
argument predicts: p99 latency rises superlinearly once the offered
rate crosses a fleet's saturation throughput, and doubling the fleet
moves the knee right.

Every point is a pure function of ``(REPRO_SEED, point)``, so serial
and ``--jobs N`` sweeps are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime import parallel_map
from .fleet import FleetSimulator
from .metrics import DEFAULT_SLO_MULTIPLIER, ServingReport
from .scheduler import AdmissionPolicy, BatchPolicy, ServiceCosts
from .workload import OpenLoopPoisson

DEFAULT_POLICIES = ("single", "dynamic")
DEFAULT_FLEETS = (1, 2, 4)
DEFAULT_RATES = (25.0, 50.0, 100.0, 200.0, 400.0)
DEFAULT_SLO_ATTAINMENT = 0.95


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell; self-contained and picklable.

    ``cells`` groups the devices for hierarchical routing (see
    :mod:`repro.serving.scale`).
    """
    costs: ServiceCosts
    model: str
    policy_kind: str
    devices: int
    rate_rps: float
    duration_s: float = 4.0
    max_batch: int = 8
    max_wait_ms: float = 2.0
    routing: str = "least_loaded"
    max_queue: int = 4096
    slo_multiplier: float = DEFAULT_SLO_MULTIPLIER
    cells: int = 1


def run_point(point: SweepPoint) -> ServingReport:
    """Simulate one grid cell (module-level so process pools can pickle)."""
    workload = OpenLoopPoisson((point.model,), point.rate_rps,
                               point.duration_s)
    batch_policy = BatchPolicy(point.policy_kind, point.max_batch,
                               point.max_wait_ms)
    sim = FleetSimulator(
        point.costs,
        devices=point.devices,
        cells=point.cells,
        batch_policy=batch_policy,
        admission=AdmissionPolicy(point.max_queue),
        routing=point.routing,
        slo_multiplier=point.slo_multiplier)
    return sim.run(workload, rate_rps=point.rate_rps)


def default_grid(model: str = "bert",
                 policies: Sequence[str] = DEFAULT_POLICIES,
                 fleets: Sequence[int] = DEFAULT_FLEETS,
                 rates: Sequence[float] = DEFAULT_RATES,
                 duration_s: float = 4.0,
                 costs: Optional[ServiceCosts] = None) -> List[SweepPoint]:
    """The batch-policy x fleet-size x arrival-rate grid, in a stable order."""
    costs = costs or ServiceCosts.resolve([model])
    base = SweepPoint(costs=costs, model=model, policy_kind="dynamic",
                      devices=1, rate_rps=0.0, duration_s=duration_s)
    return [replace(base, policy_kind=policy, devices=devices,
                    rate_rps=rate)
            for policy in policies
            for devices in fleets
            for rate in rates]


def run_sweep(points: Sequence[SweepPoint],
              jobs: int = 1) -> List[ServingReport]:
    """All grid cells, in input order; ``jobs`` fans out across processes."""
    return parallel_map(run_point, list(points), jobs=jobs)


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
