"""Serving metrics: latency percentiles, utilization, SLO attainment.

The fleet event loop (:mod:`repro.serving.scale`) reduces each run to a
:class:`ServingReport`: throughput, p50/p95/p99 latency, queue depth,
device utilization and SLO attainment, renderable as a fixed-width
table (via :func:`repro.harness.report.render_table`) or exportable as
JSON.  All rates normalize against ``max(last finish, duration)`` so
runs that drain past the traffic horizon are not flattered.

SLO targets are per model: ``max(DEFAULT_MIN_SLO_S, slo_multiplier x
isolated latency)``, i.e. a request meets its SLO when end-to-end
latency stays within a fixed multiple of the model's unloaded service
time. Rejected requests count as SLO violations — shedding load does
not launder the attainment number.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..schema import report_json
# The exact nearest-rank estimator lives in telemetry.timeseries so the
# end-of-run report and the streaming monitor histograms share ONE rank
# rule; re-exported here because this module is its historical home.
from ..telemetry.timeseries import percentile

DEFAULT_SLO_MULTIPLIER = 10.0
DEFAULT_MIN_SLO_S = 1e-3


@dataclass
class ServingReport:
    """One simulation's results (plain data; picklable, JSON-able)."""
    # -- configuration echo -------------------------------------------------
    models: Tuple[str, ...]
    devices: int
    batch_policy: str
    max_batch: int
    max_wait_ms: float
    routing: str
    rate_rps: float                 # offered rate (0 for closed loop)
    duration_s: float
    # -- outcomes -----------------------------------------------------------
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    verify_rejected: int = 0        # refused: verification record dirty/missing
    #: Requests that never completed: stuck on a crashed device with no
    #: retry policy, or retried until the attempt/budget limit.
    failed: int = 0
    #: Completions whose outputs came from a corrupted resident program
    #: (counted in ``completed`` but excluded from goodput and SLO).
    bad_completions: int = 0
    retries: int = 0                # request re-routes after a timeout
    timeouts: int = 0               # per-request timeout expiries
    compile_retries: int = 0        # flaky compiles retried in place
    devices_ejected: int = 0        # circuit-breaker ejections
    devices_readmitted: int = 0     # cooldown re-admissions
    #: Injected-fault counts by kind (``device_crash``, ``tile_fault``,
    #: ``corrupt_program``, ...), plus ``corrupt_detected`` for the
    #: verifier's catches.
    faults: Dict[str, int] = field(default_factory=dict)
    makespan_s: float = 0.0
    throughput_rps: float = 0.0
    #: Good completions per second: completed, within SLO, and not
    #: produced by a corrupted program — the resilience headline number.
    goodput_rps: float = 0.0
    mean_latency_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0
    mean_batch_size: float = 0.0
    device_utilization: float = 0.0
    per_device_utilization: List[float] = field(default_factory=list)
    compiles: int = 0
    #: Fraction of launched batches that found their model's programs
    #: already resident on the device (no first-touch compile charge).
    compile_cache_hit_rate: float = 0.0
    slo_multiplier: float = DEFAULT_SLO_MULTIPLIER
    slo_ms: Dict[str, float] = field(default_factory=dict)
    slo_attainment: float = 0.0

    def as_dict(self) -> Dict:
        """Plain-dict form (models tuple flattened to a list)."""
        payload = dataclasses.asdict(self)
        payload["models"] = list(self.models)
        return payload

    def to_json(self) -> str:
        """Canonical JSON: sorted keys + trailing newline.

        Byte-equality of two reports' ``to_json`` output is the
        bit-identity oracle used by the determinism and golden-fixture
        tests — any float that differs in the last ulp shows up here.
        """
        return report_json(self.as_dict())

    def table(self) -> str:
        """Fixed-width metric/value table for the CLI."""
        from ..harness.report import render_table
        slo = ", ".join(f"{m} {ms:.2f}ms" for m, ms in self.slo_ms.items())

        def latency(value_ms: float):
            # percentile() returns 0.0 on an empty list; with zero
            # completions that is "no data", not a zero-millisecond
            # tail — render n/a so monitoring comparisons can't confuse
            # an idle fleet with an infinitely fast one.
            return value_ms if self.completed else "n/a"

        rows = [
            ("models", "+".join(self.models)),
            ("devices", self.devices),
            ("batch policy", f"{self.batch_policy} (max_batch="
                             f"{self.max_batch}, wait={self.max_wait_ms}ms)"),
            ("routing", self.routing),
            ("offered requests", self.offered),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("verify-rejected", self.verify_rejected),
            ("failed", self.failed),
            ("bad completions", self.bad_completions),
            ("retries (timeouts)", f"{self.retries} ({self.timeouts})"),
            ("faults injected",
             ", ".join(f"{k} {v}" for k, v in sorted(self.faults.items()))
             or "(none)"),
            ("devices ejected/readmitted",
             f"{self.devices_ejected} / {self.devices_readmitted}"),
            ("throughput (req/s)", self.throughput_rps),
            ("goodput (req/s)", self.goodput_rps),
            ("mean latency (ms)", latency(self.mean_latency_ms)),
            ("p50 latency (ms)", latency(self.p50_ms)),
            ("p95 latency (ms)", latency(self.p95_ms)),
            ("p99 latency (ms)", latency(self.p99_ms)),
            ("mean/max queue depth", f"{self.mean_queue_depth:.2f} / "
                                     f"{self.max_queue_depth}"),
            ("mean batch size", self.mean_batch_size),
            ("device utilization", self.device_utilization),
            ("per-device utilization",
             ", ".join(f"d{i} {u:.3f}"
                       for i, u in enumerate(self.per_device_utilization))
             or "(none)"),
            ("first-touch compiles", self.compiles),
            ("compile-cache hit rate", self.compile_cache_hit_rate),
            ("SLO target", slo or "(none)"),
            ("SLO attainment", self.slo_attainment),
        ]
        title = (f"serving: {'+'.join(self.models)} on {self.devices} "
                 f"device(s), {self.batch_policy} batching")
        return render_table(("metric", "value"), rows, title=title)


@dataclass
class LLMServingReport:
    """One LLM batching simulation's results (plain data, JSON-able).

    Decode-phase telemetry follows the LLM-serving convention: **TTFT**
    (time to first token — arrival through prefill and the first decode
    step) and **ITL** (inter-token latency — gaps between a request's
    consecutive tokens, which absorb other requests' prefill stalls
    under continuous batching). Goodput counts completions within
    ``slo_multiplier`` x the request's isolated (ideal) latency.
    """
    # -- configuration echo -------------------------------------------------
    scheduler: str                  # "continuous" | "oneshot"
    config: str                     # LLM config name
    max_slots: int
    kv_budget_tokens: int
    rate_rps: float
    duration_s: float
    slo_multiplier: float
    # -- outcomes -----------------------------------------------------------
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    makespan_s: float = 0.0
    throughput_rps: float = 0.0
    goodput_rps: float = 0.0
    slo_attainment: float = 0.0
    tokens_generated: int = 0
    tokens_per_s: float = 0.0
    mean_batch_size: float = 0.0    # mean active slots per decode step
    kv_peak_tokens: int = 0
    mean_latency_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    ttft_p50_ms: float = 0.0
    ttft_p95_ms: float = 0.0
    ttft_p99_ms: float = 0.0
    itl_p50_ms: float = 0.0
    itl_p95_ms: float = 0.0
    itl_p99_ms: float = 0.0

    def as_dict(self) -> Dict:
        """Plain-dict form for JSON export."""
        return dataclasses.asdict(self)
