"""Streaming fleet monitoring: interval sampling, SLO burn-rate alerts.

The fleet simulator used to be a batch scorer — one
:class:`~repro.serving.metrics.ServingReport` at the end of the run.
This module turns it into a *monitored service*: the event loop feeds
lifecycle hooks into a :class:`FleetMonitor` (or :class:`LLMMonitor`
for the continuous-batching engine), which samples every series on a
fixed simulated-time grid, evaluates Google-SRE multi-window
burn-rate rules over the SLO error budget, and emits a versioned
``repro-monitor-report-v1`` payload that the CLI renders as a terminal
dashboard (``repro serve --monitor`` / ``repro monitor <report>``) or
exports as Chrome-trace counter tracks.

Monitoring is strictly observational: the hooks never touch the event
heap, the RNG, or any decision the scheduler makes, so an instrumented
run produces a byte-identical :class:`ServingReport` — asserted by
``tests/test_monitoring.py`` and gated at ≤5% overhead by
``benchmarks/test_perf_eval_pipeline.py``.

The streaming error signal
--------------------------
End-of-run accounting learns that a request stuck on a crashed device
"failed" only when the event heap drains — useless for alerting.  The
monitor instead keeps a deadline heap: every first-attempt arrival
pushes ``arrival + slo_s(model)``, and when an interval boundary passes
a deadline whose request has not completed, the request becomes a
**bad** event *at its deadline* — so a crash shows up in the burn rate
one SLO after it happens, while the fleet is still running.  A request
settles exactly once (deadline miss, rejection, or completion —
whichever the monitor sees first), so good/bad totals never double
count.

Everything is a pure function of ``(REPRO_SEED, inputs)``: sample and
alert streams are byte-identical between serial and ``--jobs N`` runs,
which ``benchmarks/test_perf_monitoring.py`` asserts via the picklable
:class:`MonitorPoint` / :func:`run_monitor_point` pair.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..runtime import knobs
from ..telemetry.alerts import AlertEngine
from ..telemetry.slo import (
    BurnRateRule,
    SLOObjective,
    default_objective,
    default_rules,
)
from ..telemetry.timeseries import (
    GaugeSampler,
    RateSampler,
    SlidingWindowHistogram,
    TimeSeries,
)

MONITOR_SCHEMA = "repro-monitor-report-v1"

#: Boundary comparison slack: an event stamped exactly on a boundary
#: must land deterministically despite float accumulation.
_EPS = 1e-9

#: Batch-launch trigger reasons recorded by ``plan_batch``.
LAUNCH_REASONS = ("full", "deadline", "greedy", "single")


@dataclass(frozen=True)
class MonitorConfig:
    """Frozen monitoring parameters (picklable; env-overridable).

    ``interval_s`` is the sampling grid in *simulated* seconds;
    ``window_intervals`` sizes the sliding latency window (so the
    windowed p99 spans ``interval_s * window_intervals`` of sim time).
    ``drain`` keeps sampling empty intervals after the workload ends
    until every firing rule resolves (bounded by the longest rule
    window), so a run that ends mid-incident still records the
    resolve edge.
    """

    interval_s: float = 0.1
    window_intervals: int = 10
    objective: SLOObjective = field(default_factory=SLOObjective)
    rules: Tuple[BurnRateRule, ...] = field(default_factory=default_rules)
    drain: bool = True

    def __post_init__(self) -> None:
        if self.interval_s <= 0.0:
            raise ValueError(f"interval_s must be positive, "
                             f"got {self.interval_s}")
        if self.window_intervals < 1:
            raise ValueError("window_intervals must be >= 1")
        if not self.rules:
            raise ValueError("need at least one burn-rate rule")

    @classmethod
    def from_env(cls, interval_s: Optional[float] = None,
                 window_intervals: Optional[int] = None,
                 drain: bool = True) -> "MonitorConfig":
        """Build a config from ``REPRO_MONITOR_*`` with CLI overrides."""
        return cls(
            interval_s=(interval_s if interval_s is not None
                        else knobs.get("REPRO_MONITOR_INTERVAL")),
            window_intervals=(window_intervals if window_intervals is not None
                              else knobs.get("REPRO_MONITOR_WINDOW")),
            objective=default_objective(),
            rules=default_rules(),
            drain=drain,
        )


class _MonitorBase:
    """Interval grid + series registry + settle-once SLO accounting.

    Subclasses register their series in ``__init__`` (registration
    order is the report order — keep it deterministic) and feed events
    through the hooks; the shared machinery closes interval boundaries,
    rolls the latency windows, evaluates the alert engine, and records
    per-rule burn-rate series.
    """

    kind = "base"

    def __init__(self, config: MonitorConfig) -> None:
        self.config = config
        self.engine = AlertEngine(config.objective, config.rules,
                                  config.interval_s)
        self._boundary = 0            # completed intervals
        self.series: Dict[str, TimeSeries] = {}
        self._gauges: Dict[str, GaugeSampler] = {}
        self._rates: Dict[str, RateSampler] = {}
        self._windows: Dict[str, SlidingWindowHistogram] = {}
        self._window_pcts: Dict[str, Tuple[int, ...]] = {}
        self._window_series: Dict[str, Tuple[TimeSeries, ...]] = {}
        self._next_boundary_s = config.interval_s
        self._deadlines: List[Tuple[float, int]] = []   # (deadline_s, rid)
        self._deadline_of: Dict[int, float] = {}
        self._settled: Set[int] = set()
        self._good_pending = 0
        self._bad_pending = 0
        self._finished = False
        for rule in config.rules:
            for window in ("long", "short"):
                name = f"burn.{rule.name}.{window}"
                self.series[name] = TimeSeries(name, "burn_rate", "x")

    # -- series registration (call from subclass __init__ only) ------------
    def _gauge(self, name: str, unit: str) -> None:
        self._gauges[name] = GaugeSampler()
        self.series[name] = TimeSeries(name, "gauge", unit)

    def _rate(self, name: str, unit: str = "req/s") -> None:
        self._rates[name] = RateSampler()
        self.series[name] = TimeSeries(name, "rate", unit)

    def _window(self, name: str, unit: str = "ms",
                pcts: Tuple[int, ...] = (50, 95, 99)) -> None:
        self._windows[name] = SlidingWindowHistogram(
            self.config.window_intervals)
        self._window_pcts[name] = pcts
        keys = []
        for q in pcts:
            key = f"{name}.p{q}"
            self.series[key] = TimeSeries(key, "percentile", unit)
            keys.append(self.series[key])
        self._window_series[name] = tuple(keys)

    # -- SLO accounting ----------------------------------------------------
    def push_deadline(self, rid: int, deadline_s: float) -> None:
        """Arm the streaming SLO deadline for one request."""
        heapq.heappush(self._deadlines, (deadline_s, rid))
        self._deadline_of[rid] = deadline_s

    def settle(self, rid: int, good: bool) -> bool:
        """Classify a request good/bad exactly once; False if already done."""
        if rid in self._settled:
            return False
        self._settled.add(rid)
        if good:
            self._good_pending += 1
        else:
            self._bad_pending += 1
        return True

    def within_deadline(self, rid: int, now_s: float) -> bool:
        """Whether ``now_s`` beats the request's armed SLO deadline."""
        deadline = self._deadline_of.get(rid)
        return deadline is not None and now_s <= deadline + _EPS

    # -- the interval grid -------------------------------------------------
    def advance(self, now_s: float) -> None:
        """Close every interval boundary at or before ``now_s``.

        The event loop calls this with the current event time *before*
        applying the event, so each boundary samples the state as it
        stood when simulated time passed it.  Idempotent: boundaries
        close at most once regardless of call pattern, which keeps the
        sample stream identical under any event batching.  The common
        case — an event inside the current interval — is a single
        comparison against the precomputed next boundary, which keeps
        the per-event cost of monitoring near zero.
        """
        if now_s + _EPS < self._next_boundary_s:
            return
        interval = self.config.interval_s
        while (self._boundary + 1) * interval <= now_s + _EPS:
            self._close_interval((self._boundary + 1) * interval)

    def _on_boundary(self, t_s: float) -> None:
        """Subclass hook, called first when a boundary closes."""

    def _close_interval(self, t_s: float) -> None:
        self._on_boundary(t_s)
        # Expired deadlines of unsettled requests become bad events at
        # their deadline — the streaming signal a crash produces while
        # the run is still in flight.
        while self._deadlines and self._deadlines[0][0] <= t_s + _EPS:
            _, rid = heapq.heappop(self._deadlines)
            if self.settle(rid, good=False):
                self._rates["rate.slo_misses"].bump()
        interval = self.config.interval_s
        for name, gauge in self._gauges.items():
            self.series[name].append(gauge.sample(interval))
        for name, rate in self._rates.items():
            self.series[name].append(rate.sample(interval))
        for name, window in self._windows.items():
            values = window.percentiles(self._window_pcts[name])
            for ts, value in zip(self._window_series[name], values):
                ts.append(value)
            window.roll()
        self.engine.observe(self._good_pending, self._bad_pending, t_s)
        for rule in self.config.rules:
            burn_long, burn_short = self.engine.burn_rates(rule.name)
            self.series[f"burn.{rule.name}.long"].append(burn_long)
            self.series[f"burn.{rule.name}.short"].append(burn_short)
        self._good_pending = 0
        self._bad_pending = 0
        self._boundary += 1
        self._next_boundary_s = (self._boundary + 1) * interval

    def finish(self, horizon_s: float) -> None:
        """Flush deadlines, close the final partial interval, drain alerts.

        Advances the grid to cover ``horizon_s`` and every outstanding
        deadline (so requests stuck forever on a dead device still
        register their miss), then — when ``config.drain`` — keeps
        closing empty intervals until every firing rule resolves, capped
        at the longest rule window plus its resolve streak, so a run
        that ends mid-incident deterministically records the resolve.
        """
        if self._finished:
            return
        self._finished = True
        last = horizon_s
        for deadline_s, rid in self._deadlines:
            if rid not in self._settled:
                last = max(last, deadline_s)
        interval = self.config.interval_s
        target = -(-int(last * 1e9) // int(interval * 1e9))  # ceil intervals
        while self._boundary < target:
            self._close_interval((self._boundary + 1) * interval)
        if self.config.drain:
            cap = max(
                -(-int(rule.long_window_s * 1e9) // int(interval * 1e9))
                + rule.resolve_intervals
                for rule in self.config.rules) + 1
            drained = 0
            while self.engine.any_firing and drained < cap:
                self._close_interval((self._boundary + 1) * interval)
                drained += 1

    # -- report ------------------------------------------------------------
    def payload(self, context: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
        """The ``repro-monitor-report-v1`` JSON payload."""
        engine = self.engine
        objective = self.config.objective
        total = engine.good_total + engine.bad_total
        error_rate = engine.bad_total / total if total else 0.0
        return {
            "schema": MONITOR_SCHEMA,
            "kind": self.kind,
            "seed": knobs.get("REPRO_SEED"),
            "interval_s": self.config.interval_s,
            "window_intervals": self.config.window_intervals,
            "intervals": engine.intervals,
            "duration_s": engine.intervals * self.config.interval_s,
            "context": dict(context or {}),
            "slo": {
                "name": objective.name,
                "target": objective.target,
                "budget": objective.budget,
                "good": engine.good_total,
                "bad": engine.bad_total,
                "total": total,
                "error_rate": error_rate,
                "budget_burned": error_rate / objective.budget,
            },
            "rules": [rule.as_dict() for rule in self.config.rules],
            "series": {name: ts.as_dict()
                       for name, ts in self.series.items()},
            "alerts": [event.as_dict() for event in engine.events],
            "active_alerts": engine.firing_rules(),
            "counts": engine.counts(),
        }


class FleetMonitor(_MonitorBase):
    """Per-interval sampling hooks for the discrete-event device fleet.

    Series: fleet queue depth, devices down / circuit-breaker-ejected,
    arrival/completion/rejection/timeout/retry/batch rates, the
    batcher's launch-trigger mix, windowed p50/p95/p99 end-to-end
    latency (``None`` on empty windows, never 0), per-rule burn rates,
    and — filled in at :meth:`finish` from the recorded busy windows —
    per-device and fleet-mean utilization with crash-truncated busy
    time, matching the simulator's refund accounting.
    """

    kind = "fleet"

    def __init__(self, config: MonitorConfig, slo_s: Dict[str, float],
                 devices: int) -> None:
        super().__init__(config)
        self.slo_s = dict(slo_s)
        self.devices = devices
        self._gauge("queue.depth", "requests")
        self._gauge("devices.down", "devices")
        self._gauge("devices.ejected", "devices")
        self._rate("rate.arrivals")
        self._rate("rate.completions")
        self._rate("rate.rejections")
        self._rate("rate.slo_misses")
        self._rate("rate.timeouts")
        self._rate("rate.retries")
        self._rate("rate.batches", "batch/s")
        for reason in LAUNCH_REASONS:
            self._rate(f"rate.launch.{reason}", "batch/s")
        self._window("latency")
        # Utilization series are computed at finish() from the busy
        # windows; registered now so report order stays deterministic.
        self.series["util.mean"] = TimeSeries("util.mean", "gauge",
                                              "fraction")
        for index in range(devices):
            name = f"util.d{index}"
            self.series[name] = TimeSeries(name, "gauge", "fraction")
        self._busy: List[List[List[float]]] = [[] for _ in range(devices)]
        self._down: Set[int] = set()
        self._ejected: Set[int] = set()

    # -- lifecycle hooks (called by FleetSimulator) ------------------------
    def note_arrival(self, rid: int, model: str, now_s: float) -> None:
        """First-attempt arrival: count it and arm the SLO deadline."""
        self._rates["rate.arrivals"].bump()
        self.push_deadline(rid, now_s + self.slo_s[model])

    def note_reject(self, rid: int, now_s: float) -> None:
        """Any shed (verify, breaker, queue full): bad at reject time."""
        self._rates["rate.rejections"].bump()
        self.settle(rid, good=False)

    def note_queue(self, delta: int) -> None:
        self._gauges["queue.depth"].add(delta)

    def note_launch(self, device: int, start_s: float, finish_s: float,
                    batch: int) -> None:
        self._rates["rate.batches"].bump()
        self._busy[device].append([start_s, finish_s])

    def note_launch_reason(self, reason: str) -> None:
        """Which trigger fired the batch (from ``plan_batch``)."""
        self._rates[f"rate.launch.{reason}"].bump()

    def note_complete(self, rid: int, now_s: float, latency_ms: float,
                      bad: bool) -> None:
        self._rates["rate.completions"].bump()
        self._windows["latency"].observe(latency_ms)
        good = (not bad) and self.within_deadline(rid, now_s)
        if self.settle(rid, good=good) and not good:
            self._rates["rate.slo_misses"].bump()

    def note_timeout(self) -> None:
        self._rates["rate.timeouts"].bump()

    def note_retry(self) -> None:
        self._rates["rate.retries"].bump()

    def note_crash(self, device: int, now_s: float) -> None:
        """Device down; truncate its in-flight busy window (the refund)."""
        self._down.add(device)
        self._gauges["devices.down"].set(len(self._down))
        windows = self._busy[device]
        if windows and windows[-1][1] > now_s:
            windows[-1][1] = max(windows[-1][0], now_s)

    def note_recover(self, device: int) -> None:
        self._down.discard(device)
        self._gauges["devices.down"].set(len(self._down))

    def note_eject(self, device: int) -> None:
        self._ejected.add(device)
        self._gauges["devices.ejected"].set(len(self._ejected))

    def note_readmit(self, device: int) -> None:
        self._ejected.discard(device)
        self._gauges["devices.ejected"].set(len(self._ejected))

    def finish(self, horizon_s: float) -> None:
        super().finish(horizon_s)
        interval = self.config.interval_s
        n = self.engine.intervals
        per_device: List[List[float]] = []
        for device in range(self.devices):
            busy = [0.0] * n
            for start_s, end_s in self._busy[device]:
                lo = max(0, int(start_s / interval))
                for i in range(lo, n):
                    left = i * interval
                    if left >= end_s:
                        break
                    overlap = min(end_s, left + interval) - max(start_s,
                                                                left)
                    if overlap > 0.0:
                        busy[i] += overlap
            series = [b / interval for b in busy]
            self.series[f"util.d{device}"].samples = series
            per_device.append(series)
        self.series["util.mean"].samples = [
            sum(col) / self.devices for col in zip(*per_device)
        ] if per_device and n else []


class LLMMonitor(_MonitorBase):
    """Per-interval sampling hooks for the LLM batching engines.

    Series: active decode slots, KV tokens reserved, requests waiting,
    arrival/completion/rejection/token rates, windowed TTFT / ITL /
    end-to-end latency percentiles, and the burn-rate pair.  Deadlines
    (``arrival + slo_s(request)``) are armed up front in :meth:`start`
    because the whole request list is known before the engine runs.
    """

    kind = "llm"

    def __init__(self, config: MonitorConfig) -> None:
        super().__init__(config)
        self._gauge("slots.active", "slots")
        self._gauge("kv.reserved", "tokens")
        self._gauge("queue.pending", "requests")
        self._rate("rate.arrivals")
        self._rate("rate.completions")
        self._rate("rate.rejections")
        self._rate("rate.slo_misses")
        self._rate("rate.tokens", "tok/s")
        self._window("ttft")
        self._window("itl")
        self._window("latency")
        self._arrivals: List[float] = []
        self._arrival_head = 0

    def start(self, requests: Sequence[Any], slo_s_fn) -> None:
        """Arm every request's deadline and arrival time up front."""
        for request in requests:
            self.push_deadline(request.rid,
                               request.arrival_s + slo_s_fn(request))
        self._arrivals = sorted(r.arrival_s for r in requests)
        self._arrival_head = 0

    def _on_boundary(self, t_s: float) -> None:
        count = 0
        while (self._arrival_head < len(self._arrivals)
               and self._arrivals[self._arrival_head] <= t_s + _EPS):
            self._arrival_head += 1
            count += 1
        self._rates["rate.arrivals"].bump(count)

    # -- lifecycle hooks (called by the batchers) --------------------------
    def note_state(self, slots: int, kv_reserved: int,
                   pending: int) -> None:
        self._gauges["slots.active"].set(slots)
        self._gauges["kv.reserved"].set(kv_reserved)
        self._gauges["queue.pending"].set(pending)

    def note_reject(self, rid: int) -> None:
        self._rates["rate.rejections"].bump()
        self.settle(rid, good=False)

    def note_tokens(self, count: int) -> None:
        self._rates["rate.tokens"].bump(count)

    def note_ttft(self, ttft_s: float) -> None:
        self._windows["ttft"].observe(ttft_s * 1e3)

    def note_itl(self, itl_s: float) -> None:
        self._windows["itl"].observe(itl_s * 1e3)

    def note_complete(self, rid: int, now_s: float,
                      latency_ms: float) -> None:
        self._rates["rate.completions"].bump()
        self._windows["latency"].observe(latency_ms)
        good = self.within_deadline(rid, now_s)
        if self.settle(rid, good=good) and not good:
            self._rates["rate.slo_misses"].bump()


# ---------------------------------------------------------------------------
# Report validation + rendering
# ---------------------------------------------------------------------------
def validate_monitor_report(payload: Dict[str, Any]) -> List[str]:
    """Structural checks on a monitor report; returns problem strings."""
    problems: List[str] = []
    if payload.get("schema") != MONITOR_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {MONITOR_SCHEMA!r}")
    if payload.get("kind") not in ("fleet", "llm"):
        problems.append(f"kind is {payload.get('kind')!r}")
    intervals = payload.get("intervals")
    if not isinstance(intervals, int) or intervals < 0:
        problems.append(f"intervals is {intervals!r}")
        intervals = None
    if not (isinstance(payload.get("interval_s"), (int, float))
            and payload.get("interval_s", 0) > 0):
        problems.append(f"interval_s is {payload.get('interval_s')!r}")
    slo = payload.get("slo")
    if not isinstance(slo, dict):
        problems.append("slo block missing")
    else:
        for key in ("name", "target", "budget", "good", "bad", "total",
                    "error_rate", "budget_burned"):
            if key not in slo:
                problems.append(f"slo.{key} missing")
        if isinstance(slo.get("good"), int) and isinstance(
                slo.get("bad"), int) and \
                slo.get("total") != slo["good"] + slo["bad"]:
            problems.append("slo.total != good + bad")
    rules = payload.get("rules")
    rule_names = set()
    if not isinstance(rules, list) or not rules:
        problems.append("rules list missing or empty")
    else:
        for rule in rules:
            for key in ("name", "severity", "factor", "long_window_s",
                        "short_window_s"):
                if key not in rule:
                    problems.append(f"rule missing {key}: {rule}")
            rule_names.add(rule.get("name"))
    series = payload.get("series")
    if not isinstance(series, dict) or not series:
        problems.append("series block missing or empty")
    else:
        for name, column in series.items():
            for key in ("kind", "unit", "samples"):
                if key not in column:
                    problems.append(f"series {name!r} missing {key}")
            samples = column.get("samples")
            if not isinstance(samples, list):
                problems.append(f"series {name!r} samples not a list")
            elif intervals is not None and len(samples) != intervals:
                problems.append(f"series {name!r} has {len(samples)} "
                                f"samples, expected {intervals}")
    alerts = payload.get("alerts")
    if not isinstance(alerts, list):
        problems.append("alerts list missing")
        alerts = []
    state: Dict[str, bool] = {}
    for event in alerts:
        if event.get("kind") not in ("fire", "resolve"):
            problems.append(f"alert kind {event.get('kind')!r}")
            continue
        rule = event.get("rule")
        if rule_names and rule not in rule_names:
            problems.append(f"alert references unknown rule {rule!r}")
        firing = state.get(rule, False)
        if event["kind"] == "fire" and firing:
            problems.append(f"rule {rule!r} fired twice without resolve")
        if event["kind"] == "resolve" and not firing:
            problems.append(f"rule {rule!r} resolved without firing")
        state[rule] = event["kind"] == "fire"
    active = payload.get("active_alerts")
    if not isinstance(active, list):
        problems.append("active_alerts list missing")
    else:
        expected = sorted(rule for rule, firing in state.items() if firing)
        if sorted(active) != expected:
            problems.append(f"active_alerts {active!r} inconsistent with "
                            f"alert stream (expected {expected!r})")
    return problems


def monitor_table(payload: Dict[str, Any]) -> str:
    """Fixed-width per-series summary table for a monitor report."""
    from ..harness.report import render_table
    rows = []
    for name, column in payload.get("series", {}).items():
        present = [s for s in column["samples"] if s is not None]
        rows.append((
            name,
            column["kind"],
            len(present),
            f"{max(present):.3f}" if present else "n/a",
            (f"{present[-1]:.3f}" if present else "n/a"),
        ))
    title = (f"monitor: {payload.get('kind')} · "
             f"{payload.get('intervals')} intervals · "
             f"{len(payload.get('alerts', []))} alert events")
    return render_table(("series", "kind", "samples", "max", "last"),
                        rows, title=title)


# ---------------------------------------------------------------------------
# Picklable sweep point (serial-vs-jobs determinism harness)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MonitorPoint:
    """One monitored fleet run, self-contained and picklable."""

    costs: Any                      # ServiceCosts (frozen)
    models: Tuple[str, ...]
    devices: int
    rate_rps: float
    duration_s: float
    routing: str = "round_robin"
    batch_kind: str = "dynamic"
    resilience_kind: str = "naive"
    fault_plan: Any = None          # Optional[FaultPlan]
    interval_s: float = 0.1
    window_intervals: int = 10
    slo_target: float = 0.999
    stream: int = 0


def run_monitor_point(point: MonitorPoint) -> Dict[str, Any]:
    """Run one monitored point (module-level so process pools pickle it).

    Returns ``{"serving": ServingReport.as_dict(), "monitor": payload}``
    — both pure functions of ``(REPRO_SEED, point)``.
    """
    from .fleet import FleetSimulator
    from .scheduler import BatchPolicy, ResiliencePolicy
    from .workload import OpenLoopPoisson
    config = MonitorConfig(
        interval_s=point.interval_s,
        window_intervals=point.window_intervals,
        objective=SLOObjective(target=point.slo_target),
        rules=default_rules(),
    )
    sim = FleetSimulator(
        point.costs,
        devices=point.devices,
        batch_policy=BatchPolicy(kind=point.batch_kind),
        routing=point.routing,
        fault_plan=point.fault_plan,
        resilience=ResiliencePolicy(kind=point.resilience_kind),
        monitor_config=config,
    )
    workload = OpenLoopPoisson(point.models, point.rate_rps,
                               point.duration_s, stream=point.stream)
    report = sim.run(workload, rate_rps=point.rate_rps)
    return {"serving": report.as_dict(), "monitor": sim.monitor_payload}
