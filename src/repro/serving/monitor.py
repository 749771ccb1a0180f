"""Streaming fleet monitoring: interval sampling, SLO burn-rate alerts.

The fleet simulator used to be a batch scorer — one
:class:`~repro.serving.metrics.ServingReport` at the end of the run.
This module turns it into a *monitored service*: a
:class:`FleetMonitor` (``kind="llm"`` when the core runs an LLM batch
policy) samples every series on a fixed simulated-time grid, evaluates
Google-SRE multi-window burn-rate rules over the SLO error budget, and
emits a versioned ``repro-monitor-report-v1`` payload that the CLI
renders as a terminal dashboard (``repro serve --monitor`` /
``repro monitor <report>``) or exports as Chrome-trace counter tracks.
The event loop calls the monitor at interval boundaries, where it reads
the counters, gauges and latency columns the core keeps anyway, and per
request only for the SLO deadline and busy-window bookkeeping (plus the
LLM engine's token and slot hooks).

Monitoring is strictly observational: the monitor never touches the
event heap, the RNG, or any decision the scheduler makes, so an
instrumented run produces a byte-identical :class:`ServingReport` —
asserted by ``tests/test_monitoring.py``.  It is not free inside the
simulator: on the 64-device chaos point (``fleet_chaos``) a monitored
run takes about 1.45x the unmonitored run time (2 vCPUs; 1.65x when the
core called the monitor on every event).
``benchmarks/test_perf_monitoring.py`` records that ratio as
``monitored_sim_overhead``; the ≤5% gate in
``benchmarks/test_perf_eval_pipeline.py`` is on a whole ``repro serve``
command, where start-up dominates.

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
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..runtime import knobs
from ..schema import check, passed
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

if TYPE_CHECKING:
    from .scale import FleetCell

MONITOR_SCHEMA = "repro-monitor-report-v1"

#: Boundary comparison slack: an event stamped exactly on a boundary
#: must land deterministically despite float accumulation.
_EPS = 1e-9

#: Batch-launch trigger reasons recorded by the fleet's batch rule.
LAUNCH_REASONS = ("full", "deadline", "greedy", "single")


@dataclass(frozen=True)
class MonitorConfig:
    """Frozen monitoring parameters (picklable; env-overridable).

    ``interval_s`` is the sampling grid in *simulated* seconds;
    ``window_intervals`` sizes the sliding latency window (so the
    windowed p99 spans ``interval_s * window_intervals`` of sim time).
    """

    interval_s: float = 0.1
    window_intervals: int = 10
    objective: SLOObjective = field(default_factory=SLOObjective)
    rules: Tuple[BurnRateRule, ...] = field(default_factory=default_rules)

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
                 window_intervals: Optional[int] = None
                 ) -> "MonitorConfig":
        """Build a config from ``REPRO_MONITOR_*`` with CLI overrides."""
        return cls(
            interval_s=(interval_s if interval_s is not None
                        else knobs.get("REPRO_MONITOR_INTERVAL")),
            window_intervals=(window_intervals if window_intervals is not None
                              else knobs.get("REPRO_MONITOR_WINDOW")),
            objective=default_objective(),
            rules=default_rules(),
        )


class FleetMonitor:
    """Interval grid + series registry + settle-once SLO accounting.

    At each boundary the fleet event core hands over its running totals,
    gauge levels and latency columns (:meth:`advance`); the monitor
    closes the interval, rolls the latency windows, evaluates the alert
    engine, and records per-rule burn-rate series.  Series registration
    order is the report order (deterministic).

    ``kind="fleet"`` series: fleet queue depth, devices down / circuit-
    breaker-ejected, arrival/completion/rejection/timeout/retry/batch
    rates, the batcher's launch-trigger mix, windowed p50/p95/p99
    end-to-end latency (``None`` on empty windows, never 0), per-rule
    burn rates, and per-device and fleet-mean utilization with
    crash-truncated busy time, matching the simulator's refund
    accounting.

    State grows with in-flight requests and with devices × intervals,
    never with total requests: ``_open`` maps each armed, unsettled
    request to its deadline (popped when it settles), and each device
    keeps only its last busy window — the one a crash may still cut
    short — folding the one before into a per-interval busy column
    when the next batch launches.

    ``kind="llm"`` (the core under an LLM batch policy) series: active
    decode slots, KV tokens reserved and requests waiting (arrived, not
    yet admitted) — all three set at each decode-step or batch launch —
    arrival/completion/rejection/token rates, windowed TTFT / ITL /
    end-to-end latency percentiles, and the burn-rate pair.
    """

    def __init__(self, config: MonitorConfig, devices: int = 1,
                 kind: str = "fleet") -> None:
        self.config = config
        self.kind = kind
        self.devices = devices
        self.engine = AlertEngine(config.objective, config.rules,
                                  config.interval_s)
        self._boundary = 0            # completed intervals
        self.series: Dict[str, TimeSeries] = {}
        self._gauges: Dict[str, GaugeSampler] = {}
        self._rates: Dict[str, RateSampler] = {}
        self._windows: Dict[str, SlidingWindowHistogram] = {}
        self._window_pcts: Dict[str, Tuple[int, ...]] = {}
        self._window_series: Dict[str, Tuple[TimeSeries, ...]] = {}
        self._deadlines: List[Tuple[float, int]] = []   # (deadline_s, rid)
        self._open: Dict[int, float] = {}   # armed, unsettled rid -> deadline
        self._good_pending = 0
        self._bad_pending = 0
        # What the last read saw: each pulled rate's running total and
        # the length of each pulled column.
        self._read: Dict[str, float] = {}
        self._finished = False
        for rule in config.rules:
            for window in ("long", "short"):
                name = f"burn.{rule.name}.{window}"
                self.series[name] = TimeSeries(name, "burn_rate", "x")
        llm = kind == "llm"
        if llm:
            self._gauge("slots.active", "slots")
            self._gauge("kv.reserved", "tokens")
            self._gauge("queue.pending", "requests")
        else:
            self._gauge("queue.depth", "requests")
            self._gauge("devices.down", "devices")
            self._gauge("devices.ejected", "devices")
        for name in ("arrivals", "completions", "rejections", "slo_misses"):
            self._rate(f"rate.{name}")
        if llm:
            self._rate("rate.tokens", "tok/s")
            self._window("ttft")
            self._window("itl")
            self._window("latency")
            return
        self._rate("rate.timeouts")
        self._rate("rate.retries")
        self._rate("rate.batches", "batch/s")
        for reason in LAUNCH_REASONS:
            self._rate(f"rate.launch.{reason}", "batch/s")
        self._window("latency")
        # Utilization series are filled at finish() from the folded
        # busy columns; registered now so report order stays
        # deterministic.
        self.series["util.mean"] = TimeSeries("util.mean", "gauge",
                                              "fraction")
        for index in range(devices):
            name = f"util.d{index}"
            self.series[name] = TimeSeries(name, "gauge", "fraction")
        # Per device: busy seconds per interval from the closed windows,
        # and the last window ([0, 0], which folds to nothing, before
        # the first launch).
        self._busy: List[array] = [array("d") for _ in range(devices)]
        self._last_start = [0.0] * devices
        self._last_end = [0.0] * devices

    # -- series registration (call from __init__ only) ---------------------
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

    # -- the interval grid -------------------------------------------------
    def advance(self, now_s: float,
                columns: Optional[Mapping[str, Sequence[float]]] = None,
                state: Optional[Mapping[str, float]] = None) -> float:
        """Read the core's state, close every boundary at or before
        ``now_s`` and return the next one's time.

        The event loop calls this when an event reaches the next
        boundary, *before* applying it, so each boundary samples the
        state as simulated time passed it.  ``columns`` maps latency
        windows to the core's sample columns (ms, in event order), read
        from where the last call stopped; ``state`` maps rate series to
        the core's running totals (the rate is the increase) and gauges
        to their levels.  Extra calls close and read nothing twice.
        """
        self._pull(columns, state)
        interval = self.config.interval_s
        while (self._boundary + 1) * interval <= now_s + _EPS:
            self._close_interval((self._boundary + 1) * interval)
        return (self._boundary + 1) * interval

    def _pull(self, columns: Optional[Mapping[str, Sequence[float]]],
              state: Optional[Mapping[str, float]]) -> None:
        """Fold the core's columns, totals and levels into the interval."""
        for name, column in (columns or {}).items():
            self._windows[name].observe_all(column[self._read.get(name, 0):])
            self._read[name] = len(column)
        for name, value in (state or {}).items():
            if name in self._gauges:
                self._gauges[name].set(value)
            else:
                self._rates[name].bump(value - self._read.get(name, 0))
                self._read[name] = value

    def _close_interval(self, t_s: float) -> None:
        # Expired deadlines of unsettled requests become bad events at
        # their deadline — the streaming signal a crash produces while
        # the run is still in flight.
        while self._deadlines and self._deadlines[0][0] <= t_s + _EPS:
            _, rid = heapq.heappop(self._deadlines)
            if self._open.pop(rid, None) is not None:
                self._bad_pending += 1
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

    def finish(self, horizon_s: float,
               columns: Optional[Mapping[str, Sequence[float]]] = None,
               state: Optional[Mapping[str, float]] = None) -> None:
        """Flush deadlines, close the final partial interval, drain alerts.

        Reads the core's final ``columns`` and ``state`` as
        :meth:`advance` does, then advances the grid to cover
        ``horizon_s`` and every outstanding
        deadline (so requests stuck forever on a dead device still
        register their miss), then keeps closing empty intervals until
        every firing rule resolves, capped at the longest rule window
        plus its resolve streak, so a run that ends mid-incident
        deterministically records the resolve.
        The fleet's utilization series are filled in last; an LLM
        engine has drained by now, so its gauges read zero.
        """
        if self._finished:
            return
        self._finished = True
        self._pull(columns, state)
        if self.kind == "llm":
            self.note_state(0, 0, 0)
        last = horizon_s
        for deadline_s, rid in self._deadlines:
            if rid in self._open:
                last = max(last, deadline_s)
        interval = self.config.interval_s
        target = -(-int(last * 1e9) // int(interval * 1e9))  # ceil intervals
        while self._boundary < target:
            self._close_interval((self._boundary + 1) * interval)
        cap = max(
            -(-int(rule.long_window_s * 1e9) // int(interval * 1e9))
            + rule.resolve_intervals
            for rule in self.config.rules) + 1
        drained = 0
        while self.engine.any_firing and drained < cap:
            self._close_interval((self._boundary + 1) * interval)
            drained += 1
        if self.kind == "fleet":
            self._fill_utilization()

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


    # -- per-request hooks (called by the fleet event loop) ----------------
    # Counts, gauges and latency columns are read at boundaries
    # (advance); the hooks below keep only what the core does not: the
    # SLO deadlines and each device's last busy window.
    def note_arrival(self, rid: int, deadline_s: float) -> None:
        """First-attempt arrival: arm its SLO deadline."""
        heapq.heappush(self._deadlines, (deadline_s, rid))
        self._open[rid] = deadline_s

    def note_reject(self, rid: int) -> None:
        """Any shed (verify, breaker, queue full): bad at reject time."""
        if self._open.pop(rid, None) is not None:
            self._bad_pending += 1

    def note_complete(self, rid: int, now_s: float,
                      bad: bool = False) -> None:
        """Settle a completion: good if clean and within its deadline."""
        deadline = self._open.pop(rid, None)
        if deadline is None:
            return      # already settled (its deadline expired)
        if not bad and now_s <= deadline + _EPS:
            self._good_pending += 1
        else:
            self._bad_pending += 1
            self._rates["rate.slo_misses"].bump()

    def note_launch(self, device: int, start_s: float,
                    finish_s: float) -> None:
        """A batch launch: add the device's last busy window into its
        busy column, then keep ``[start_s, finish_s]`` as the last.

        Each interval the window overlaps gains the overlap, in launch
        order; the column grows as far as the window reaches and
        :meth:`_fill_utilization` clips it to the closed intervals.
        """
        starts, ends = self._last_start, self._last_end
        lo, hi = starts[device], ends[device]
        starts[device], ends[device] = start_s, finish_s
        interval = self.config.interval_s
        i = int(lo / interval)
        left = i * interval
        while left < hi:
            overlap = min(hi, left + interval) - max(lo, left)
            if overlap > 0.0:
                busy = self._busy[device]
                if i >= len(busy):
                    busy.frombytes(bytes(8 * (i + 1 - len(busy))))
                busy[i] += overlap
            i += 1
            left = i * interval

    def note_crash(self, device: int, now_s: float) -> None:
        """Device down: truncate its last busy window (the refund).

        Only the last window can still be running, and it is not folded
        into the busy column until the device's next launch (or
        :meth:`finish`), so the cut lands before it is counted.
        """
        if self._last_end[device] > now_s:
            self._last_end[device] = max(self._last_start[device], now_s)

    # -- LLM engine hooks ---------------------------------------------------
    def note_state(self, slots: int, kv_reserved: int,
                   pending: int) -> None:
        self._gauges["slots.active"].set(slots)
        self._gauges["kv.reserved"].set(kv_reserved)
        self._gauges["queue.pending"].set(pending)

    def note_tokens(self, count: int) -> None:
        self._rates["rate.tokens"].bump(count)

    def _fill_utilization(self) -> None:
        """Per-device and fleet-mean utilization from the busy columns.

        Folds each device's last window, then pads (idle) or clips
        (busy past the last closed interval) the column to
        ``engine.intervals`` samples.
        """
        interval = self.config.interval_s
        n = self.engine.intervals
        per_device: List[List[float]] = []
        for device in range(self.devices):
            self.note_launch(device, 0.0, 0.0)   # folds the last window
            series = [b / interval for b in self._busy[device][:n]]
            series.extend([0.0] * (n - len(series)))
            self.series[f"util.d{device}"].samples = series
            per_device.append(series)
        self.series["util.mean"].samples = [
            sum(col) / self.devices for col in zip(*per_device)
        ] if per_device and n else []


# ---------------------------------------------------------------------------
# Report validation + rendering
# ---------------------------------------------------------------------------
#: Shape of a monitor report (:meth:`FleetMonitor.payload`). Fields only
#: the dashboard reads are untyped; the invariants' fields are typed.
MONITOR_SPEC = {"keys": {
    "schema": {"enum": [MONITOR_SCHEMA]},
    "kind": {"enum": ["fleet", "llm"]},
    "intervals": {"type": "int", "min": 0},
    "interval_s": {"type": "number", "gt": 0},
    "slo": {"keys": {
        "name": "any", "target": "any", "budget": "any", "good": "int",
        "bad": "int", "total": "int", "error_rate": "any",
        "budget_burned": "any"}},
    "rules": {"min": 1, "items": {"keys": {
        "name": "str", "severity": "any", "factor": "any",
        "long_window_s": "any", "short_window_s": "any"}}},
    "series": {"min": 1, "values": {"keys": {
        "kind": "any", "unit": "any", "samples": "list"}}},
    "alerts": {"items": {"keys": {
        "kind": {"enum": ["fire", "resolve"]}, "rule": "str"}}},
    "active_alerts": {"items": "str"},
}}


def validate_monitor_report(payload: Any) -> List[str]:
    """Problems with a monitor report (empty list = valid)."""
    problems = check(payload, MONITOR_SPEC)
    if passed(problems, "slo") and payload["slo"]["total"] != \
            payload["slo"]["good"] + payload["slo"]["bad"]:
        problems.append("$.slo.total: not equal to good + bad")
    if passed(problems, "intervals", "series"):
        for name, column in payload["series"].items():
            if len(column["samples"]) != payload["intervals"]:
                problems.append(f"$.series[{name!r}].samples: not one "
                                f"sample per interval")
    if passed(problems, "rules", "alerts", "active_alerts"):
        rules = {rule["name"] for rule in payload["rules"]}
        firing: Dict[str, bool] = {}
        for index, event in enumerate(payload["alerts"]):
            rule, fire = event["rule"], event["kind"] == "fire"
            if rule not in rules:
                problems.append(f"$.alerts[{index}].rule: unknown {rule!r}")
            if fire == firing.get(rule, False):
                problems.append(f"$.alerts[{index}]: {rule!r} " + (
                    "fired twice without resolve" if fire
                    else "resolved without firing"))
            firing[rule] = fire
        if sorted(payload["active_alerts"]) != sorted(
                rule for rule, on in firing.items() if on):
            problems.append("$.active_alerts: disagrees with the alerts")
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
    cells: int = 1
    routing: str = "round_robin"
    resilience_kind: str = "naive"
    fault_plan: Any = None          # Optional[FaultPlan]
    stream: int = 0

    def cell(self) -> FleetCell:
        """This run as a :class:`~repro.serving.scale.FleetCell`."""
        from .scale import FleetCell
        from .scheduler import BatchPolicy, ResiliencePolicy
        from .workload import OpenLoopPoisson
        return FleetCell(
            sim=dict(costs=self.costs, devices=self.devices,
                     cells=self.cells, batch_policy=BatchPolicy(),
                     routing=self.routing, fault_plan=self.fault_plan,
                     resilience=ResiliencePolicy(kind=self.resilience_kind),
                     monitor_config=MonitorConfig()),
            workload=partial(OpenLoopPoisson, self.models, self.rate_rps,
                             self.duration_s, stream=self.stream),
            rate_rps=self.rate_rps)


def run_monitor_point(point: MonitorPoint) -> Dict[str, Any]:
    """Run one monitored point (module-level so process pools pickle it).

    Returns ``{"serving": ServingReport.as_dict(), "monitor": payload}``
    — both pure functions of ``(REPRO_SEED, point)``.
    """
    from .scale import run_cell
    sim = run_cell(point.cell())
    return {"serving": sim.report.as_dict(), "monitor": sim.monitor_payload}
