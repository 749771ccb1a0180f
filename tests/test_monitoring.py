"""Streaming monitoring: samplers, burn-rate alerting, monitor reports."""

import json
import math
import random

import pytest

from repro.runtime import knobs, parallel_map
from repro.serving import (
    BatchPolicy,
    FleetSimulator,
    LLMMonitor,
    LLMServiceCosts,
    MonitorConfig,
    MonitorPoint,
    OpenLoopPoisson,
    ResiliencePolicy,
    ServiceCosts,
    llm_poisson_requests,
    make_llm_batcher,
    monitor_table,
    run_monitor_point,
    validate_monitor_report,
)
from repro.serving.metrics import ServingReport
from repro.serving.scheduler import ModelCost
from repro.telemetry import (
    AlertEngine,
    BurnRateRule,
    GaugeSampler,
    RateSampler,
    SLOObjective,
    SlidingWindowHistogram,
    StreamingHistogram,
    budget_burn,
    default_rules,
    nearest_rank,
    percentile,
)
from repro.telemetry.dashboard import render_dashboard, sparkline


def toy_costs(latency_s=0.010, compile_s=0.005, models=("m",)):
    return ServiceCosts(
        costs={m: ModelCost(latency_s, compile_s) for m in models},
        amortized_fraction=0.5)


# ---------------------------------------------------------------------------
# The shared percentile implementation (satellites 1 + 2)
# ---------------------------------------------------------------------------
def test_percentile_edge_semantics_pinned():
    # Empty input is 0.0 by (documented) contract -- callers that must
    # distinguish "no samples" check the count themselves.
    assert percentile([], 99) == 0.0
    # A single element is every percentile of itself.
    assert percentile([5.0], 0) == 5.0
    assert percentile([5.0], 50) == 5.0
    assert percentile([5.0], 99) == 5.0
    # Nearest rank, never interpolation: results are observed values.
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50) == 2.0
    assert percentile(values, 75) == 3.0
    assert percentile(values, 76) == 4.0
    assert percentile(values, 100) == 4.0


def test_nearest_rank_rejects_empty():
    with pytest.raises(ValueError):
        nearest_rank(0, 50)


def test_serving_metrics_reuses_telemetry_percentile():
    # ONE implementation of the rank rule: the serving metrics module
    # re-exports the telemetry one, not a private copy.
    from repro.serving import metrics
    from repro.telemetry import timeseries
    assert metrics.percentile is timeseries.percentile


def test_empty_serving_report_renders_na_not_zero():
    report = ServingReport(
        models=("m",), devices=1, batch_policy="dynamic", max_batch=8,
        max_wait_ms=2.0, routing="round_robin", rate_rps=10.0,
        duration_s=1.0, offered=4, completed=0, rejected=4)
    table = report.table()
    assert "n/a" in table
    # Latency rows must not masquerade as a measured zero-millisecond p99.
    for line in table.splitlines():
        if "latency" in line:
            assert "0.00" not in line


# ---------------------------------------------------------------------------
# Streaming histogram vs the exact estimator (satellite 1)
# ---------------------------------------------------------------------------
def test_streaming_histogram_tracks_exact_percentile_within_bound():
    rng = random.Random(4)
    hist = StreamingHistogram()
    samples = []
    for _ in range(5000):
        value = math.exp(rng.gauss(2.5, 1.2))  # lognormal latencies, ms
        samples.append(value)
        hist.observe(value)
    samples.sort()
    bound = hist.max_relative_error
    assert 0.02 < bound < 0.03  # sqrt(1.05) - 1
    for q in (10, 50, 90, 95, 99, 99.9):
        exact = percentile(samples, q)
        estimate = hist.percentile(q)
        assert abs(estimate - exact) / exact <= bound + 1e-12, (
            f"p{q}: estimate {estimate} vs exact {exact}")


def test_streaming_histogram_merge_equals_union():
    rng = random.Random(5)
    merged, left, right = (StreamingHistogram() for _ in range(3))
    for index in range(2000):
        value = math.exp(rng.gauss(1.0, 2.0))
        merged.observe(value)
        (left if index % 2 else right).observe(value)
    left.merge(right)
    assert left.counts == merged.counts
    assert left.count == merged.count
    for q in (50, 99):
        assert left.percentile(q) == merged.percentile(q)


def test_streaming_histogram_clamps_and_empty():
    hist = StreamingHistogram(lo=1.0, hi=100.0)
    assert hist.percentile(50) is None
    hist.observe(1e-12)   # underflow -> reported as lo
    hist.observe(1e12)    # overflow -> reported as hi
    assert hist.percentile(0) == 1.0
    assert hist.percentile(100) == 100.0
    with pytest.raises(ValueError):
        hist.merge(StreamingHistogram(lo=2.0, hi=100.0))


def test_sliding_window_forgets_old_intervals():
    window = SlidingWindowHistogram(window_intervals=3)
    window.observe(1000.0)
    window.roll()
    window.roll()
    assert window.percentile(99) == pytest.approx(1000.0, rel=0.05)
    window.roll()  # the 1000ms interval falls out of the 3-interval window
    assert window.percentile(99) is None
    window.observe(10.0)
    qs = (50, 95, 99)
    assert window.percentiles(qs) == [window.percentile(q) for q in qs]


def test_gauge_and_rate_sampler_semantics():
    gauge = GaugeSampler()
    gauge.set(7)
    gauge.add(-2)
    assert gauge.sample(0.1) == 5.0
    assert gauge.sample(0.1) == 5.0   # levels persist across intervals
    rate = RateSampler()
    rate.bump()
    rate.bump(4)
    assert rate.sample(0.1) == pytest.approx(50.0)
    assert rate.sample(0.1) == 0.0    # flows reset every interval


# ---------------------------------------------------------------------------
# Hand-computed burn-rate scenarios (satellite 3)
# ---------------------------------------------------------------------------
def _engine(rules, target=0.9, interval_s=0.1):
    return AlertEngine(SLOObjective(target=target), tuple(rules), interval_s)


def test_fast_burn_fires_when_both_windows_exceed_factor():
    # budget = 0.1; factor 2 => fire needs error rate >= 0.2 in BOTH the
    # 3-interval long window and the 1-interval short window.
    rule = BurnRateRule(name="r", severity="page", factor=2.0,
                        long_window_s=0.3, short_window_s=0.1,
                        hysteresis=0.9, resolve_intervals=2)
    engine = _engine([rule])
    assert engine.observe(9, 1, 0.1) == []      # rate 0.1, burn 1.0
    # Short window burns 5.0 but the long window holds (9+5, 1+5):
    # rate 6/20 = 0.3 -> burn 3.0 >= 2, so this interval fires.
    events = engine.observe(5, 5, 0.2)
    assert [(e.kind, e.rule) for e in events] == [("fire", "r")]
    assert events[0].burn_short == pytest.approx(5.0)
    assert events[0].burn_long == pytest.approx(3.0)
    assert engine.firing_rules() == ["r"]


def test_short_window_guard_ignores_stale_long_burn():
    # After an incident ends, the long window still carries the bad
    # events but the short window has recovered -- no (re)fire.
    rule = BurnRateRule(name="r", severity="page", factor=2.0,
                        long_window_s=0.3, short_window_s=0.1,
                        hysteresis=0.9, resolve_intervals=2)
    engine = _engine([rule])
    engine.observe(0, 10, 0.1)                  # burn 10 both -> fires
    assert engine.firing_rules() == ["r"]
    engine2 = _engine([rule])
    assert engine2.observe(10, 0, 0.1) == []
    assert engine2.observe(0, 10, 0.2) != []    # incident interval fires
    # A fresh engine seeing the incident only in its long window:
    engine3 = _engine([rule])
    engine3.observe(0, 10, 0.1)
    engine3._states[0].firing = False           # pretend it never fired
    assert engine3.observe(10, 0, 0.2) == []    # short window clean


def test_hysteresis_prevents_flapping():
    # clear threshold = factor * hysteresis = 2 * 0.9 = 1.8 => error
    # rate 0.19 (burn 1.9) is below fire but above clear: no resolve.
    rule = BurnRateRule(name="r", severity="page", factor=2.0,
                        long_window_s=0.1, short_window_s=0.1,
                        hysteresis=0.9, resolve_intervals=2)
    engine = _engine([rule])
    engine.observe(0, 100, 0.1)                 # fire
    for step in range(8):                       # straddle the threshold
        assert engine.observe(81, 19, 0.2 + step * 0.1) == []
    assert engine.firing_rules() == ["r"]       # never flapped
    # Two fully-quiet intervals resolve it (resolve_intervals=2).
    assert engine.observe(100, 0, 1.0) == []
    events = engine.observe(100, 0, 1.1)
    assert [(e.kind, e.rule) for e in events] == [("resolve", "r")]
    assert engine.firing_rules() == []


def test_no_data_windows_burn_zero_and_help_resolve():
    rule = BurnRateRule(name="r", severity="page", factor=2.0,
                        long_window_s=0.1, short_window_s=0.1,
                        hysteresis=0.9, resolve_intervals=2)
    engine = _engine([rule])
    assert engine.observe(0, 0, 0.1) == []      # no traffic != violation
    assert budget_burn(0, 0, engine.objective) == 0.0
    engine.observe(0, 10, 0.2)                  # fire
    engine.observe(0, 0, 0.3)                   # quiet streak 1
    events = engine.observe(0, 0, 0.4)          # quiet streak 2 -> resolve
    assert [e.kind for e in events] == ["resolve"]


def test_default_rules_page_vs_ticket_severities():
    # Sustained error rate of 8x budget trips the ticket (factor 6) but
    # never the page (factor 14.4).
    engine = AlertEngine(SLOObjective(target=0.999), default_rules(), 0.1)
    kinds = []
    for step in range(80):
        for event in engine.observe(992, 8, (step + 1) * 0.1):
            kinds.append((event.kind, event.severity))
    assert ("fire", "ticket") in kinds
    assert all(severity != "page" for _, severity in kinds)
    counts = engine.counts()
    assert counts.get("ticket_fire") == 1
    assert "page_fire" not in counts


def test_alert_engine_rejects_bad_config():
    rule = BurnRateRule(name="r", severity="page", factor=2.0,
                        long_window_s=0.3, short_window_s=0.1)
    with pytest.raises(ValueError):
        AlertEngine(SLOObjective(), (rule, rule), 0.1)  # duplicate names
    with pytest.raises(ValueError):
        AlertEngine(SLOObjective(), (rule,), 0.0)
    with pytest.raises(ValueError):
        SLOObjective(target=1.0)
    with pytest.raises(ValueError):
        BurnRateRule(name="r", severity="page", factor=2.0,
                     long_window_s=0.1, short_window_s=0.3)


# ---------------------------------------------------------------------------
# The monitored fleet
# ---------------------------------------------------------------------------
def _small_point(**overrides):
    base = dict(costs=ServiceCosts.resolve(["bert"]), models=("bert",),
                devices=4, rate_rps=80.0, duration_s=5.0)
    base.update(overrides)
    return MonitorPoint(**base)


def test_monitored_run_produces_valid_report():
    out = run_monitor_point(_small_point())
    payload = out["monitor"]
    assert validate_monitor_report(payload) == []
    assert payload["kind"] == "fleet"
    assert payload["intervals"] >= 50
    for name in ("queue.depth", "rate.arrivals", "latency.p99",
                 "util.mean", "util.d0", "burn.page-fast-burn.long"):
        assert len(payload["series"][name]["samples"]) == payload["intervals"]
    # A healthy fleet: every request settles, all of them good.
    slo = payload["slo"]
    assert slo["total"] == out["serving"]["offered"]
    assert slo["bad"] == 0
    assert payload["alerts"] == []
    assert "monitor" in monitor_table(payload)


def test_monitoring_is_observational():
    costs = ServiceCosts.resolve(["bert"])
    def run(monitor_config):
        sim = FleetSimulator(costs, devices=4, batch_policy=BatchPolicy(),
                             routing="round_robin",
                             resilience=ResiliencePolicy.naive(),
                             monitor_config=monitor_config)
        return sim.run(OpenLoopPoisson(("bert",), 80.0, 5.0),
                       rate_rps=80.0)
    plain = run(None)
    monitored = run(MonitorConfig())
    assert plain.as_dict() == monitored.as_dict()
    assert plain.table() == monitored.table()


def test_deterministic_crash_feeds_streaming_slo_misses():
    from repro.faults import FaultPlan
    from repro.faults.plan import CrashSpec
    # Pin the crash: device 0 dies at t=1.0s for 2s on a 2-device naive
    # round-robin fleet, so half the traffic misses its deadline.
    plan = FaultPlan(name="pinned", crash=CrashSpec(at=((0, 1.0),),
                                                    outage_s=2.0))
    out = run_monitor_point(_small_point(devices=2, fault_plan=plan))
    payload = out["monitor"]
    assert validate_monitor_report(payload) == []
    misses = payload["series"]["rate.slo_misses"]["samples"]
    first_miss_s = next(
        (index + 1) * payload["interval_s"]
        for index, sample in enumerate(misses) if sample)
    # The miss signal streams in while the device is still down --
    # well before the outage ends at t=3.0.
    assert 1.0 < first_miss_s < 3.0
    assert any(e["kind"] == "fire" and e["severity"] == "page"
               for e in payload["alerts"])
    assert payload["active_alerts"] == []  # resolved by the drain
    down = payload["series"]["devices.down"]["samples"]
    assert max(down) == 1.0


def test_serial_and_jobs_monitor_streams_byte_identical():
    points = [_small_point(stream=stream) for stream in (0, 1, 2)]
    serial = parallel_map(run_monitor_point, points, jobs=1)
    forked = parallel_map(run_monitor_point, points, jobs=2)
    assert (json.dumps(serial, sort_keys=True)
            == json.dumps(forked, sort_keys=True))


def test_monitor_counter_events_are_a_valid_trace():
    from repro.telemetry.export import (
        MONITOR_PID,
        chrome_trace,
        monitor_counter_events,
        validate_trace,
    )
    payload = run_monitor_point(_small_point())["monitor"]
    events = monitor_counter_events(payload)
    assert events and all(e["pid"] == MONITOR_PID for e in events)
    assert any(e["ph"] == "C" for e in events)
    validate_trace(chrome_trace([], device_events=events))


# ---------------------------------------------------------------------------
# The monitored LLM engine
# ---------------------------------------------------------------------------
def test_llm_monitor_reports_and_stays_quiet_at_light_load():
    costs = LLMServiceCosts.resolve("gpt2_rms")
    monitor = LLMMonitor(MonitorConfig(interval_s=0.05))
    requests = llm_poisson_requests(4.0, 4.0, (8, 32), (8, 32), 0)
    batcher = make_llm_batcher("continuous", costs, monitor=monitor)
    report = batcher.run(requests, rate_rps=4.0, duration_s=4.0)
    payload = monitor.payload(context={"config": "gpt2_rms"})
    assert validate_monitor_report(payload) == []
    assert payload["kind"] == "llm"
    assert payload["slo"]["total"] == len(requests)
    assert payload["slo"]["bad"] == 0
    assert payload["alerts"] == []
    tokens = [s for s in payload["series"]["rate.tokens"]["samples"] if s]
    assert sum(tokens) > 0
    assert report.completed == len(requests)


def test_llm_monitor_is_observational():
    costs = LLMServiceCosts.resolve("gpt2_rms")
    requests = llm_poisson_requests(4.0, 4.0, (8, 32), (8, 32), 0)
    plain = make_llm_batcher("continuous", costs).run(
        requests, rate_rps=4.0, duration_s=4.0)
    monitored = make_llm_batcher(
        "continuous", costs,
        monitor=LLMMonitor(MonitorConfig())).run(
            requests, rate_rps=4.0, duration_s=4.0)
    assert plain.as_dict() == monitored.as_dict()


# ---------------------------------------------------------------------------
# Report validation, dashboard, env plumbing
# ---------------------------------------------------------------------------
def test_validator_flags_corrupted_reports():
    payload = run_monitor_point(_small_point())["monitor"]
    assert validate_monitor_report(payload) == []

    bad = json.loads(json.dumps(payload))
    bad["schema"] = "bogus"
    assert any("schema" in p for p in validate_monitor_report(bad))

    bad = json.loads(json.dumps(payload))
    bad["series"]["queue.depth"]["samples"].pop()
    assert any("queue.depth" in p for p in validate_monitor_report(bad))

    bad = json.loads(json.dumps(payload))
    bad["alerts"] = [{"kind": "resolve", "rule": "page-fast-burn",
                      "severity": "page", "t_s": 1.0,
                      "burn_long": 0.0, "burn_short": 0.0}]
    assert any("resolved without firing" in p
               for p in validate_monitor_report(bad))

    bad = json.loads(json.dumps(payload))
    bad["active_alerts"] = ["page-fast-burn"]
    assert any("active_alerts" in p for p in validate_monitor_report(bad))

    bad = json.loads(json.dumps(payload))
    bad["slo"]["total"] += 1
    assert any("good + bad" in p for p in validate_monitor_report(bad))


def test_dashboard_renders_with_and_without_color():
    payload = run_monitor_point(_small_point())["monitor"]
    plain = render_dashboard(payload, color=False)
    assert "\x1b[" not in plain
    assert "latency.p99" in plain and "no active alerts" in plain
    colored = render_dashboard(payload, color=True)
    assert "\x1b[" in colored


def test_sparkline_gaps_and_scale():
    line = sparkline([0.0, None, 8.0], width=3)
    assert len(line) == 3
    assert line[1] == "·"          # None renders as a gap
    assert line[0] != line[2]           # scale spans min..max
    assert sparkline([], width=5) == "·" * 5


def test_monitoring_enabled_env_logic(monkeypatch):
    monkeypatch.delenv("REPRO_MONITOR", raising=False)
    assert knobs.switch("REPRO_MONITOR") is False
    assert knobs.switch("REPRO_MONITOR", True) is True
    monkeypatch.setenv("REPRO_MONITOR", "1")
    assert knobs.switch("REPRO_MONITOR") is True
    monkeypatch.setenv("REPRO_MONITOR", "0")
    assert knobs.switch("REPRO_MONITOR", True) is False   # kill switch wins


def test_monitor_config_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_MONITOR_INTERVAL", "0.25")
    monkeypatch.setenv("REPRO_MONITOR_WINDOW", "4")
    monkeypatch.setenv("REPRO_MONITOR_SLO_TARGET", "0.99")
    config = MonitorConfig.from_env()
    assert config.interval_s == 0.25
    assert config.window_intervals == 4
    assert config.objective.target == 0.99
    assert MonitorConfig.from_env(interval_s=0.5).interval_s == 0.5
    with pytest.raises(ValueError):
        MonitorConfig(interval_s=0.0)
    with pytest.raises(ValueError):
        MonitorConfig(window_intervals=0)
