"""Datacenter-scale core: bit-identity, autoscaling, traces, determinism."""

import json

import pytest

from repro.runtime import knobs, parallel_map
from repro.serving import (
    AutoscaleConfig,
    AutoscaleController,
    BatchPolicy,
    ClosedLoop,
    CostModel,
    DiurnalTrace,
    FleetSimulator,
    OpenLoopPoisson,
    ScaledFleetSimulator,
    ScalePoint,
    ServiceCosts,
    SweepPoint,
    TraceReplay,
    load_trace,
    run_point,
    run_scale_point,
    save_trace,
    scale_table,
    tail_bounded_throughput,
    validate_fleet_scale_report,
)
from repro.serving.scheduler import ModelCost


def toy_costs(latency_s=0.010, compile_s=0.005, amortized=0.5,
              models=("m",)):
    """Hand-set costs so expected times are computable by hand."""
    return ServiceCosts(
        costs={m: ModelCost(latency_s, compile_s) for m in models},
        amortized_fraction=amortized)


MODELS = ("a", "b")
COSTS = toy_costs(models=MODELS)


# ---------------------------------------------------------------------------
# Bit-identity with the legacy fleet (cells=1, autoscale off)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("routing",
                         ["round_robin", "least_loaded", "model_affinity"])
def test_scaled_core_bit_identical_to_legacy(routing):
    legacy = FleetSimulator(COSTS, devices=4, routing=routing).run(
        OpenLoopPoisson(MODELS, 300.0, 2.0), rate_rps=300.0)
    scaled = ScaledFleetSimulator(COSTS, devices=4, routing=routing).run(
        OpenLoopPoisson(MODELS, 300.0, 2.0), rate_rps=300.0)
    assert legacy.to_json() == scaled.to_json()


def test_scaled_core_bit_identical_closed_loop():
    def wl():
        return ClosedLoop(MODELS, clients=12, duration_s=1.0,
                          think_s=0.002)
    legacy = FleetSimulator(COSTS, devices=3).run(wl())
    scaled = ScaledFleetSimulator(COSTS, devices=3).run(wl())
    assert legacy.to_json() == scaled.to_json()


def test_scaled_core_bit_identical_under_overload():
    # Tiny admission queue: the reject path must match too.
    from repro.serving import AdmissionPolicy
    kwargs = dict(devices=2, admission=AdmissionPolicy(max_queue=4),
                  batch_policy=BatchPolicy("single"))
    legacy = FleetSimulator(COSTS, **kwargs).run(
        OpenLoopPoisson(MODELS, 2000.0, 1.0), rate_rps=2000.0)
    scaled = ScaledFleetSimulator(COSTS, **kwargs).run(
        OpenLoopPoisson(MODELS, 2000.0, 1.0), rate_rps=2000.0)
    assert legacy.rejected > 0
    assert legacy.to_json() == scaled.to_json()


def test_scaled_core_bit_identical_unverified_reject():
    costs = ServiceCosts(
        costs={"m": ModelCost(0.01, 0.0),
               "dirty": ModelCost(0.01, 0.0, verified=False)},
        amortized_fraction=0.5)
    legacy = FleetSimulator(costs, devices=2).run(
        OpenLoopPoisson(("m", "dirty"), 200.0, 1.0), rate_rps=200.0)
    scaled = ScaledFleetSimulator(costs, devices=2).run(
        OpenLoopPoisson(("m", "dirty"), 200.0, 1.0), rate_rps=200.0)
    assert legacy.verify_rejected > 0
    assert legacy.to_json() == scaled.to_json()


def test_sweep_point_use_scale_matches_legacy_run_point():
    point = SweepPoint(costs=toy_costs(), model="m", policy_kind="dynamic",
                       devices=4, rate_rps=400.0, duration_s=1.0)
    from dataclasses import replace
    legacy = run_point(point)
    scaled = run_point(replace(point, use_scale=True))
    assert legacy.to_json() == scaled.to_json()


# ---------------------------------------------------------------------------
# Constructor surface
# ---------------------------------------------------------------------------
def test_cells_must_divide_devices():
    with pytest.raises(ValueError, match="divide"):
        ScaledFleetSimulator(COSTS, devices=10, cells=3)


def test_autoscale_needs_multiple_cells():
    with pytest.raises(ValueError, match="cells >= 2"):
        ScaledFleetSimulator(COSTS, devices=4, cells=1,
                             autoscale=AutoscaleConfig())


def test_unknown_routing_rejected():
    with pytest.raises(ValueError, match="unknown routing"):
        ScaledFleetSimulator(COSTS, devices=2, routing="psychic")


def test_workload_model_must_be_costed():
    with pytest.raises(ValueError, match="not in ServiceCosts"):
        ScaledFleetSimulator(COSTS, devices=2).run(
            OpenLoopPoisson(("mystery",), 50.0, 1.0), rate_rps=50.0)


# ---------------------------------------------------------------------------
# Diurnal trace + trace files
# ---------------------------------------------------------------------------
def test_diurnal_trace_deterministic_and_stream_split():
    a = DiurnalTrace(MODELS, 500.0, 4.0).initial()
    b = DiurnalTrace(MODELS, 500.0, 4.0).initial()
    assert a == b
    other = DiurnalTrace(MODELS, 500.0, 4.0, stream=1).initial()
    assert a != other


def test_diurnal_trace_crests_mid_period():
    # With trough 0, the first quarter of the day must be much quieter
    # than the middle half (cosine envelope crests at period/2).
    arrivals = [r.arrival_s for r in
                DiurnalTrace(MODELS, 1000.0, 8.0,
                             trough_fraction=0.0).initial()]
    first_quarter = sum(1 for t in arrivals if t < 2.0)
    middle = sum(1 for t in arrivals if 2.0 <= t < 6.0)
    assert middle > 4 * first_quarter


def test_diurnal_trace_bursts_fill_the_trough():
    quiet = DiurnalTrace(MODELS, 800.0, 2.0, trough_fraction=0.0).initial()
    bursty = DiurnalTrace(MODELS, 800.0, 2.0, trough_fraction=0.0,
                          burst_every_s=1.0, burst_len_s=0.2).initial()
    # The burst windows accept at full rate where the envelope is near
    # zero, so early arrivals appear that the quiet trace never admits.
    assert sum(1 for r in bursty if r.arrival_s < 0.2) > \
        sum(1 for r in quiet if r.arrival_s < 0.2)


def test_diurnal_trace_duration_is_the_envelope():
    trace = DiurnalTrace(MODELS, 200.0, 4.0)
    assert trace.duration_s == 4.0
    assert all(r.arrival_s < 4.0 for r in trace.initial())


def test_diurnal_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DiurnalTrace(MODELS, 0.0, 1.0)
    with pytest.raises(ValueError):
        DiurnalTrace(MODELS, 10.0, 1.0, trough_fraction=1.5)


def test_trace_round_trips_through_json(tmp_path):
    trace = DiurnalTrace(MODELS, 300.0, 2.0)
    path = tmp_path / "day.json"
    written = save_trace(trace, str(path))
    assert written == len(trace.initial())
    replay = load_trace(str(path))
    assert replay.initial() == trace.initial()
    assert replay.duration_s == trace.duration_s
    # And the replay simulates byte-identically to the source trace.
    a = ScaledFleetSimulator(COSTS, devices=4).run(trace)
    b = ScaledFleetSimulator(COSTS, devices=4).run(replay)
    assert a.to_json() == b.to_json()


def test_load_trace_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "not-a-trace", "requests": []}))
    with pytest.raises(ValueError, match="schema"):
        load_trace(str(path))


# ---------------------------------------------------------------------------
# Autoscale controller: hand-computed decision scenarios
# ---------------------------------------------------------------------------
def _controller(**overrides):
    values = dict(interval_s=1.0, min_cells=1, cooldown_s=2.0,
                  queue_high=4.0, queue_low=0.5)
    values.update(overrides)
    return AutoscaleController(AutoscaleConfig(**values), cells=4)


def test_controller_scales_out_on_burn():
    ctrl = _controller()
    # 100% bad traffic: burn is astronomically over every rule factor,
    # and both windows fill at the very first interval.
    action, reason = ctrl.decide(1.0, good=0, bad=50, queued=0,
                                 active_cells=1, active_devices=8)
    assert action == "scale-out"
    assert reason.startswith("burn:")


def test_controller_scales_out_on_queue_depth():
    ctrl = _controller()
    # Healthy traffic but 5 queued per device >= queue_high of 4.
    decision = ctrl.decide(1.0, good=100, bad=0, queued=40,
                           active_cells=1, active_devices=8)
    assert decision == ("scale-out", "queue:5.00>= 4.0")


def test_controller_scale_in_waits_for_cooldown():
    ctrl = _controller()
    ctrl.record(1.0, "scale-out", "queue:...", cell=1, cells_active=2)
    # Quiet at t=2 (1s since the action) — cooldown of 2s not served.
    assert ctrl.decide(2.0, good=10, bad=0, queued=0,
                       active_cells=2, active_devices=16) is None
    # Quiet at t=3 (2s since) — now scale-in is allowed.
    action, reason = ctrl.decide(3.0, good=10, bad=0, queued=0,
                                 active_cells=2, active_devices=16)
    assert action == "scale-in"
    assert reason.startswith("quiet:")


def test_controller_never_goes_below_min_or_above_max():
    ctrl = _controller(min_cells=2, max_cells=3)
    # Quiet forever at the floor: no scale-in.
    assert ctrl.decide(10.0, good=10, bad=0, queued=0,
                       active_cells=2, active_devices=16) is None
    # Firing at the ceiling: no scale-out.
    assert ctrl.decide(11.0, good=0, bad=50, queued=999,
                       active_cells=3, active_devices=24) is None


def test_park_does_not_reset_the_cooldown_clock():
    ctrl = _controller()
    ctrl.record(1.0, "scale-in", "quiet:...", cell=3, cells_active=3)
    ctrl.record(2.0, "park", "drained", cell=3, cells_active=3)
    assert ctrl.last_action_s == 1.0


def test_cost_model_is_linear_in_device_seconds():
    assert CostModel(3.6).dollars(3600.0) == pytest.approx(3.6)
    assert CostModel(3.6).dollars(0.0) == 0.0


def test_autoscale_config_validation():
    with pytest.raises(ValueError):
        AutoscaleConfig(interval_s=0.0)
    with pytest.raises(ValueError):
        AutoscaleConfig(min_cells=0)
    with pytest.raises(ValueError):
        AutoscaleConfig(min_cells=3, max_cells=2)
    with pytest.raises(ValueError):
        AutoscaleConfig(queue_low=5.0, queue_high=1.0)
    with pytest.raises(ValueError):
        AutoscaleConfig(price_per_device_hour=0.0)


def test_autoscale_config_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_AUTOSCALE_INTERVAL", "0.5")
    monkeypatch.setenv("REPRO_AUTOSCALE_MIN_CELLS", "2")
    monkeypatch.setenv("REPRO_AUTOSCALE_MAX_CELLS", "0")
    monkeypatch.setenv("REPRO_AUTOSCALE_PRICE", "7.25")
    config = AutoscaleConfig.from_env(cooldown_s=9.0)
    assert config.interval_s == 0.5
    assert config.min_cells == 2
    assert config.max_cells is None
    assert config.price_per_device_hour == 7.25
    assert config.cooldown_s == 9.0


def test_autoscaling_enabled_kill_switch(monkeypatch):
    monkeypatch.delenv("REPRO_AUTOSCALE", raising=False)
    assert not knobs.switch("REPRO_AUTOSCALE")
    assert knobs.switch("REPRO_AUTOSCALE", True)
    monkeypatch.setenv("REPRO_AUTOSCALE", "1")
    assert knobs.switch("REPRO_AUTOSCALE")
    monkeypatch.setenv("REPRO_AUTOSCALE", "0")
    assert not knobs.switch("REPRO_AUTOSCALE", True)


# ---------------------------------------------------------------------------
# End-to-end autoscaling through the simulator
# ---------------------------------------------------------------------------
def test_end_to_end_scale_out_on_queue_depth():
    # 40 same-instant requests against 1 active device (2 cells of 1,
    # min_cells=1): the first 0.1s boundary sees a deep queue and no
    # completions yet, so the scale-out must cite queue depth.
    costs = toy_costs(latency_s=0.1, compile_s=0.0)
    trace = TraceReplay([(0.0, "m")] * 40)
    sim = ScaledFleetSimulator(
        costs, devices=2, cells=2,
        autoscale=AutoscaleConfig(interval_s=0.1, queue_high=4.0))
    sim.run(trace)
    events = sim.payload["autoscale_events"]
    assert events and events[0]["action"] == "scale-out"
    assert events[0]["reason"].startswith("queue:")
    assert events[0]["t_s"] == pytest.approx(0.1)


def test_end_to_end_scale_out_on_burn_then_drain_and_park():
    # An impossible SLO makes every completion bad: the burn rule fires
    # as soon as the first batch lands, the fleet scales out, and once
    # the bad events slide out of the (shortened) burn windows the
    # extra cell drains, parks, and stops costing.
    from repro.telemetry.slo import BurnRateRule
    costs = toy_costs(latency_s=0.05, compile_s=0.0)
    trace = TraceReplay([(i * 0.01, "m") for i in range(60)])
    trace.duration_s = 3.0
    rule = BurnRateRule("fast", "page", 14.4, long_window_s=0.5,
                        short_window_s=0.2)
    sim = ScaledFleetSimulator(
        costs, devices=2, cells=2, slo_multiplier=0.001,
        autoscale=AutoscaleConfig(interval_s=0.1, cooldown_s=0.5,
                                  queue_high=1000.0, rules=(rule,)))
    sim.run(trace)
    actions = [e["action"] for e in sim.payload["autoscale_events"]]
    reasons = [e["reason"] for e in sim.payload["autoscale_events"]]
    assert "scale-out" in actions
    assert any(r.startswith("burn:") for r in reasons)
    assert "scale-in" in actions
    assert "park" in actions
    cost = sim.payload["cost"]
    assert cost["device_seconds"] < cost["static_device_seconds"]


def test_cost_accounting_hand_math():
    # 4 requests at t=0, 2 cells of 1 device, min_cells=1, decision
    # interval longer than the run: no boundaries ever close, cell 1
    # never activates, so exactly one device is billed for the makespan.
    costs = toy_costs(latency_s=0.1, compile_s=0.0)
    trace = TraceReplay([(0.0, "m")] * 4)
    sim = ScaledFleetSimulator(
        costs, devices=2, cells=2,
        autoscale=AutoscaleConfig(interval_s=5.0,
                                  price_per_device_hour=3.6))
    report = sim.run(trace)
    payload = sim.payload
    # Hand math: batch of 4 launches at the 2ms dynamic deadline;
    # service = 0.05 + 0.05*4 = 0.25s -> makespan 0.252s.
    assert report.makespan_s == pytest.approx(0.252)
    cost = payload["cost"]
    assert cost["device_seconds"] == pytest.approx(report.makespan_s)
    assert cost["static_device_seconds"] == pytest.approx(
        2 * report.makespan_s)
    assert cost["dollars"] == pytest.approx(report.makespan_s / 1000.0)
    assert cost["savings_fraction"] == pytest.approx(0.5)
    assert payload["autoscale_events"] == []
    assert validate_fleet_scale_report(payload) == []


def test_autoscaled_run_is_deterministic():
    def run():
        sim = ScaledFleetSimulator(
            COSTS, devices=8, cells=4,
            autoscale=AutoscaleConfig(interval_s=0.1, queue_high=2.0,
                                      cooldown_s=0.3))
        sim.run(DiurnalTrace(MODELS, 2000.0, 2.0, trough_fraction=0.1))
        return json.dumps(sim.payload, sort_keys=True)
    assert run() == run()


# ---------------------------------------------------------------------------
# Report payload, validator, helpers
# ---------------------------------------------------------------------------
def test_payload_validates_and_renders():
    sim = ScaledFleetSimulator(COSTS, devices=4, cells=2,
                               routing="round_robin")
    sim.run(OpenLoopPoisson(MODELS, 200.0, 1.0), rate_rps=200.0)
    assert validate_fleet_scale_report(sim.payload) == []
    table = scale_table(sim.payload)
    assert "4 devices" in table
    assert "autoscale off" in table


def test_validator_flags_malformed_payloads():
    sim = ScaledFleetSimulator(COSTS, devices=4, cells=2)
    sim.run(OpenLoopPoisson(MODELS, 100.0, 1.0), rate_rps=100.0)
    payload = json.loads(json.dumps(sim.payload))
    payload["schema"] = "wrong"
    payload["cell_size"] = 3
    payload["autoscale_events"] = [
        {"action": "explode", "t_s": 1.0, "cells_active": 99}]
    del payload["cost"]
    problems = validate_fleet_scale_report(payload)
    assert any("schema" in p for p in problems)
    assert any("cell_size" in p for p in problems)
    assert any("explode" in p for p in problems)
    assert any("cost" in p for p in problems)


def test_tail_bounded_throughput_falls_back_to_goodput():
    sim = ScaledFleetSimulator(COSTS, devices=4)
    report = sim.run(OpenLoopPoisson(MODELS, 200.0, 1.0), rate_rps=200.0)
    bound_ms = min(report.slo_ms.values())
    expected = (report.throughput_rps if report.p99_ms <= bound_ms
                else report.goodput_rps)
    assert tail_bounded_throughput(report) == expected
    # Saturate far past the knee: p99 blows through the SLO and the
    # credit must drop to goodput.
    slow = ScaledFleetSimulator(COSTS, devices=1,
                                batch_policy=BatchPolicy("single"))
    overload = slow.run(OpenLoopPoisson(MODELS, 3000.0, 1.0),
                        rate_rps=3000.0)
    assert overload.p99_ms > min(overload.slo_ms.values())
    assert tail_bounded_throughput(overload) == overload.goodput_rps


# ---------------------------------------------------------------------------
# Serial vs --jobs byte identity
# ---------------------------------------------------------------------------
def test_scale_points_serial_vs_jobs_byte_identical():
    points = [
        ScalePoint(costs=COSTS, models=MODELS, devices=8, cells=4,
                   peak_rps=1500.0, duration_s=1.0, autoscale=bool(i % 2),
                   stream=i)
        for i in range(4)
    ]
    serial = parallel_map(run_scale_point, points, jobs=1)
    forked = parallel_map(run_scale_point, points, jobs=2)
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(forked, sort_keys=True)
