"""The fleet core at scale: every feature together, cells, autoscaling, traces."""

import hashlib
import heapq
import json
import math
import tracemalloc
import zlib
from array import array

import pytest

from repro.faults import (
    BurstSpec,
    CorruptSpec,
    CrashSpec,
    FaultPlan,
    FlakyCompileSpec,
    TileFaultSpec,
)
from repro.runtime import knobs, parallel_map, seeded_rng
from repro.serving import (
    Arrivals,
    AutoscaleConfig,
    AutoscaleController,
    BatchPolicy,
    ClosedLoop,
    CostModel,
    DiurnalTrace,
    FleetSimulator,
    MonitorConfig,
    MonitorPoint,
    OpenLoopPoisson,
    ResiliencePolicy,
    ScaledFleetSimulator,
    ServiceCosts,
    TraceReplay,
    load_trace,
    run_monitor_point,
    save_trace,
    scale_table,
    tail_bounded_throughput,
    validate_fleet_scale_report,
    validate_monitor_report,
)
from repro.serving import scale
from repro.serving.scheduler import ModelCost
from repro.serving.workload import DIURNAL_BLOCK, POISSON_BLOCK, Request
from repro.telemetry import scoped_telemetry


def toy_costs(latency_s=0.010, compile_s=0.005, amortized=0.5,
              models=("m",)):
    """Hand-set costs so expected times are computable by hand."""
    return ServiceCosts(
        costs={m: ModelCost(latency_s, compile_s) for m in models},
        amortized_fraction=amortized)


MODELS = ("a", "b")
COSTS = toy_costs(models=MODELS)


# ---------------------------------------------------------------------------
# One core: faults, resilience, monitor, trace, cells and autoscale together
# ---------------------------------------------------------------------------
def _chaos_plan():
    return FaultPlan(name="cells-chaos",
                     crash=CrashSpec(p_per_device_s=0.2, outage_s=0.5),
                     tile_fault=TileFaultSpec(p_per_batch=0.05, tiles=2),
                     corrupt=CorruptSpec(p_per_download=0.2,
                                         detection_rate=0.5),
                     flaky_compile=FlakyCompileSpec(p=0.2))


def test_fleet_simulator_is_the_scaled_core():
    from repro.serving import fleet, scale
    assert fleet.FleetSimulator is scale.ScaledFleetSimulator
    assert FleetSimulator is ScaledFleetSimulator


def test_every_feature_combines_on_one_run():
    sim = ScaledFleetSimulator(
        COSTS, devices=8, cells=4, routing="least_loaded",
        fault_plan=_chaos_plan(), resilience=ResiliencePolicy(),
        monitor_config=MonitorConfig(interval_s=0.1), collect_trace=True,
        autoscale=AutoscaleConfig(interval_s=0.1, queue_high=2.0,
                                  cooldown_s=0.3))
    report = sim.run(DiurnalTrace(MODELS, 1500.0, 2.0), rate_rps=1500.0)
    assert report.offered == (report.completed + report.rejected
                              + report.failed)
    assert report.faults.get("device_crash", 0) > 0
    assert validate_fleet_scale_report(sim.payload) == []
    assert validate_monitor_report(sim.monitor_payload) == []
    assert sim.payload["serving"] == report.as_dict()
    assert any(e["kind"] == "crash" for e in sim.trace_log)


def test_event_kind_counters_sum_to_the_run_events():
    sim = ScaledFleetSimulator(
        COSTS, devices=8, cells=4, fault_plan=_chaos_plan(),
        batch_policy=BatchPolicy("dynamic", max_batch=4, max_wait_ms=2.0),
        resilience=ResiliencePolicy(eject_threshold=1))
    with scoped_telemetry() as tel:
        sim.run(DiurnalTrace(MODELS, 1500.0, 2.0), rate_rps=1500.0)
    events = {name[len("serving.events."):]: count
              for name, count in tel.snapshot()["counters"].items()
              if name.startswith("serving.events.")}
    assert sorted(events) == sorted(("arrival", "retry", "timer", "free",
                                     "crash", "recover", "timeout",
                                     "readmit"))
    assert all(count > 0 for count in events.values()), events
    assert sum(events.values()) == sim.payload["sim"]["events"]
    assert "serving.events" not in json.dumps(sim.payload)


@pytest.mark.parametrize("routing",
                         ["round_robin", "least_loaded", "model_affinity"])
def test_faulted_monitored_cells_conserve_requests(routing):
    points = [MonitorPoint(costs=COSTS, models=MODELS, devices=8, cells=4,
                           rate_rps=800.0, duration_s=2.0, routing=routing,
                           resilience_kind=kind, fault_plan=_chaos_plan(),
                           stream=i)
              for i, kind in enumerate(("naive", "resilient"))]
    serial = parallel_map(run_monitor_point, points, jobs=1)
    forked = parallel_map(run_monitor_point, points, jobs=2)
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(forked, sort_keys=True)
    for out in serial:
        report = out["serving"]
        assert report["offered"] == (report["completed"]
                                     + report["rejected"]
                                     + report["failed"])
        assert report["faults"].get("device_crash", 0) > 0
        assert validate_monitor_report(out["monitor"]) == []
    assert serial[1]["serving"]["retries"] > 0


@pytest.mark.parametrize("routing",
                         ["round_robin", "least_loaded", "model_affinity"])
def test_ejected_cell_is_skipped_not_shed(routing):
    # Both devices of the cell that model "a" hashes to die for good at
    # t=0.1.  Requests routed there time out, eject their device
    # (threshold 1, cooldown longer than the run) and retry; once the
    # whole cell is ejected, every arrival goes to the other cell
    # instead of being shed.
    dead = [2 * (zlib.crc32(b"a") % 2) + d for d in (0, 1)]
    plan = FaultPlan(name="one-cell-dies",
                     crash=CrashSpec(at=tuple((d, 0.1) for d in dead)))
    sim = ScaledFleetSimulator(
        COSTS, devices=4, cells=2, routing=routing,
        batch_policy=BatchPolicy("single"), collect_trace=True,
        fault_plan=plan,
        resilience=ResiliencePolicy(eject_threshold=1, cooldown_s=100.0,
                                    retry_budget_fraction=1.0))
    trace = TraceReplay([(i * 0.04, m) for i in range(50)
                         for m in MODELS])
    report = sim.run(trace)
    ejects = [e for e in sim.trace_log if e["kind"] == "eject"]
    assert {e["device"] for e in ejects} == set(dead)
    assert report.devices_ejected == len(ejects)
    assert not any(e["kind"] == "shed" for e in sim.trace_log)
    assert report.rejected == 0
    assert report.completed == report.offered
    last_eject = max(e["t_s"] for e in ejects)
    late = [e for e in sim.trace_log
            if e["kind"] == "batch" and e["t_s"] > last_eject]
    assert late and all(e["device"] not in dead for e in late)


def test_all_cells_ejected_sheds():
    plan = FaultPlan(name="all-die",
                     crash=CrashSpec(at=tuple((d, 0.1) for d in range(4))))
    sim = ScaledFleetSimulator(
        COSTS, devices=4, cells=2, routing="round_robin",
        collect_trace=True, fault_plan=plan,
        resilience=ResiliencePolicy(eject_threshold=1, cooldown_s=100.0))
    report = sim.run(TraceReplay([(i * 0.05, "a") for i in range(100)]))
    assert report.devices_ejected == 4
    assert any(e["kind"] == "shed" for e in sim.trace_log)
    assert report.offered == (report.completed + report.rejected
                              + report.failed)


class _CountedClosedLoop(ClosedLoop):
    """A closed loop that fails, instead of spinning, past ``cap``
    follow-ups."""

    def __init__(self, *args, cap, **kwargs):
        super().__init__(*args, **kwargs)
        self.cap = cap
        self.calls = 0

    def on_complete(self, request, finish_s):
        self.calls += 1
        assert self.calls <= self.cap, f"no progress at t={finish_s}"
        return super().on_complete(request, finish_s)


@pytest.mark.parametrize("clients, crash", [
    # Every device crashes at once.
    (8, CrashSpec(outage_s=0.5, at=tuple((d, 0.3) for d in range(4)))),
    # Timeouts around one scheduled crash and a hazard eject them all.
    (64, CrashSpec(p_per_device_s=0.05, outage_s=0.5, at=((0, 0.5),))),
], ids=["all-crash", "hazard"])
def test_a_closed_loop_without_think_time_outlasts_a_full_eject(clients,
                                                                crash):
    # With think_s=0, a client shed while the breaker has ejected every
    # device issues its next request at the same instant; it waits for
    # the next re-admission instead of being shed again without end.
    costs = toy_costs(latency_s=0.004, compile_s=0.0, models=MODELS)
    plan = FaultPlan(name="mem", crash=crash,
                     tile_fault=TileFaultSpec(p_per_batch=0.02),
                     corrupt=CorruptSpec(p_per_download=0.05),
                     flaky_compile=FlakyCompileSpec(p=0.05))
    workload = _CountedClosedLoop(MODELS, clients, 1.0, cap=20_000)
    sim = FleetSimulator(costs, devices=4, routing="round_robin",
                         collect_trace=True, fault_plan=plan,
                         resilience=ResiliencePolicy(),
                         monitor_config=MonitorConfig())
    report = sim.run(workload)
    assert any(e["kind"] == "shed" for e in sim.trace_log)
    assert report.devices_ejected >= 4
    assert report.offered == (report.completed + report.rejected
                              + report.failed)
    assert sim.monitor_payload["slo"]["total"] == report.offered

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

    class ExtraName(TraceReplay):
        def arrivals(self):
            times, picks, names, _ = super().arrivals()
            return Arrivals(times, picks, names + ("mystery",))

    # A name no row picks needs no cost.
    report = ScaledFleetSimulator(COSTS, devices=2).run(
        ExtraName([(0.1, "a"), (0.2, "b")]))
    assert report.completed == 2


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


def _reference_day(models, peak_rps, duration_s, trough_fraction=0.25,
                   burst_every_s=0.0, burst_len_s=0.0, stream=0):
    """DiurnalTrace's arrivals one candidate at a time, in plain Python.

    Draws the same blocks from the same seeded stream, then walks them
    with ``t +=`` and ``math.cos``.
    """
    models = tuple(models)
    period_s = float(duration_s)
    rng = seeded_rng("diurnal", models, float(peak_rps), float(duration_s),
                     float(trough_fraction), period_s, float(burst_every_s),
                     float(burst_len_s), stream)
    out = []
    t = 0.0
    while t < duration_s:
        gaps = rng.exponential(1.0 / peak_rps, DIURNAL_BLOCK).tolist()
        draws = rng.random(DIURNAL_BLOCK).tolist()
        picks = rng.integers(len(models), size=DIURNAL_BLOCK).tolist()
        for gap, u, pick in zip(gaps, draws, picks):
            t += gap
            if burst_every_s > 0.0 and t % burst_every_s < burst_len_s:
                accept = 1.0
            else:
                accept = trough_fraction + (1.0 - trough_fraction) * 0.5 * (
                    1.0 - math.cos(2.0 * math.pi * t / period_s))
            if u < accept and t < duration_s:
                out.append((t, models[pick]))
    return out


@pytest.mark.parametrize("kwargs", [
    # Several blocks (~160k candidates) with bursts: the running sum
    # carries across block edges.
    dict(peak_rps=40_000.0, duration_s=4.0, trough_fraction=0.1,
         burst_every_s=1.0, burst_len_s=0.1),
    # One block passes the whole day.
    dict(peak_rps=1000.0, duration_s=3.0),
], ids=["multi_block_bursts", "one_block"])
def test_diurnal_blocks_match_the_scalar_reference(kwargs):
    trace = DiurnalTrace(MODELS, **kwargs)
    expected = _reference_day(MODELS, **kwargs)
    times, picks, names, _ = trace.arrivals()
    assert list(zip(times, [names[p] for p in picks])) == expected
    assert [(r.arrival_s, r.model) for r in trace.initial()] == expected
    assert [r.rid for r in trace.initial()] == list(range(len(expected)))


def _reference_poisson(models, rate_rps, duration_s, stream=0):
    """OpenLoopPoisson's arrivals one at a time, in plain Python.

    Draws the same blocks (gaps, then picks) from the same seeded
    stream, then walks them with ``t +=``.
    """
    models = tuple(models)
    rng = seeded_rng("poisson", models, float(rate_rps), float(duration_s),
                     stream)
    out = []
    t = 0.0
    while t < duration_s:
        gaps = rng.exponential(1.0 / rate_rps, POISSON_BLOCK).tolist()
        picks = rng.integers(len(models), size=POISSON_BLOCK).tolist()
        for gap, pick in zip(gaps, picks):
            t += gap
            if t < duration_s:
                out.append((t, models[pick]))
    return out


@pytest.mark.parametrize("rate_rps, duration_s", [
    # Several blocks: the running sum carries across block edges.
    (2000.0, 5.0),
    (900.0, 3.0),
    # Shorter than one block.
    (300.0, 2.0),
    (50.0, 0.5),
])
def test_poisson_blocks_match_the_scalar_reference(rate_rps, duration_s):
    expected = _reference_poisson(MODELS, rate_rps, duration_s)
    times, picks, names, _ = OpenLoopPoisson(
        MODELS, rate_rps, duration_s).arrivals()
    assert list(zip(times, [names[p] for p in picks])) == expected
    assert {model for _, model in expected} == set(MODELS)


@pytest.mark.parametrize("rate_rps, duration_s", [
    (120.0, 20.0), (2000.0, 5.0), (80.0, 5.0), (50.0, 0.5)])
def test_a_single_model_poisson_stream_is_the_per_arrival_loop(
        rate_rps, duration_s):
    # One gap and one (bit-free) pick per arrival, as the stream was
    # drawn before blocks: the single-model goldens keep their streams.
    rng = seeded_rng("poisson", ("bert",), rate_rps, duration_s, 0)
    times = array("d")
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_rps))
        if t >= duration_s:
            break
        times.append(t)
        assert int(rng.integers(1)) == 0
    arrivals = OpenLoopPoisson(("bert",), rate_rps, duration_s).arrivals()
    assert arrivals.times.tobytes() == times.tobytes()
    assert arrivals.picks.tobytes() == bytes(len(times))


def test_a_diurnal_day_runs_without_building_requests(monkeypatch):
    built = []
    init = Request.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Request, "__init__", counting)
    trace = DiurnalTrace(MODELS, 3000.0, 2.0, burst_every_s=0.5,
                         burst_len_s=0.05)
    rows = len(trace.arrivals().times)

    def day(**faults):
        sim = ScaledFleetSimulator(
            COSTS, devices=16, cells=4,
            autoscale=AutoscaleConfig(interval_s=0.1, min_cells=1,
                                      cooldown_s=0.2),
            monitor_config=MonitorConfig(interval_s=0.25), **faults)
        return sim.run(trace, rate_rps=3000.0)

    assert day().offered == rows > 0
    # Queue bursts append slots, and crashes make requests time out and
    # retry: neither builds a Request on an untraced run.
    report = day(fault_plan=FaultPlan(
        name="bursts-and-crashes",
        crash=CrashSpec(p_per_device_s=0.2, outage_s=0.5),
        burst=BurstSpec(at=(0.5, 1.0), size=200)),
        resilience=ResiliencePolicy())
    assert report.offered == rows + 400
    assert report.faults["queue_burst"] == 2 and report.retries > 0
    assert built == []


def test_on_complete_gets_each_slot_as_the_workload_issued_it():
    # Follow-up and burst slots keep their rid and client in columns;
    # the Request handed back to the workload is rebuilt from them.
    handed = []

    class Recording(ClosedLoop):
        def on_complete(self, request, finish_s):
            handed.append((request, finish_s))
            return super().on_complete(request, finish_s)

    plan = FaultPlan(name="one-burst", burst=BurstSpec(at=(0.1,), size=4))
    report = ScaledFleetSimulator(COSTS, devices=2, fault_plan=plan).run(
        Recording(MODELS, 4, 0.5, think_s=0.01))
    assert len(handed) == report.completed > 8
    requests = [r for r, _ in handed]
    assert len({r.rid for r in requests}) == len(requests)
    assert sorted(r.rid for r in requests if r.rid < 0) == [-4, -3, -2, -1]
    # A burst's follow-ups stay client -1; a client keeps its model.
    assert all(r.client == -1 for r in requests if r.rid < 0)
    assert all(r.model == MODELS[r.client % 2]
               for r in requests if r.client >= 0)
    assert {r.client for r in requests} == {-1, 0, 1, 2, 3}
    assert all(r.arrival_s <= finish_s for r, finish_s in handed)


def test_a_diurnal_day_costs_bytes_not_objects_per_request():
    # Python-heap bytes per request of a pinned day, seen by tracemalloc:
    # what the trace keeps, and the run's peak on top of it.  Boxed
    # lists cost about 40 and 57; typed columns about 10 and 23.
    costs = toy_costs(latency_s=0.004, compile_s=0.0, models=MODELS)
    # Warm numpy's generator and the run's first-call allocations.
    ScaledFleetSimulator(costs, devices=4).run(
        DiurnalTrace(MODELS, 100.0, 0.5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = DiurnalTrace(MODELS, 1000.0, 6.0, trough_fraction=0.2)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = ScaledFleetSimulator(costs, devices=4).run(
            trace, rate_rps=1000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = report.offered
    assert n == report.completed > 3000
    assert (held - base) / n <= 16
    assert (peak - held) / n <= 32


@pytest.mark.parametrize("duration_s", [1.0, 2.0])
def test_a_closed_loop_keeps_columns_not_requests(duration_s):
    # Python-heap peak per request of a closed loop, where every
    # completion issues a follow-up slot: its arrival, model, status,
    # rid, client and latency columns come to about 40-50 bytes at
    # either duration.  Keeping a Request per follow-up costs about 230.
    costs = toy_costs(latency_s=0.004, compile_s=0.0, models=MODELS)
    # Warm the run's first-call allocations.
    ScaledFleetSimulator(costs, devices=4).run(ClosedLoop(MODELS, 64, 0.5))
    workload = ClosedLoop(MODELS, 64, duration_s)
    sim = ScaledFleetSimulator(costs, devices=4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = sim.run(workload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.offered == report.completed > 1000 * duration_s
    assert (peak - base) / report.offered <= 80


@pytest.mark.parametrize("duration_s", [2.0, 4.0])
def test_a_monitored_resilient_run_keeps_no_state_per_request(duration_s):
    # Python-heap peak per request of a monitored, resilient, faulted
    # run.  The monitor keeps open deadlines and per-interval busy
    # time and the core a typed device column: about 70-90 bytes at
    # either duration.  Per-request dict, set and list entries cost
    # about 300-370.
    costs = toy_costs(latency_s=0.004, compile_s=0.0, models=MODELS)
    plan = FaultPlan(
        name="mem", crash=CrashSpec(p_per_device_s=0.05, outage_s=0.5,
                                    at=((0, 0.5),)),
        tile_fault=TileFaultSpec(p_per_batch=0.02),
        corrupt=CorruptSpec(p_per_download=0.05),
        flaky_compile=FlakyCompileSpec(p=0.05))

    def simulator():
        return FleetSimulator(costs, devices=4, routing="round_robin",
                              fault_plan=plan, resilience=ResiliencePolicy(),
                              monitor_config=MonitorConfig())

    # Warm the run's first-call allocations.
    simulator().run(OpenLoopPoisson(MODELS, 100.0, 0.5))
    workload = OpenLoopPoisson(MODELS, 1000.0, duration_s)
    workload.arrivals()
    sim = simulator()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = sim.run(workload, rate_rps=1000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.faults["device_crash"] >= 1 and report.retries > 0
    assert report.offered > 900 * duration_s
    assert (peak - base) / report.offered <= 120
    # Every offered request settles exactly once.
    assert sim.monitor_payload["slo"]["total"] == report.offered


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


TRACE_HEAD = {"schema": "repro-request-trace-v1", "duration_s": 1.0}


@pytest.mark.parametrize("document,problems", [
    ([1, 2], ["$: expected object, got list"]),
    (TRACE_HEAD, ["$.requests: missing"]),
    ({**TRACE_HEAD, "requests": [[0.1, "a"], [0.1]]},
     ["$.requests[1]: length 1, expected 2"]),
    ({**TRACE_HEAD, "requests": [["0.1", "a"]]},
     ["$.requests[0][0]: expected number, got str"]),
    ({**TRACE_HEAD, "requests": [[True, "a"]]},
     ["$.requests[0][0]: expected number, got bool"]),
], ids=["not_an_object", "no_requests", "one_element_entry", "string_time",
        "bool_time"])
def test_load_trace_lists_every_problem(tmp_path, capsys, document,
                                        problems):
    from repro.cli import main
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError) as caught:
        load_trace(str(path))
    assert caught.value.problems == problems
    for problem in problems:
        assert problem in str(caught.value)
    assert main(["serve", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"repro serve: invalid trace {path}:\n  "
                   + "\n  ".join(problems) + "\n")


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


@pytest.mark.parametrize("bad, expect", [
    pytest.param([], "$: expected object, got list",
                 id="bad0-not a JSON object"),
    pytest.param({"alerts": [None]}, "$.alerts[0]: expected object, got null",
                 id="bad1-alert None is not an object"),
    pytest.param({"autoscale_events": [None]},
                 "$.autoscale_events[0]: expected object, got null",
                 id="bad2-autoscale event None is not an object"),
    pytest.param({"timeline": {"t_s": 3}},
                 "$.timeline.t_s: expected list, got int",
                 id="bad3-timeline.t_s is not a list"),
])
def test_validator_reports_wrong_json_types(bad, expect):
    problems = validate_fleet_scale_report(bad)
    assert any(expect in p for p in problems), problems


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
# Per-attempt timeouts, pinned by digests of the whole run
# ---------------------------------------------------------------------------
def _sha(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _every_timeout_fires():
    # The one device dies before the first arrival and never recovers,
    # and no breaker ejects it: every attempt times out on it.
    workload = TraceReplay([(0.01 * i, MODELS[i % 2]) for i in range(1, 40)])
    return workload, dict(
        devices=1, fault_plan=FaultPlan(name="dead", crash=CrashSpec(
            at=((0, 0.0),))),
        resilience=ResiliencePolicy(eject_threshold=0,
                                    retry_budget_fraction=1.0))


def _no_timeout_fires():
    # A light, fault-free load: every request completes long before
    # its deadline, so every armed timeout finds it done.  The last
    # deadlines fall past the last completion, in later monitor
    # intervals.
    workload = TraceReplay([(0.01 * i, MODELS[i % 3 % 2])
                            for i in range(52)])
    return workload, dict(devices=2, resilience=ResiliencePolicy())


def _retries_crashes_and_ejects():
    plan = FaultPlan(name="timeouts", crash=CrashSpec(
        p_per_device_s=0.3, outage_s=0.4, at=((1, 0.3),)),
        tile_fault=TileFaultSpec(p_per_batch=0.05, tiles=2),
        flaky_compile=FlakyCompileSpec(p=0.2))
    return DiurnalTrace(MODELS, 600.0, 2.0), dict(
        devices=4, cells=2, fault_plan=plan,
        batch_policy=BatchPolicy("dynamic", max_batch=4, max_wait_ms=2.0),
        resilience=ResiliencePolicy(eject_threshold=2, cooldown_s=0.2))


#: Each run's report, monitor payload and trace, as sha256 digests
#: frozen when every enqueue pushed its own timeout heap event.
TIMEOUT_RUNS = {
    "every_timeout_fires": (_every_timeout_fires, (
        "23f924b3639695377c92575a6947d9605ebe5eee5f1563eb573e38f79987f8c7",
        "a368ba1b04f54dbcca7073ae5289b7a82a7078b5867fb263e3d8d07baea97255",
        "da1038d6e1fac49f8675663556af9ab8ada5e02d11fb4b7a3463d33eaa079b4e")),
    "no_timeout_fires": (_no_timeout_fires, (
        "9bdfa670fcc9df5784250d934d36ac8c25c8c00bd28fdf1a1599b61a275dfa0e",
        "7291bf671ae9f471ecf2e4bb0cb752f5911f83ecc9e27132480c2c86604bb0ad",
        "201468fff230997c947138bf59b6ae7cd87cd2f42452f875080cbbf356a9c62a")),
    "retries_crashes_and_ejects": (_retries_crashes_and_ejects, (
        "fce3013a7a23385e8c2381f198020bda315663b05bff6a39dff5bf4c2563d79c",
        "b4767cc755e1a35995178a932dfaaea030d36109f9b468826a0f00ad623e616e",
        "163b8d395a31612d47e9fdcb29d5fc42b13a7a804a002c34bf173a57ce703d91")),
}


class _HeapWatch:
    """``heapq`` as the fleet core sees it, checking after each timeout
    push that the heap holds at most one timeout entry per model."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self, model_of):
        self.model_of = model_of
        self.timeouts = 0

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        if item[2] == scale._TIMEOUT:
            self.timeouts += 1
            models = [self.model_of[e[3]] for e in heap
                      if e[2] == scale._TIMEOUT]
            assert len(models) == len(set(models)), models


@pytest.mark.parametrize("name", sorted(TIMEOUT_RUNS))
def test_timeout_runs_match_their_frozen_digests(name, monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "12345")
    workload, kwargs = TIMEOUT_RUNS[name][0]()
    # No run appends slots, so a slot is its arrival row.
    watch = _HeapWatch(workload.arrivals().picks)
    monkeypatch.setattr(scale, "heapq", watch)
    sim = ScaledFleetSimulator(
        COSTS, collect_trace=True,
        monitor_config=MonitorConfig(interval_s=0.05), **kwargs)
    with scoped_telemetry() as tel:
        report = sim.run(workload)
    counters = tel.snapshot()["counters"]
    armed = counters["serving.events.timeout"]
    skipped = counters["serving.timeouts.skipped"]
    # An armed timeout reaches the heap, or is dropped from its FIFO.
    assert watch.timeouts == armed - skipped
    if name == "every_timeout_fires":
        assert report.timeouts == armed > 0 and skipped == 0
        assert report.failed == report.offered
    elif name == "no_timeout_fires":
        assert report.timeouts == 0 and armed == report.offered
        assert skipped > armed // 2
    else:
        assert 0 < report.timeouts < armed - skipped
        assert report.retries > 0 and report.devices_ejected > 0
        assert report.faults["device_crash"] > 0
    assert (_sha(report.as_dict()), _sha(sim.monitor_payload),
            _sha(sim.trace_log)) == TIMEOUT_RUNS[name][1]
