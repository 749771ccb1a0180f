"""Serving layer: workloads, batching, routing, fleet sim, metrics."""

import json

import pytest

from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    ClosedLoop,
    DiurnalTrace,
    FleetSimulator,
    OpenLoopPoisson,
    ServiceCosts,
    TraceReplay,
    default_grid,
    percentile,
    zoo_mix_trace,
)
from repro.serving.scheduler import ModelCost


def toy_costs(latency_s=0.010, compile_s=0.005, amortized=0.5,
              models=("m",)):
    """Hand-set costs so expected times are computable by hand."""
    return ServiceCosts(
        costs={m: ModelCost(latency_s, compile_s) for m in models},
        amortized_fraction=amortized)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def test_poisson_workload_is_deterministic():
    a = OpenLoopPoisson(["bert"], 200.0, 2.0).initial()
    b = OpenLoopPoisson(["bert"], 200.0, 2.0).initial()
    assert a == b
    assert all(r.arrival_s < 2.0 for r in a)
    assert [r.rid for r in a] == list(range(len(a)))
    # Offered count is in the right ballpark for the rate.
    assert 200 * 2 * 0.5 < len(a) < 200 * 2 * 1.5


def test_poisson_workload_follows_repro_seed(monkeypatch):
    baseline = OpenLoopPoisson(["bert"], 100.0, 1.0).initial()
    monkeypatch.setenv("REPRO_SEED", "777")
    reseeded = OpenLoopPoisson(["bert"], 100.0, 1.0).initial()
    assert baseline != reseeded
    monkeypatch.setenv("REPRO_SEED", "777")
    assert OpenLoopPoisson(["bert"], 100.0, 1.0).initial() == reseeded


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        OpenLoopPoisson(["bert"], 0.0, 1.0)


#: OpenLoopPoisson names its rate ``rate_rps``, DiurnalTrace ``peak_rps``.
RATE = r"(rate|peak)_rps"
BAD_STREAMS = [
    # (models, rate, duration, the parameter the error names)
    ((), 100.0, 1.0, "models"),
    (("bert",), 0.0, 1.0, RATE),
    (("bert",), -5.0, 1.0, RATE),
    (("bert",), float("nan"), 1.0, RATE),
    (("bert",), float("inf"), 1.0, RATE),
    (("bert",), 100.0, float("inf"), "duration_s"),
    (("bert",), 100.0, float("nan"), "duration_s"),
    (("bert",), 100.0, -1.0, "duration_s"),
]


@pytest.mark.parametrize("source", [OpenLoopPoisson, DiurnalTrace])
@pytest.mark.parametrize("models,rate,duration,names", BAD_STREAMS)
def test_generated_streams_reject_bad_parameters(source, models, rate,
                                                 duration, names):
    with pytest.raises(ValueError, match=names):
        source(models, rate, duration)


@pytest.mark.parametrize("source", [OpenLoopPoisson, DiurnalTrace])
def test_zero_duration_is_an_empty_stream(source):
    workload = source(("bert",), 100.0, 0.0)
    assert workload.initial() == []
    assert workload.arrivals() == ([], [], None)


def test_trace_replay_orders_and_numbers_requests():
    replay = TraceReplay([(0.5, "b"), (0.1, "a"), (0.3, "b")])
    requests = replay.initial()
    assert [r.model for r in requests] == ["a", "b", "b"]
    assert [r.rid for r in requests] == [0, 1, 2]
    assert replay.duration_s == 0.5


def test_zoo_mix_trace_covers_models():
    from repro.models import MODEL_ORDER
    replay = zoo_mix_trace(MODEL_ORDER, rate_rps=700.0, duration_s=1.0)
    served = {r.model for r in replay.initial()}
    assert served == set(MODEL_ORDER)


def test_closed_loop_one_outstanding_request_per_client():
    workload = ClosedLoop(["m"], clients=3, duration_s=1.0, think_s=0.01)
    first = workload.initial()
    assert len(first) == 3
    follow = workload.on_complete(first[0], 0.5)
    assert follow.client == first[0].client
    assert follow.arrival_s == pytest.approx(0.51)
    assert workload.on_complete(first[1], 0.995) is None  # past horizon


# ---------------------------------------------------------------------------
# Batching decisions
# ---------------------------------------------------------------------------
def _launches(arrivals, policy, models=None):
    """``(start_s, batch, model)`` of each launch on one device (trace).

    ``arrivals`` are the request arrival times; the toy model takes
    10 ms alone, so a request arriving while a batch runs waits.
    """
    models = models or ["m"] * len(arrivals)
    sim = FleetSimulator(toy_costs(models=tuple(dict.fromkeys(models))),
                         devices=1, batch_policy=policy, collect_trace=True)
    sim.run(TraceReplay(list(zip(arrivals, models))))
    return [(e["start_s"], e["batch"], e["model"]) for e in sim.trace_log
            if e["kind"] == "batch"]


def test_single_policy_launches_one():
    launches = _launches([0.0, 0.0, 0.0], BatchPolicy("single", max_batch=8))
    assert [batch for _, batch, _ in launches] == [1, 1, 1]
    assert launches[0][0] == 0.0


def test_greedy_policy_takes_what_is_queued():
    # The first arrival launches alone at once; the two queued behind
    # it go together when the device frees (10 ms + 5 ms compile).
    launches = _launches([0.0, 0.001, 0.002],
                         BatchPolicy("greedy", max_batch=8))
    assert [batch for _, batch, _ in launches] == [1, 2]
    assert launches[0][0] == 0.0
    assert launches[1][0] == pytest.approx(0.015)


def test_dynamic_policy_waits_then_launches_at_deadline():
    policy = BatchPolicy("dynamic", max_batch=4, max_wait_ms=2.0)
    assert _launches([0.0, 0.0], policy) == [(0.002, 2, "m")]


def test_dynamic_policy_launches_full_batch_immediately():
    policy = BatchPolicy("dynamic", max_batch=2, max_wait_ms=50.0)
    launches = _launches([0.0, 0.0, 0.0], policy)
    assert launches[0] == (0.0, 2, "m")
    assert [batch for _, batch, _ in launches] == [2, 1]


def test_batches_never_mix_models():
    policy = BatchPolicy("greedy", max_batch=8)
    launches = _launches([0.0, 0.001, 0.001, 0.001, 0.001], policy,
                         models=["a", "a", "a", "b", "a"])
    # Behind the first launch the queue is a, a, b, a: the batch is the
    # same-model prefix, so "b" waits and the last "a" never jumps it.
    assert [(batch, model) for _, batch, model in launches] == [
        (1, "a"), (2, "a"), (1, "b"), (1, "a")]


def test_batch_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy("adaptive")
    with pytest.raises(ValueError):
        BatchPolicy("dynamic", max_batch=0)


# ---------------------------------------------------------------------------
# Service model
# ---------------------------------------------------------------------------
def test_batch_service_amortizes_fixed_cost():
    costs = toy_costs(latency_s=0.010, amortized=0.5)
    assert costs.batch_service_s("m", 1) == pytest.approx(0.010)
    assert costs.batch_service_s("m", 4) == pytest.approx(0.025)
    per_request = [costs.batch_service_s("m", b) / b for b in (1, 2, 4, 8)]
    assert per_request == sorted(per_request, reverse=True)
    assert costs.capacity_rps("m", 8) > costs.capacity_rps("m", 1)


def test_service_costs_resolve_uses_cached_evaluator():
    costs = ServiceCosts.resolve(["tinynet"])
    assert costs.latency_s("tinynet") > 0
    assert costs.compile_s("tinynet") > 0
    assert costs.models() == ("tinynet",)


# ---------------------------------------------------------------------------
# Fleet simulation
# ---------------------------------------------------------------------------
def test_single_device_serial_latencies_by_hand():
    # Two requests at t=0 and t=0.001, 10 ms service, no batching: the
    # second waits for the first. First launch also pays the compile.
    costs = toy_costs(latency_s=0.010, compile_s=0.002)
    workload = TraceReplay([(0.0, "m"), (0.001, "m")])
    report = FleetSimulator(costs, devices=1,
                            batch_policy=BatchPolicy("single")).run(workload)
    assert report.completed == 2
    assert report.compiles == 1
    # req0: 0 -> 0.012 (compile + service); req1: starts 0.012 -> 0.022.
    assert report.makespan_s == pytest.approx(0.022)
    assert report.p99_ms == pytest.approx(21.0)  # 0.022 - 0.001


def test_round_robin_spreads_across_devices():
    costs = toy_costs(latency_s=0.010, compile_s=0.0)
    workload = TraceReplay([(0.0, "m"), (0.0, "m")])
    report = FleetSimulator(costs, devices=2, routing="round_robin",
                            batch_policy=BatchPolicy("single")).run(workload)
    assert report.makespan_s == pytest.approx(0.010)
    assert report.per_device_utilization == pytest.approx([1.0, 1.0])


def test_model_affinity_minimizes_compiles():
    costs = toy_costs(models=("a", "b"), compile_s=0.001)
    # Pattern a,a,b,b,... so round-robin (parity) routing puts both
    # models on both devices.
    trace = [(0.001 * i, "a" if (i // 2) % 2 == 0 else "b")
             for i in range(40)]
    affinity = FleetSimulator(
        costs, devices=2, routing="model_affinity",
        batch_policy=BatchPolicy("greedy", max_batch=4)).run(
            TraceReplay(trace))
    round_robin = FleetSimulator(
        costs, devices=2, routing="round_robin",
        batch_policy=BatchPolicy("greedy", max_batch=4)).run(
            TraceReplay(trace))
    # Affinity compiles each model once fleet-wide; round-robin sends
    # both models to both devices and compiles (up to) once per device.
    assert affinity.compiles == 2
    assert round_robin.compiles == 4


def test_least_loaded_routes_to_first_clear_device():
    costs = toy_costs(latency_s=0.010, compile_s=0.0)
    # Burst of 3, then a straggler: the straggler must land on the
    # device whose backlog clears first, not the next in rotation.
    trace = [(0.0, "m")] * 3 + [(0.0201, "m")]
    least = FleetSimulator(costs, devices=2, routing="least_loaded",
                           batch_policy=BatchPolicy("single")).run(
                               TraceReplay(trace))
    assert least.completed == 4
    assert least.makespan_s == pytest.approx(0.0301)


def test_admission_control_sheds_load():
    costs = toy_costs(latency_s=0.010, compile_s=0.0)
    trace = [(0.0, "m")] * 10
    report = FleetSimulator(costs, devices=1,
                            batch_policy=BatchPolicy("single"),
                            admission=AdmissionPolicy(max_queue=3)).run(
                                TraceReplay(trace))
    assert report.rejected == 6          # 1 in service + 3 queued admitted
    assert report.completed == 4
    assert report.slo_attainment < 1.0   # rejections count as violations


def test_dynamic_batching_raises_throughput_under_overload():
    costs = toy_costs(latency_s=0.010, amortized=0.5, compile_s=0.0)
    arrivals = [(i * 0.0005, "m") for i in range(200)]  # 2000 req/s >> cap
    single = FleetSimulator(costs, devices=1,
                            batch_policy=BatchPolicy("single")).run(
                                TraceReplay(arrivals))
    dynamic = FleetSimulator(costs, devices=1,
                             batch_policy=BatchPolicy("dynamic", max_batch=8,
                                                      max_wait_ms=2.0)).run(
                                 TraceReplay(arrivals))
    assert dynamic.mean_batch_size > 2.0
    assert dynamic.makespan_s < single.makespan_s
    assert dynamic.throughput_rps > 1.2 * single.throughput_rps


def test_closed_loop_self_limits():
    costs = toy_costs(latency_s=0.010, compile_s=0.0)
    workload = ClosedLoop(["m"], clients=2, duration_s=0.5, think_s=0.0)
    report = FleetSimulator(costs, devices=1,
                            batch_policy=BatchPolicy("single")).run(workload)
    # Two clients, one outstanding each, 10 ms serial service: one
    # completion per 10 ms (~50 over 0.5 s) regardless of eagerness.
    assert report.completed == pytest.approx(50, abs=3)
    assert report.max_queue_depth <= 2


def test_report_json_round_trips_and_table_renders():
    costs = toy_costs()
    report = FleetSimulator(costs, devices=1).run(TraceReplay([(0.0, "m")]))
    payload = json.loads(report.to_json())
    assert payload["completed"] == 1
    assert payload["devices"] == 1
    table = report.table()
    for needle in ("p50 latency", "p99 latency", "SLO attainment",
                   "throughput"):
        assert needle in table


def test_percentile_nearest_rank():
    values = sorted(float(v) for v in range(1, 101))
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([5.0], 99) == 5.0
    assert percentile([], 99) == 0.0


def test_invalid_fleet_configs_rejected():
    costs = toy_costs()
    with pytest.raises(ValueError):
        FleetSimulator(costs, devices=0)
    with pytest.raises(ValueError):
        FleetSimulator(costs, routing="random")


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------
def test_grid_covers_the_full_cross_product():
    costs = toy_costs()
    cells = default_grid(model="m", policies=("single", "dynamic"),
                         fleets=(1, 4), rates=(10.0, 20.0), costs=costs)
    combos = {(c.sim["batch_policy"].kind, c.sim["devices"], c.rate_rps)
              for c in cells}
    assert len(cells) == len(combos) == 8


# ---------------------------------------------------------------------------
# Verification admission control
# ---------------------------------------------------------------------------
def test_unverified_model_is_shed_at_admission():
    costs = ServiceCosts(
        costs={"m": ModelCost(0.010, 0.005, verified=False)},
        amortized_fraction=0.5)
    workload = ClosedLoop(["m"], clients=2, duration_s=0.5, think_s=0.01)
    report = FleetSimulator(costs).run(workload)
    assert report.completed == 0
    assert report.verify_rejected == report.rejected == report.offered > 0
    assert report.slo_attainment == 0.0
    assert "verify-rejected" in report.table()


def test_require_verified_false_restores_service():
    costs = ServiceCosts(
        costs={"m": ModelCost(0.010, 0.005, verified=False)},
        amortized_fraction=0.5)
    workload = ClosedLoop(["m"], clients=2, duration_s=0.5, think_s=0.01)
    report = FleetSimulator(costs, require_verified=False).run(workload)
    assert report.completed > 0
    assert report.verify_rejected == 0


def test_verified_models_pass_admission_untouched():
    report = FleetSimulator(toy_costs()).run(
        ClosedLoop(["m"], clients=1, duration_s=0.2, think_s=0.01))
    assert report.verify_rejected == 0
    assert report.completed > 0


def test_resolved_costs_carry_verification_bit():
    costs = ServiceCosts.resolve(["tinynet"])
    assert costs.is_verified("tinynet")
    assert not costs.is_verified("never-compiled")
