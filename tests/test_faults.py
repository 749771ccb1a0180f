"""Fault injection + resilient serving: plans, injector, fleet, chaos.

Four layers under test, each with hand-computable scenarios:

* :mod:`repro.faults.plan` — JSON round-trips, unknown-key rejection,
  ``scaled()`` ladders and the ``quiet`` fast path.
* :mod:`repro.faults.injector` — determinism under ``REPRO_SEED``,
  scheduled crashes/slowdowns, label-keyed per-event draws.
* :mod:`repro.serving.fleet` under a plan — permanent crashes,
  retry/eject/re-admit, tile-granularity re-execution, flaky compiles,
  corrupted downloads, retry budgets and queue bursts, with the naive
  policy as the contrast case for each mechanism.
* :mod:`repro.faults.chaos` — serial vs ``--jobs`` byte-identical
  reports and the ``repro-chaos-report-v1`` schema validator.
"""

import hashlib
import json
import zlib

import pytest

from repro.faults import (
    BurstSpec,
    CrashSpec,
    CorruptSpec,
    FaultInjector,
    FaultPlan,
    FlakyCompileSpec,
    SlowdownSpec,
    TileFaultSpec,
    chaos_grid,
    chaos_report,
    default_plan,
    validate_chaos_report,
)
from repro.runtime import knobs
from repro.schema import report_json
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    FleetSimulator,
    ModelCost,
    ResiliencePolicy,
    ServiceCosts,
    TraceReplay,
    run_cell,
)

LATENCY_S = 0.010
COMPILE_S = 0.005
#: Per-request SLO under the fleet defaults: max(1 ms, 10 x latency).
SLO_S = 0.100
#: Timeout under the default resilient policy: 2 x SLO.
TIMEOUT_S = 0.200


def toy_costs(latency_s=LATENCY_S, compile_s=COMPILE_S, amortized=0.5,
              models=("m",), tiles=1):
    """Hand-set costs so expected times are computable by hand."""
    return ServiceCosts(
        costs={m: ModelCost(latency_s, compile_s, True, tiles)
               for m in models},
        amortized_fraction=amortized)


def run_fleet(workload, costs, *, devices=1, routing="least_loaded",
              fault_plan=None, resilience=None, max_queue=256):
    """One single-batch fleet run with the trace log kept."""
    sim = FleetSimulator(costs, devices=devices,
                         batch_policy=BatchPolicy("single"),
                         admission=AdmissionPolicy(max_queue),
                         routing=routing, collect_trace=True,
                         fault_plan=fault_plan, resilience=resilience)
    report = sim.run(workload)
    return report, sim.trace_log


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

def full_plan():
    """A plan exercising every spec field, for round-trip tests."""
    return FaultPlan(
        name="everything", stream="s1",
        crash=CrashSpec(p_per_device_s=0.01, outage_s=5.0, at=((0, 1.0),)),
        slowdown=SlowdownSpec(p_per_device_s=0.1, factor=3.0,
                              duration_s=1.5, at=((1, 2.0),)),
        flaky_compile=FlakyCompileSpec(p=0.2),
        tile_fault=TileFaultSpec(p_per_batch=0.3, tiles=4),
        corrupt=CorruptSpec(p_per_download=0.4, detection_rate=0.9),
        burst=BurstSpec(p_per_s=0.5, size=16, at=(2.5,)))


def test_plan_json_round_trip():
    plan = full_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan
    # The dict form uses the external key names, one per fault class.
    payload = plan.as_dict()
    assert set(payload) == {"name", "stream", "device_crash",
                            "device_slowdown", "flaky_compile",
                            "tile_fault", "corrupt_program", "queue_burst"}


def test_plan_file_round_trip(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(full_plan().to_json())
    assert FaultPlan.from_file(str(path)) == full_plan()


def test_plan_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault-plan keys"):
        FaultPlan.from_dict({"name": "x", "device_crush": {}})
    with pytest.raises(ValueError, match="device_crash"):
        FaultPlan.from_dict({"device_crash": {"p_per_dev": 0.1}})
    with pytest.raises(ValueError, match="JSON object"):
        FaultPlan.from_dict([1, 2])


def test_plan_scaling_and_quiet():
    plan = full_plan()
    double = plan.scaled(2.0)
    assert double.crash.p_per_device_s == pytest.approx(0.02)
    # Probabilities clamp at 1.0; durations/factors are not rates and
    # stay put.
    assert double.corrupt.p_per_download == pytest.approx(0.8)
    assert plan.scaled(10.0).flaky_compile.p == 1.0
    assert double.slowdown.factor == plan.slowdown.factor
    # Scale 0 drops scheduled faults too — the fault-free control.
    off = plan.scaled(0.0)
    assert off.quiet
    assert off.crash.at == () and off.burst.at == ()
    assert not plan.quiet
    assert FaultPlan().quiet
    assert not default_plan().quiet
    with pytest.raises(ValueError):
        plan.scaled(-1.0)


# ---------------------------------------------------------------------------
# Injector
# ---------------------------------------------------------------------------

def test_injector_deterministic_under_fixed_seed():
    plan = FaultPlan(name="det", crash=CrashSpec(p_per_device_s=0.2),
                     slowdown=SlowdownSpec(p_per_device_s=0.2),
                     burst=BurstSpec(p_per_s=0.5, size=2),
                     flaky_compile=FlakyCompileSpec(p=0.5))
    a = FaultInjector(plan, devices=4, duration_s=10.0)
    b = FaultInjector(plan, devices=4, duration_s=10.0)
    assert a.crashes == b.crashes
    assert a.slowdowns == b.slowdowns
    assert a.bursts == b.bursts
    draws = [(d, m, k) for d in range(4) for m in ("m", "n")
             for k in range(5)]
    assert [a.flaky_compile(*x) for x in draws] == \
           [b.flaky_compile(*x) for x in draws]


def test_injector_sensitive_to_seed(monkeypatch):
    plan = FaultPlan(name="det", crash=CrashSpec(p_per_device_s=0.2),
                     flaky_compile=FlakyCompileSpec(p=0.5))

    def materialize():
        inj = FaultInjector(plan, devices=4, duration_s=10.0)
        return (tuple(inj.crashes),
                tuple(inj.flaky_compile(d, "m", k)
                      for d in range(4) for k in range(8)))

    monkeypatch.setenv("REPRO_SEED", "1")
    one = materialize()
    monkeypatch.setenv("REPRO_SEED", "2")
    two = materialize()
    assert one != two


def test_injector_scheduled_crashes_and_windows():
    plan = FaultPlan(crash=CrashSpec(at=((1, 2.5), (9, 0.5))),
                     slowdown=SlowdownSpec(factor=3.0, duration_s=2.0,
                                           at=((0, 1.0),)))
    inj = FaultInjector(plan, devices=2, duration_s=10.0)
    # Device 9 does not exist in a 2-device fleet: dropped, not an error.
    assert inj.crashes == [(2.5, 1)]
    assert inj.slowdowns == [(1.0, 3.0, 0)]
    assert inj.slow_factor(0, 1.5) == 3.0
    assert inj.slow_factor(0, 3.5) == 1.0
    assert inj.slow_factor(1, 1.5) == 1.0
    # Permanent crash by default; finite outages heal at t + outage_s.
    assert inj.outage_end(2.5) is None
    finite = FaultInjector(FaultPlan(crash=CrashSpec(outage_s=2.0)),
                           devices=1, duration_s=1.0)
    assert finite.outage_end(1.0) == pytest.approx(3.0)


def test_injector_draw_rates_track_probability():
    plan = FaultPlan(flaky_compile=FlakyCompileSpec(p=0.5))
    inj = FaultInjector(plan, devices=1, duration_s=1.0)
    hits = sum(inj.flaky_compile(0, "m", k) for k in range(400))
    assert 0.35 < hits / 400 < 0.65
    # p=0 short-circuits without drawing.
    quiet = FaultInjector(FaultPlan(), devices=1, duration_s=1.0)
    assert not quiet.flaky_compile(0, "m", 0)
    assert not quiet.tile_fault(0, "m", 0)
    assert not quiet.corrupt_download(0, "m", 0)


def _reference_draw(base, *labels):
    """The per-event draw as first defined: sha256 of the whole repr."""
    digest = hashlib.sha256(repr((base, labels)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def test_injector_draws_match_the_reference_formula():
    # The injector hashes a cached prefix per (kind, device, model); the
    # draws must equal the full-repr formula bit for bit.
    plan = FaultPlan(name="ref", flaky_compile=FlakyCompileSpec(p=0.5),
                     corrupt=CorruptSpec(p_per_download=0.5,
                                         detection_rate=0.5),
                     tile_fault=TileFaultSpec(p_per_batch=0.5))
    inj = FaultInjector(plan, devices=64, duration_s=20.0)
    base = (knobs.get("REPRO_SEED"), plan.stream, plan.name, 64, 20.0)
    draws = {"flaky": inj.flaky_compile, "corrupt": inj.corrupt_download,
             "detect": inj.corruption_detected, "tile": inj.tile_fault}
    models = ("bert", "it's", 'say "hi"', "modèle-ü", "模型")
    for kind, decide in draws.items():
        for device in range(64):
            for model in models:
                for value in (0, 1, 10 ** 6):
                    want = _reference_draw(base, kind, device, model, value)
                    assert inj._uniform(kind, device, model, value) == want
                    assert decide(device, model, value) == (want < 0.5)


# ---------------------------------------------------------------------------
# Fleet under faults: crashes, retries, circuit breaker
# ---------------------------------------------------------------------------

def crash_scenario(resilience):
    """Two devices, the model's affinity device dies at t=1.0.

    Request 0 (t=0) completes before the crash; request 1 (t=5) lands
    on the dead-but-admitted device and only a retry policy can save it.
    """
    pin = zlib.crc32(b"m") % 2
    plan = FaultPlan(name="one-crash",
                     crash=CrashSpec(at=((pin, 1.0),)))
    workload = TraceReplay([(0.0, "m"), (5.0, "m")])
    return run_fleet(workload, toy_costs(), devices=2,
                     routing="model_affinity", fault_plan=plan,
                     resilience=resilience)


@pytest.mark.parametrize("max_retries", [-1, 255])
def test_max_retries_must_fit_the_attempt_byte(max_retries):
    with pytest.raises(ValueError, match="max_retries"):
        ResiliencePolicy(max_retries=max_retries)


def test_the_largest_max_retries_runs_to_exhaustion():
    # Request 1 times out on the dead device 255 times (breaker off):
    # the last attempt number still fits its byte.
    report, _ = crash_scenario(ResiliencePolicy(
        max_retries=254, retry_budget_fraction=200.0, eject_threshold=0))
    assert report.retries == 254 and report.timeouts == 255
    assert report.failed == 1 and report.completed == 1


def test_naive_fleet_loses_requests_to_permanent_crash():
    report, trace = crash_scenario(ResiliencePolicy.naive())
    assert report.faults.get("device_crash") == 1
    assert report.completed == 1
    assert report.failed == 1       # stuck on the dead device forever
    assert report.retries == 0 and report.timeouts == 0
    assert [e["kind"] for e in trace].count("crash") == 1


def test_resilient_fleet_retries_around_crash_and_ejects():
    policy = ResiliencePolicy(eject_threshold=2, retry_budget_fraction=1.0)
    report, trace = crash_scenario(policy)
    assert report.completed == 2 and report.failed == 0
    # Timeout at 5.2 (queued on the dead device), retry backs off to the
    # same pinned device, second timeout at ~5.402 trips the breaker,
    # and the retry after ejection probes over to the live device.
    assert report.timeouts == 2
    assert report.retries == 2
    assert report.devices_ejected == 1
    assert report.devices_readmitted == 1
    kinds = [e["kind"] for e in trace]
    assert kinds.count("timeout") == 2
    assert kinds.count("eject") == 1
    assert kinds.count("readmit") == 1
    retried = next(e for e in trace if e["kind"] == "retry")
    assert retried["backoff_s"] == pytest.approx(2e-3)
    # Both batches that completed: one per device (the failover compile).
    assert report.compiles == 2


def test_cooldown_doubles_per_consecutive_eject_until_a_completion():
    # The pinned device is down over [1, 7) and [12, 18); every request
    # it times out on ejects it again once it is re-admitted.
    pin = zlib.crc32(b"m") % 2
    plan = FaultPlan(crash=CrashSpec(outage_s=6.0,
                                     at=((pin, 1.0), (pin, 12.0))))
    policy = ResiliencePolicy(eject_threshold=1, retry_budget_fraction=1.0)
    workload = TraceReplay([(0.1 * i, "m") for i in range(200)])
    report, trace = run_fleet(workload, toy_costs(), devices=2,
                              routing="model_affinity", fault_plan=plan,
                              resilience=policy)
    assert report.failed == 0
    ejects = [e for e in trace if e["kind"] == "eject"]
    assert {e["device"] for e in ejects} == {pin}
    readmits = [e["t_s"] for e in trace if e["kind"] == "readmit"]
    assert readmits == [e["t_s"] + e["cooldown_s"] for e in ejects]
    # The k-th consecutive eject waits cooldown_s * 2**(k-1); batches
    # that complete on the device between the outages reset the count.
    first = [e["cooldown_s"] for e in ejects if e["t_s"] < 12.0]
    second = [e["cooldown_s"] for e in ejects if e["t_s"] >= 12.0]
    assert len(first) >= 4 and len(second) >= 1
    for run in (first, second):
        assert run == [policy.cooldown_s * 2 ** k for k in range(len(run))]
    assert any(e["kind"] == "batch" and e["device"] == pin
               and readmits[len(first) - 1] <= e["t_s"]
               and e["finish_s"] < 12.0 for e in trace)


def test_retry_backoff_doubles_per_attempt():
    # One device, dead for good, breaker off: the request times out and
    # retries until max_retries is spent.
    plan = FaultPlan(crash=CrashSpec(at=((0, 0.5),)))
    policy = ResiliencePolicy(max_retries=5, retry_budget_fraction=10.0,
                              eject_threshold=0)
    report, trace = run_fleet(TraceReplay([(1.0, "m")]), toy_costs(),
                              devices=1, fault_plan=plan, resilience=policy)
    assert report.retries == 5 and report.failed == 1
    retries = [e for e in trace if e["kind"] == "retry"]
    assert [e["attempt"] for e in retries] == [1, 2, 3, 4, 5]
    # The retry after attempt k (counting from 0) backs off 2 ms * 2**k.
    assert [e["backoff_s"] for e in retries] == [2e-3 * 2 ** k
                                                 for k in range(5)]


def test_retry_budget_zero_fails_instead_of_retrying():
    plan = FaultPlan(crash=CrashSpec(at=((0, 0.5),)))
    policy = ResiliencePolicy(retry_budget_fraction=0.0, eject_threshold=0)
    workload = TraceReplay([(1.0, "m")])
    report, trace = run_fleet(workload, toy_costs(), devices=1,
                              fault_plan=plan, resilience=policy)
    assert report.timeouts == 1
    assert report.retries == 0      # budget of 0: straight to failed
    assert report.failed == 1 and report.completed == 0
    assert any(e["kind"] == "retry-exhausted" for e in trace)


# ---------------------------------------------------------------------------
# Fleet under faults: tile faults, flaky compiles, corrupt downloads
# ---------------------------------------------------------------------------

def tile_scenario(resilience, faulted_tiles=1, total_tiles=5):
    plan = FaultPlan(tile_fault=TileFaultSpec(p_per_batch=1.0,
                                              tiles=faulted_tiles))
    workload = TraceReplay([(0.0, "m")])
    return run_fleet(workload, toy_costs(tiles=total_tiles),
                     fault_plan=plan, resilience=resilience)


def test_tile_fault_reexecutes_only_faulted_tiles_when_resilient():
    report, trace = tile_scenario(ResiliencePolicy())
    fault = next(e for e in trace if e["kind"] == "tile-fault")
    # 1 of 5 tiles re-runs: penalty is base/5.
    assert fault["tiles"] == 1
    assert fault["penalty_s"] == pytest.approx(LATENCY_S / 5)
    assert report.faults.get("tile_fault") == 1
    assert report.completed == 1


def test_tile_fault_reruns_whole_batch_when_naive():
    _, trace = tile_scenario(ResiliencePolicy.naive())
    fault = next(e for e in trace if e["kind"] == "tile-fault")
    assert fault["penalty_s"] == pytest.approx(LATENCY_S)


def test_tile_fault_count_clamps_to_model_tiles():
    _, trace = tile_scenario(ResiliencePolicy(), faulted_tiles=99,
                             total_tiles=5)
    fault = next(e for e in trace if e["kind"] == "tile-fault")
    # More faulted tiles than the model has: everything re-runs, which
    # is exactly the naive penalty.
    assert fault["tiles"] == 5
    assert fault["penalty_s"] == pytest.approx(LATENCY_S)


def flaky_scenario(resilience):
    plan = FaultPlan(flaky_compile=FlakyCompileSpec(p=1.0))
    workload = TraceReplay([(0.0, "m")])
    return run_fleet(workload, toy_costs(), fault_plan=plan,
                     resilience=resilience)


def test_flaky_compile_fails_batch_when_naive():
    report, trace = flaky_scenario(ResiliencePolicy.naive())
    assert report.completed == 0 and report.failed == 1
    assert report.compile_retries == 0
    assert report.faults.get("flaky_compile") == 1
    assert any(e["kind"] == "compile-fail" for e in trace)


def test_flaky_compile_retried_in_place_when_resilient():
    # p=1.0 flakes every attempt: the resilient policy burns its
    # max_retries (visible as compile-retry traces) before giving up.
    report, trace = flaky_scenario(ResiliencePolicy(max_retries=3))
    assert report.compile_retries == 3
    assert report.faults.get("flaky_compile") == 4
    assert report.failed == 1
    assert [e["kind"] for e in trace].count("compile-retry") == 3


def corrupt_scenario(resilience, detection_rate=1.0):
    plan = FaultPlan(corrupt=CorruptSpec(p_per_download=1.0,
                                         detection_rate=detection_rate))
    workload = TraceReplay([(0.0, "m")])
    return run_fleet(workload, toy_costs(), fault_plan=plan,
                     resilience=resilience)


def test_corrupt_download_poisons_completions_when_naive():
    report, trace = corrupt_scenario(ResiliencePolicy.naive())
    # The batch completes, but on a corrupted resident program: counted
    # as completed, excluded from goodput.
    assert report.completed == 1
    assert report.bad_completions == 1
    assert report.goodput_rps == 0.0
    assert any(e["kind"] == "corrupt-undetected" for e in trace)


def test_corrupt_download_detected_and_recompiled_when_resilient():
    # p=1.0 corrupts every re-download; with perfect detection the
    # verifier catches each one until retries run out — but nothing bad
    # is ever served.
    report, trace = corrupt_scenario(ResiliencePolicy(max_retries=3))
    assert report.bad_completions == 0
    assert report.failed == 1
    assert report.faults.get("corrupt_program") == 4
    assert report.faults.get("corrupt_detected") == 4
    assert [e["kind"] for e in trace].count("corrupt-detected") == 4


def test_corrupt_download_undetected_poisons_even_resilient():
    report, _ = corrupt_scenario(ResiliencePolicy(), detection_rate=0.0)
    assert report.bad_completions == 1
    assert report.faults.get("corrupt_detected") is None


# ---------------------------------------------------------------------------
# Fleet under faults: queue bursts + graceful degradation
# ---------------------------------------------------------------------------

def test_queue_burst_overflows_small_queues():
    plan = FaultPlan(burst=BurstSpec(size=3, at=(0.0,)))
    workload = TraceReplay([(0.0, "m")])
    report, trace = run_fleet(workload, toy_costs(), fault_plan=plan,
                              max_queue=2)
    # rid 0 launches immediately; two burst requests queue; the third
    # finds the queue full and is rejected.
    assert report.offered == 4
    assert report.faults.get("queue_burst") == 1
    assert report.rejected == 1
    assert report.completed == 3
    assert any(e["kind"] == "queue-burst" for e in trace)
    assert any(e["kind"] == "queue-reject" for e in trace)


def test_all_devices_ejected_sheds_arrivals():
    # Device 0 is the whole fleet and dies at t=0.5; after the breaker
    # ejects it, later arrivals shed at admission instead of queueing.
    plan = FaultPlan(crash=CrashSpec(at=((0, 0.5),)))
    policy = ResiliencePolicy(eject_threshold=1, cooldown_s=50.0,
                              retry_budget_fraction=0.0)
    workload = TraceReplay([(1.0, "m"), (2.0, "m")])
    report, trace = run_fleet(workload, toy_costs(), devices=1,
                              fault_plan=plan, resilience=policy)
    # Request 0: queued on the dead device, times out at 3.0 (slo x 2
    # after its 1.0 + 1.8 re-arm... exact time immaterial), ejects the
    # device; request 1 arrives with nothing admitted and is shed.
    assert report.devices_ejected == 1
    assert any(e["kind"] == "shed" for e in trace)
    assert report.rejected >= 1
    assert report.completed == 0


def test_quiet_plan_matches_no_plan():
    """A plan with all rates zero must not perturb the legacy fleet."""
    workload = TraceReplay([(0.0, "m"), (0.001, "m"), (0.002, "m")])
    base = FleetSimulator(toy_costs(),
                          batch_policy=BatchPolicy("single")).run(workload)
    quiet = FleetSimulator(toy_costs(), batch_policy=BatchPolicy("single"),
                           fault_plan=FaultPlan()).run(workload)
    assert base == quiet


# ---------------------------------------------------------------------------
# Chaos sweeps
# ---------------------------------------------------------------------------

SMALL_PLAN = FaultPlan(name="small",
                       crash=CrashSpec(p_per_device_s=0.05),
                       tile_fault=TileFaultSpec(p_per_batch=0.2),
                       corrupt=CorruptSpec(p_per_download=0.5))


def small_grid():
    return chaos_grid(plan=SMALL_PLAN, scales=(1.0,), model="m", devices=2,
                      rate_rps=300.0, duration_s=1.0,
                      costs=toy_costs(latency_s=0.004, compile_s=0.002))


def small_report():
    grid = small_grid()
    return chaos_report(grid, [run_cell(cell).report for _, cell in grid],
                        SMALL_PLAN, "m")


def test_chaos_grid_prepends_fault_free_control():
    grid = small_grid()
    # 2 policies x (0.0 control + 1.0): the control is always present
    # exactly once per policy even though scales=(1.0,) omitted it.
    assert [label for label, _ in grid] == [
        ("naive", 0.0), ("naive", 1.0),
        ("resilient", 0.0), ("resilient", 1.0)]
    # Each label names the policy and plan scale its cell runs.
    for (policy, scale), cell in grid:
        assert cell.sim["resilience"] == ResiliencePolicy(kind=policy)
        assert cell.sim["fault_plan"] == SMALL_PLAN.scaled(scale)


def test_chaos_report_validates_and_summarizes():
    payload = small_report()
    assert validate_chaos_report(payload) == []
    # JSON round-trip must survive validation too (what CI checks).
    assert validate_chaos_report(json.loads(report_json(payload))) == []
    for policy in ("naive", "resilient"):
        entry = payload["summary"][policy]
        assert entry["baseline_goodput_rps"] > 0
        assert 0.0 <= entry["min_goodput_retention"] <= 1.5
    controls = [r for r in payload["rows"] if r["fault_scale"] == 0.0]
    assert all(r["goodput_retention"] == pytest.approx(1.0)
               for r in controls)


def test_chaos_validator_rejects_malformed_reports():
    payload = small_report()

    assert validate_chaos_report([]) != []
    assert validate_chaos_report({}) != []

    wrong_schema = dict(payload, schema="nope")
    assert any("schema" in p for p in validate_chaos_report(wrong_schema))

    empty_rows = dict(payload, rows=[])
    assert "$.rows: length 0 is below the minimum 1" in validate_chaos_report(
        empty_rows)

    bad_row = json.loads(report_json(payload))
    del bad_row["rows"][0]["goodput_rps"]
    assert any("goodput_rps" in p for p in validate_chaos_report(bad_row))

    bad_policy = json.loads(report_json(payload))
    bad_policy["rows"][0]["policy"] = "heroic"
    assert any("policy" in p for p in validate_chaos_report(bad_policy))
