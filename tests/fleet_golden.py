"""Golden fleet scenarios: frozen serving, fault, monitor and trace outputs.

Every scenario here runs the fleet simulator on a pinned seed and
reduces the run to plain JSON: the ``ServingReport``, the request
lifecycle trace, the monitor's alert stream and a sha256 of its whole
payload, chaos reports, and the ``serving.*``/``faults.*`` telemetry
counters.  ``tests/test_fleet_golden.py`` re-runs each scenario and
compares the rendered JSON with ``tests/fixtures/fleet_golden/<name>.json``
byte for byte, so any change to event order, float arithmetic or
accounting shows up as a fixture diff.

Scenarios that need real model costs (BERT, ResNet-50) read them from
``costs.json`` in the same directory instead of compiling the models,
and the LLM scenarios read ``gpt2_rms``'s decode-step costs from
``llm_costs.json``, so the fixtures pin the fleet semantics, not the
compiler's cycle counts.

Regenerate (only when a change to the fleet's numbers is intended, and
say why per field in the change description)::

    PYTHONPATH=src python tests/fleet_golden.py [name ...]
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib
from pathlib import Path
from typing import Any, Callable, Dict

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "fleet_golden"
COSTS_FILE = FIXTURES / "costs.json"
LLM_COSTS_FILE = FIXTURES / "llm_costs.json"
#: Seed every scenario runs under (the knob registry's default).
SEED = "12345"
REAL_MODELS = ("bert", "resnet50")


def _sha(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render(result: Dict[str, Any]) -> str:
    """The fixture text of one scenario result."""
    return json.dumps(result, indent=1, sort_keys=True) + "\n"


def toy_costs(latency_s=0.010, compile_s=0.005, amortized=0.5,
              models=("m",), tiles=1):
    """Hand-set costs (the same toy numbers as ``tests/test_faults.py``)."""
    from repro.serving import ModelCost, ServiceCosts
    return ServiceCosts(
        costs={m: ModelCost(latency_s, compile_s, True, tiles)
               for m in models},
        amortized_fraction=amortized)


def real_costs(models=("bert",)):
    """Frozen BERT/ResNet-50 costs from ``costs.json``."""
    from repro.serving import ModelCost, ServiceCosts
    frozen = json.loads(COSTS_FILE.read_text())
    return ServiceCosts(
        costs={m: ModelCost(*frozen["costs"][m]) for m in models},
        amortized_fraction=frozen["amortized_fraction"])


def freeze_costs() -> None:
    """Write ``costs.json`` from the compiler's current numbers."""
    from repro.serving import ServiceCosts
    costs = ServiceCosts.resolve(list(REAL_MODELS))
    COSTS_FILE.write_text(render({
        "amortized_fraction": costs.amortized_fraction,
        "costs": {m: [c.latency_s, c.compile_s, c.verified, c.tiles]
                  for m, c in costs.costs.items()},
    }))


def llm_costs():
    """Frozen full-precision ``gpt2_rms`` costs from ``llm_costs.json``."""
    from repro.serving import LLMServiceCosts
    return LLMServiceCosts(**json.loads(LLM_COSTS_FILE.read_text()))


def freeze_llm_costs() -> None:
    """Write ``llm_costs.json`` from the cycle model's current numbers."""
    from dataclasses import asdict
    from repro.serving import LLMServiceCosts
    LLM_COSTS_FILE.write_text(render(asdict(
        LLMServiceCosts.resolve("gpt2_rms", kv_budget_tokens=1024))))


def _assert_settled_once(monitor: Dict[str, Any], offered: int) -> None:
    """Every offered request settles good or bad exactly once."""
    assert monitor["slo"]["total"] == offered, (monitor["slo"], offered)


def _fleet(workload, costs, *, rate_rps=0.0, trace_in_full=True,
           **kwargs) -> Dict[str, Any]:
    """One traced fleet run reduced to report + trace (+ monitor)."""
    from repro.serving import FleetSimulator
    from repro.telemetry import Telemetry, scoped_telemetry
    sim = FleetSimulator(costs, collect_trace=True, **kwargs)
    with scoped_telemetry(Telemetry(enabled=True, label="golden")) as tel:
        report = sim.run(workload, rate_rps=rate_rps)
        counters = tel.snapshot()["counters"]
    # The per-kind event counters are not pinned: they must add up to
    # the run's event count instead.
    events = [counters.pop(k) for k in sorted(counters)
              if k.startswith("serving.events.")]
    if sim.payload is not None:
        assert sum(events) == sim.payload["sim"]["events"]
    out: Dict[str, Any] = {
        "report": json.loads(report.to_json()),
        "counters": {k: v for k, v in sorted(counters.items())
                     if k.startswith(("serving.", "faults."))},
    }
    if trace_in_full:
        out["trace"] = sim.trace_log
    else:
        out["trace_sha256"] = _sha(sim.trace_log)
        out["trace_len"] = len(sim.trace_log)
    if sim.monitor_payload is not None:
        _assert_settled_once(sim.monitor_payload, report.offered)
        out["monitor_alerts"] = sim.monitor_payload["alerts"]
        out["monitor_sha256"] = _sha(sim.monitor_payload)
    return out


# ---------------------------------------------------------------------------
# tests/test_faults.py scenarios (single-request batching, toy costs)
# ---------------------------------------------------------------------------
def _single(workload, costs, *, devices=1, routing="least_loaded",
            fault_plan=None, resilience=None, max_queue=256):
    from repro.serving import AdmissionPolicy, BatchPolicy
    return _fleet(workload, costs, devices=devices,
                  batch_policy=BatchPolicy("single"),
                  admission=AdmissionPolicy(max_queue), routing=routing,
                  fault_plan=fault_plan, resilience=resilience)


def _crash(resilience):
    from repro.faults import CrashSpec, FaultPlan
    from repro.serving import TraceReplay
    pin = zlib.crc32(b"m") % 2
    plan = FaultPlan(name="one-crash", crash=CrashSpec(at=((pin, 1.0),)))
    return _single(TraceReplay([(0.0, "m"), (5.0, "m")]), toy_costs(),
                   devices=2, routing="model_affinity", fault_plan=plan,
                   resilience=resilience)


def faults_crash_naive():
    from repro.serving import ResiliencePolicy
    return _crash(ResiliencePolicy.naive())


def faults_crash_resilient():
    from repro.serving import ResiliencePolicy
    return _crash(ResiliencePolicy(eject_threshold=2,
                                   retry_budget_fraction=1.0))


def faults_retry_budget_zero():
    from repro.faults import CrashSpec, FaultPlan
    from repro.serving import ResiliencePolicy, TraceReplay
    plan = FaultPlan(crash=CrashSpec(at=((0, 0.5),)))
    policy = ResiliencePolicy(retry_budget_fraction=0.0, eject_threshold=0)
    return _single(TraceReplay([(1.0, "m")]), toy_costs(), fault_plan=plan,
                   resilience=policy)


def _tile(resilience, faulted_tiles=1, total_tiles=5):
    from repro.faults import FaultPlan, TileFaultSpec
    from repro.serving import TraceReplay
    plan = FaultPlan(tile_fault=TileFaultSpec(p_per_batch=1.0,
                                              tiles=faulted_tiles))
    return _single(TraceReplay([(0.0, "m")]), toy_costs(tiles=total_tiles),
                   fault_plan=plan, resilience=resilience)


def faults_tile_resilient():
    from repro.serving import ResiliencePolicy
    return _tile(ResiliencePolicy())


def faults_tile_naive():
    from repro.serving import ResiliencePolicy
    return _tile(ResiliencePolicy.naive())


def faults_tile_clamped():
    from repro.serving import ResiliencePolicy
    return _tile(ResiliencePolicy(), faulted_tiles=99, total_tiles=5)


def _flaky(resilience):
    from repro.faults import FaultPlan, FlakyCompileSpec
    from repro.serving import TraceReplay
    plan = FaultPlan(flaky_compile=FlakyCompileSpec(p=1.0))
    return _single(TraceReplay([(0.0, "m")]), toy_costs(), fault_plan=plan,
                   resilience=resilience)


def faults_flaky_naive():
    from repro.serving import ResiliencePolicy
    return _flaky(ResiliencePolicy.naive())


def faults_flaky_resilient():
    from repro.serving import ResiliencePolicy
    return _flaky(ResiliencePolicy(max_retries=3))


def _corrupt(resilience, detection_rate=1.0):
    from repro.faults import CorruptSpec, FaultPlan
    from repro.serving import TraceReplay
    plan = FaultPlan(corrupt=CorruptSpec(p_per_download=1.0,
                                         detection_rate=detection_rate))
    return _single(TraceReplay([(0.0, "m")]), toy_costs(), fault_plan=plan,
                   resilience=resilience)


def faults_corrupt_naive():
    from repro.serving import ResiliencePolicy
    return _corrupt(ResiliencePolicy.naive())


def faults_corrupt_resilient():
    from repro.serving import ResiliencePolicy
    return _corrupt(ResiliencePolicy(max_retries=3))


def faults_corrupt_undetected():
    from repro.serving import ResiliencePolicy
    return _corrupt(ResiliencePolicy(), detection_rate=0.0)


def faults_queue_burst():
    from repro.faults import BurstSpec, FaultPlan
    from repro.serving import TraceReplay
    plan = FaultPlan(burst=BurstSpec(size=3, at=(0.0,)))
    return _single(TraceReplay([(0.0, "m")]), toy_costs(), fault_plan=plan,
                   max_queue=2)


def faults_all_ejected():
    from repro.faults import CrashSpec, FaultPlan
    from repro.serving import ResiliencePolicy, TraceReplay
    plan = FaultPlan(crash=CrashSpec(at=((0, 0.5),)))
    policy = ResiliencePolicy(eject_threshold=1, cooldown_s=50.0,
                              retry_budget_fraction=0.0)
    return _single(TraceReplay([(1.0, "m"), (2.0, "m")]), toy_costs(),
                   fault_plan=plan, resilience=policy)


def faults_quiet_plan():
    from repro.faults import FaultPlan
    from repro.serving import BatchPolicy, TraceReplay
    workload = TraceReplay([(0.0, "m"), (0.001, "m"), (0.002, "m")])
    return _fleet(workload, toy_costs(), batch_policy=BatchPolicy("single"),
                  fault_plan=FaultPlan())


def _chaos(plan, model, **grid_kwargs):
    """One chaos sweep reduced to its report, as ``repro chaos`` writes it."""
    from repro.faults import chaos_grid, chaos_report
    from repro.schema import report_json
    from repro.serving import run_cell
    grid = chaos_grid(plan=plan, model=model, **grid_kwargs)
    reports = [run_cell(cell).report for _, cell in grid]
    return json.loads(report_json(chaos_report(grid, reports, plan, model)))


def faults_chaos_small_grid():
    from repro.faults import CorruptSpec, CrashSpec, FaultPlan, TileFaultSpec
    plan = FaultPlan(name="small",
                     crash=CrashSpec(p_per_device_s=0.05),
                     tile_fault=TileFaultSpec(p_per_batch=0.2),
                     corrupt=CorruptSpec(p_per_download=0.5))
    return _chaos(plan, "m", scales=(1.0,), devices=2, rate_rps=300.0,
                  duration_s=1.0,
                  costs=toy_costs(latency_s=0.004, compile_s=0.002))


# ---------------------------------------------------------------------------
# Fault-free runs (once pinned as legacy-vs-scaled bit identity)
# ---------------------------------------------------------------------------
TWO = ("a", "b")


def _plain(routing):
    from repro.serving import OpenLoopPoisson
    return _fleet(OpenLoopPoisson(TWO, 300.0, 2.0), toy_costs(models=TWO),
                  rate_rps=300.0, devices=4, routing=routing,
                  trace_in_full=False)


def plain_round_robin():
    return _plain("round_robin")


def plain_least_loaded():
    return _plain("least_loaded")


def plain_model_affinity():
    return _plain("model_affinity")


def plain_closed_loop():
    from repro.serving import ClosedLoop
    return _fleet(ClosedLoop(TWO, clients=12, duration_s=1.0,
                             think_s=0.002),
                  toy_costs(models=TWO), devices=3, trace_in_full=False)


def plain_overload():
    from repro.serving import AdmissionPolicy, BatchPolicy, OpenLoopPoisson
    return _fleet(OpenLoopPoisson(TWO, 2000.0, 1.0), toy_costs(models=TWO),
                  rate_rps=2000.0, devices=2,
                  admission=AdmissionPolicy(max_queue=4),
                  batch_policy=BatchPolicy("single"), trace_in_full=False)


def plain_unverified_reject():
    from repro.serving import ModelCost, OpenLoopPoisson, ServiceCosts
    costs = ServiceCosts(
        costs={"m": ModelCost(0.01, 0.0),
               "dirty": ModelCost(0.01, 0.0, verified=False)},
        amortized_fraction=0.5)
    return _fleet(OpenLoopPoisson(("m", "dirty"), 200.0, 1.0), costs,
                  rate_rps=200.0, devices=2, trace_in_full=False)


def plain_sweep_point():
    from repro.serving import default_grid, run_cell
    cell, = default_grid(model="m", policies=("dynamic",), fleets=(4,),
                         rates=(400.0,), duration_s=1.0, costs=toy_costs())
    return json.loads(run_cell(cell).report.to_json())


# ---------------------------------------------------------------------------
# Everything at once: faults + resilience + monitor + trace
# ---------------------------------------------------------------------------
def _storm_plan():
    from repro.faults import (BurstSpec, CorruptSpec, CrashSpec, FaultPlan,
                              FlakyCompileSpec, SlowdownSpec, TileFaultSpec)
    return FaultPlan(
        name="storm", stream="golden",
        crash=CrashSpec(p_per_device_s=0.15, outage_s=0.6,
                        at=((1, 0.4),)),
        slowdown=SlowdownSpec(p_per_device_s=0.2, factor=3.0,
                              duration_s=0.5),
        flaky_compile=FlakyCompileSpec(p=0.3),
        tile_fault=TileFaultSpec(p_per_batch=0.05, tiles=2),
        corrupt=CorruptSpec(p_per_download=0.3, detection_rate=0.7),
        burst=BurstSpec(p_per_s=0.5, size=24, at=(1.0,)))


def _storm(routing, kind="resilient", closed_loop=False, devices=4, cells=1):
    from repro.serving import (ClosedLoop, MonitorConfig, OpenLoopPoisson,
                               ResiliencePolicy)
    from repro.serving.scheduler import AdmissionPolicy
    costs = toy_costs(latency_s=0.004, compile_s=0.003, models=TWO, tiles=4)
    if closed_loop:
        workload, rate = ClosedLoop(TWO, clients=16, duration_s=3.0,
                                    think_s=0.001), 0.0
    else:
        workload, rate = OpenLoopPoisson(TWO, 900.0, 3.0), 900.0
    policy = (ResiliencePolicy(eject_threshold=2, cooldown_s=0.2)
              if kind == "resilient" else ResiliencePolicy.naive())
    return _fleet(workload, costs, rate_rps=rate, devices=devices,
                  cells=cells, routing=routing, admission=AdmissionPolicy(64),
                  fault_plan=_storm_plan(), resilience=policy,
                  monitor_config=MonitorConfig(interval_s=0.05),
                  trace_in_full=False)


def storm_round_robin():
    return _storm("round_robin")


def storm_least_loaded():
    return _storm("least_loaded")


def storm_model_affinity():
    return _storm("model_affinity")


def _storm_cells(routing):
    """The storm on 8 devices in 4 cells: routing skips ejected devices
    and cells with none admitted."""
    out = _storm(routing, devices=8, cells=4)
    assert out["report"]["devices_ejected"] > 0
    return out


def storm_cells_round_robin():
    return _storm_cells("round_robin")


def storm_cells_least_loaded():
    return _storm_cells("least_loaded")


def storm_cells_model_affinity():
    return _storm_cells("model_affinity")


def storm_naive():
    return _storm("least_loaded", kind="naive")


def storm_closed_loop():
    return _storm("round_robin", closed_loop=True)


def serve_trace_out():
    """The device-event list ``repro serve --trace-out`` writes."""
    from repro.faults import default_plan
    from repro.serving import (FleetSimulator, MonitorConfig,
                               OpenLoopPoisson, ResiliencePolicy)
    from repro.telemetry.export import (monitor_counter_events,
                                        serving_trace_events)
    costs = toy_costs(latency_s=0.004, compile_s=0.003, models=TWO, tiles=4)
    sim = FleetSimulator(costs, devices=3, collect_trace=True,
                         fault_plan=default_plan().scaled(5.0),
                         resilience=ResiliencePolicy(),
                         monitor_config=MonitorConfig(interval_s=0.25))
    report = sim.run(OpenLoopPoisson(TWO, 100.0, 1.0), rate_rps=100.0)
    _assert_settled_once(sim.monitor_payload, report.offered)
    events = list(serving_trace_events(sim.trace_log))
    events.extend(monitor_counter_events(sim.monitor_payload))
    return {"device_events": events}


# ---------------------------------------------------------------------------
# Real-model scenarios (frozen costs)
# ---------------------------------------------------------------------------
def _monitor_point(**kwargs):
    from repro.serving import MonitorPoint, run_monitor_point
    out = run_monitor_point(MonitorPoint(**kwargs))
    _assert_settled_once(out["monitor"], out["serving"]["offered"])
    return {"serving": out["serving"],
            "monitor_alerts": out["monitor"]["alerts"],
            "monitor_sha256": _sha(out["monitor"])}


def _mon_crash_plan():
    from repro.faults import FaultPlan
    from repro.faults.plan import CrashSpec
    return FaultPlan(name="mon-crash-a",
                     crash=CrashSpec(p_per_device_s=0.01, outage_s=6.0))


def monitoring_slo_crashed():
    """``monitoring_slo``'s crashed run (its alerts are BENCH_monitoring's)."""
    return _monitor_point(costs=real_costs(), models=("bert",), devices=6,
                          rate_rps=120.0, duration_s=20.0,
                          fault_plan=_mon_crash_plan())


def monitoring_slo_control():
    return _monitor_point(costs=real_costs(), models=("bert",), devices=6,
                          rate_rps=120.0, duration_s=20.0)


def fleet_chaos_smoke():
    """The benchmark's fleet_chaos point at its smoke size."""
    from repro.faults import (CorruptSpec, CrashSpec, FaultPlan,
                              FlakyCompileSpec, TileFaultSpec)
    plan = FaultPlan(name="bench-chaos",
                     crash=CrashSpec(p_per_device_s=0.01, outage_s=6.0),
                     tile_fault=TileFaultSpec(p_per_batch=0.02),
                     corrupt=CorruptSpec(p_per_download=0.05),
                     flaky_compile=FlakyCompileSpec(p=0.05))
    return _monitor_point(costs=real_costs(REAL_MODELS), models=REAL_MODELS,
                          devices=8, rate_rps=250.0, duration_s=10.0,
                          resilience_kind="resilient", fault_plan=plan)


def chaos_default_grid():
    """``repro chaos`` with every default (BERT, default plan)."""
    from repro.faults import default_plan
    return _chaos(default_plan(), "bert", costs=real_costs())


def chaos_bench_crash_1pct():
    """``benchmarks/test_perf_chaos.py``'s sweep (BENCH_chaos.json)."""
    from repro.faults import CrashSpec, FaultPlan
    plan = FaultPlan(name="crash-1pct",
                     crash=CrashSpec(p_per_device_s=0.01, outage_s=None))
    return _chaos(plan, "bert", scales=(1.0,), devices=6, rate_rps=120.0,
                  duration_s=20.0, costs=real_costs())


# ---------------------------------------------------------------------------
# LLM batching (continuous and one-shot) on frozen gpt2_rms costs
# ---------------------------------------------------------------------------
def _llm_sweep(**grid_kwargs):
    from repro.llm import llm_grid, llm_report
    from repro.serving import run_cell
    return llm_report([run_cell(cell).report
                       for cell in llm_grid(**grid_kwargs)])


def llm_grid_2s():
    """Both schedulers on the default ``llm_grid`` ladder for 2 s."""
    return _llm_sweep(costs=llm_costs(), duration_s=2.0)


def llm_bench_5s():
    """``benchmarks/test_perf_llm.py``'s sweep (BENCH_llm_serving.json)."""
    return _llm_sweep(costs=llm_costs(), duration_s=5.0)


def _hand_costs(kv_budget=100):
    from repro.serving import LLMServiceCosts
    return LLMServiceCosts(config="hand", prefill_token_s=1.0,
                           decode_step_s=1.0, kv_budget_tokens=kv_budget,
                           amortized_fraction=0.5, slo_multiplier=5.0)


def _llm_run(scheduler, costs, requests, *, max_wait_ms=2.0):
    """One traced 4-slot LLM run reduced to report + trace."""
    from repro.serving import BatchPolicy, FleetSimulator, LLMWorkload
    sim = FleetSimulator(costs, batch_policy=BatchPolicy(
        scheduler, max_batch=4, max_wait_ms=max_wait_ms), collect_trace=True)
    sim.run(LLMWorkload(requests))
    return _llm_result(sim)


def _llm_result(sim) -> Dict[str, Any]:
    """An LLM run's report (+ trace when traced, + monitor payload)."""
    out: Dict[str, Any] = {"report": sim.report.as_dict()}
    if sim.collect_trace:
        out["trace"] = sim.trace_log
    if sim.monitor_config is not None:
        _assert_settled_once(sim.monitor_payload, sim.report.offered)
        out["monitor"] = sim.monitor_payload
    return out


def llm_hand_join_mid_batch():
    from repro.serving import LLMRequest
    return _llm_run("continuous", _hand_costs(),
                    [LLMRequest(0, 0.0, 2, 4), LLMRequest(1, 2.5, 2, 2)])


def llm_hand_kv_head_of_line():
    from repro.serving import LLMRequest
    return _llm_run("continuous", _hand_costs(kv_budget=10),
                    [LLMRequest(0, 0.0, 4, 2), LLMRequest(1, 0.1, 4, 2)])


def llm_hand_reject_oversized():
    from repro.serving import LLMRequest
    return _llm_run("continuous", _hand_costs(kv_budget=10),
                    [LLMRequest(0, 0.0, 8, 4), LLMRequest(1, 0.0, 2, 2)])


def llm_hand_oneshot_padded():
    from repro.serving import LLMRequest
    return _llm_run("oneshot", _hand_costs(),
                    [LLMRequest(0, 0.0, 2, 2), LLMRequest(1, 0.5, 4, 3)],
                    max_wait_ms=1000.0)


def llm_hand_sweep():
    """``tests/test_continuous_batcher.py``'s hand-cost sweep."""
    return _llm_sweep(costs=_hand_costs(kv_budget=400), rates=(20.0, 40.0),
                      duration_s=1.0, max_slots=4)


def _busiest(scheduler="continuous", costs=None, monitor_config=None,
             collect_trace=True):
    """The busiest 2 s cell (``serve --llm`` re-runs it for continuous)."""
    from dataclasses import replace
    from repro.llm import llm_grid
    from repro.serving import run_cell
    cell = max((c for c in llm_grid(costs=llm_costs(), duration_s=2.0)
                if c.sim["batch_policy"].kind == scheduler),
               key=lambda c: c.rate_rps)
    return _llm_result(run_cell(replace(cell, sim={
        **cell.sim, "costs": costs or cell.sim["costs"],
        "collect_trace": collect_trace, "monitor_config": monitor_config})))


def llm_monitored_continuous():
    from repro.serving import MonitorConfig
    return _busiest(monitor_config=MonitorConfig(), collect_trace=False)


def _tight_kv(scheduler):
    """A 100-token KV budget: rejects, head-of-line waits, a deep queue."""
    from dataclasses import replace
    from repro.serving import MonitorConfig
    out = _busiest(scheduler, costs=replace(llm_costs(),
                                            kv_budget_tokens=100),
                   monitor_config=MonitorConfig(interval_s=0.05))
    trace = out.pop("trace")
    out["trace_sha256"] = _sha(trace)
    out["trace_len"] = len(trace)
    return out


def llm_tight_kv_continuous():
    return _tight_kv("continuous")


def llm_tight_kv_oneshot():
    return _tight_kv("oneshot")


def llm_traced_continuous():
    from repro.telemetry.export import llm_trace_events
    out = _busiest()
    trace = out.pop("trace")
    out["trace_sha256"] = _sha(trace)
    out["trace_len"] = len(trace)
    out["trace_head"] = trace[:40]
    out["device_events_sha256"] = _sha(llm_trace_events(trace))
    return out


SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    fn.__name__: fn for fn in (
        faults_crash_naive, faults_crash_resilient, faults_retry_budget_zero,
        faults_tile_resilient, faults_tile_naive, faults_tile_clamped,
        faults_flaky_naive, faults_flaky_resilient, faults_corrupt_naive,
        faults_corrupt_resilient, faults_corrupt_undetected,
        faults_queue_burst, faults_all_ejected, faults_quiet_plan,
        faults_chaos_small_grid,
        plain_round_robin, plain_least_loaded, plain_model_affinity,
        plain_closed_loop, plain_overload, plain_unverified_reject,
        plain_sweep_point,
        storm_round_robin, storm_least_loaded, storm_model_affinity,
        storm_naive, storm_closed_loop, storm_cells_round_robin,
        storm_cells_least_loaded, storm_cells_model_affinity,
        serve_trace_out,
        monitoring_slo_crashed, monitoring_slo_control, fleet_chaos_smoke,
        chaos_default_grid, chaos_bench_crash_1pct,
        llm_grid_2s, llm_bench_5s, llm_hand_join_mid_batch,
        llm_hand_kv_head_of_line, llm_hand_reject_oversized,
        llm_hand_oneshot_padded, llm_hand_sweep, llm_monitored_continuous,
        llm_traced_continuous, llm_tight_kv_continuous, llm_tight_kv_oneshot,
    )}


def main(names) -> int:
    import os
    os.environ["REPRO_SEED"] = SEED
    FIXTURES.mkdir(parents=True, exist_ok=True)
    if not COSTS_FILE.exists():
        freeze_costs()
    if not LLM_COSTS_FILE.exists():
        freeze_llm_costs()
    for name in names or SCENARIOS:
        path = FIXTURES / f"{name}.json"
        path.write_text(render(SCENARIOS[name]()))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
