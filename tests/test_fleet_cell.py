"""One sweep cell: every fleet sweep is a list of cells run by ``run_cell``.

Each sweep below is a grid some part of the repository runs: the
``serving_sweep`` policy x fleet x rate grid, a chaos policy x
fault-scale grid, the LLM scheduler x rate grid, diurnal days with and
without autoscaling, and monitored points.  Every one must serialize to
the same bytes serially and under ``jobs=2``.
"""

import json
import pickle
from functools import partial

import pytest

from repro.faults import (
    CorruptSpec,
    CrashSpec,
    FaultPlan,
    FlakyCompileSpec,
    TileFaultSpec,
    chaos_grid,
    chaos_report,
)
from repro.llm import llm_grid, llm_report, validate_llm_report
from repro.runtime import parallel_map
from repro.schema import report_json
from repro.serving import (
    AutoscaleConfig,
    DiurnalTrace,
    FleetCell,
    LLMServiceCosts,
    MonitorConfig,
    MonitorPoint,
    OpenLoopPoisson,
    ResiliencePolicy,
    ScaledFleetSimulator,
    ServiceCosts,
    default_grid,
    run_cell,
    run_monitor_point,
    sweep_table,
)
from repro.telemetry import scoped_telemetry
from tests.fleet_golden import toy_costs

TWO = ("a", "b")


def _reports(cells, jobs):
    return [sim.report for sim in parallel_map(run_cell, cells, jobs=jobs)]


def serving_sweep(jobs):
    cells = default_grid(model="m", fleets=(1, 2), rates=(100.0, 400.0),
                         duration_s=0.5,
                         costs=toy_costs(latency_s=0.002, compile_s=0.0))
    table = sweep_table(_reports(cells, jobs))
    assert "p99 (ms)" in table
    return table


def chaos_sweep(jobs):
    plan = FaultPlan(name="small",
                     crash=CrashSpec(p_per_device_s=0.05),
                     tile_fault=TileFaultSpec(p_per_batch=0.2),
                     corrupt=CorruptSpec(p_per_download=0.5))
    grid = chaos_grid(plan=plan, scales=(1.0,), model="m", devices=2,
                      rate_rps=300.0, duration_s=1.0,
                      costs=toy_costs(latency_s=0.004, compile_s=0.002))
    reports = _reports([cell for _, cell in grid], jobs)
    return report_json(chaos_report(grid, reports, plan, "m"))


def llm_sweep(jobs):
    costs = LLMServiceCosts(config="hand", prefill_token_s=1.0,
                            decode_step_s=1.0, kv_budget_tokens=400,
                            amortized_fraction=0.5, slo_multiplier=5.0)
    cells = llm_grid(costs=costs, rates=(20.0, 40.0), duration_s=1.0,
                     max_slots=4)
    payload = llm_report(_reports(cells, jobs))
    assert validate_llm_report(payload) == []
    return report_json(payload)


def scale_days(jobs):
    cells = [FleetCell(
                 sim=dict(costs=toy_costs(models=TWO), devices=8, cells=4,
                          routing="round_robin",
                          autoscale=AutoscaleConfig() if i % 2 else None),
                 workload=partial(DiurnalTrace, TWO, 1500.0, 1.0,
                                  trough_fraction=0.25, stream=i),
                 rate_rps=1500.0)
             for i in range(4)]
    return json.dumps([sim.payload for sim in
                       parallel_map(run_cell, cells, jobs=jobs)],
                      sort_keys=True)


def monitor_points(jobs):
    points = [MonitorPoint(costs=ServiceCosts.resolve(["bert"]),
                           models=("bert",), devices=4, rate_rps=80.0,
                           duration_s=5.0, stream=stream)
              for stream in (0, 1, 2)]
    return json.dumps(parallel_map(run_monitor_point, points, jobs=jobs),
                      sort_keys=True)


SWEEPS = {"serving": (serving_sweep, None), "chaos": (chaos_sweep, None),
          "llm": (llm_sweep, "777"), "scale": (scale_days, None),
          "monitor": (monitor_points, None)}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweeps_serial_and_jobs_are_byte_identical(name, monkeypatch):
    sweep, seed = SWEEPS[name]
    if seed is not None:
        monkeypatch.setenv("REPRO_SEED", seed)
    serial = sweep(jobs=1)
    with scoped_telemetry() as tel:
        assert serial == sweep(jobs=2)
    # A process pool really ran the jobs=2 sweep.
    assert "parallel.serial_fallback" not in tel.snapshot()["counters"]


#: A workload recipe pickle cannot look up by name.
LAMBDA_RECIPE = lambda: OpenLoopPoisson(("m",), 100.0, 0.5)  # noqa: E731


def test_an_unpicklable_cell_raises_under_jobs():
    cells = [FleetCell(sim=dict(costs=toy_costs(), devices=devices),
                       workload=LAMBDA_RECIPE, rate_rps=100.0)
             for devices in (1, 2)]
    assert len(parallel_map(run_cell, cells, jobs=1)) == 2
    with pytest.raises(pickle.PicklingError):
        parallel_map(run_cell, cells, jobs=2)


def test_run_cell_matches_a_directly_built_simulator():
    plan = FaultPlan(name="cell",
                     crash=CrashSpec(p_per_device_s=0.2, outage_s=0.5),
                     tile_fault=TileFaultSpec(p_per_batch=0.05, tiles=2),
                     flaky_compile=FlakyCompileSpec(p=0.2))
    kwargs = dict(costs=toy_costs(models=TWO, tiles=2), devices=8, cells=4,
                  fault_plan=plan, resilience=ResiliencePolicy(),
                  monitor_config=MonitorConfig(interval_s=0.1),
                  autoscale=AutoscaleConfig(interval_s=0.1),
                  collect_trace=True)
    cell = FleetCell(sim=kwargs,
                     workload=partial(DiurnalTrace, TWO, 1500.0, 2.0,
                                      stream=3),
                     rate_rps=1500.0)
    # The cell and the simulator it returns both cross a process
    # boundary intact.
    sim = pickle.loads(pickle.dumps(run_cell(
        pickle.loads(pickle.dumps(cell)))))
    direct = ScaledFleetSimulator(**kwargs)
    report = direct.run(DiurnalTrace(TWO, 1500.0, 2.0, stream=3),
                        rate_rps=1500.0)
    assert sim.report.to_json() == report.to_json()
    assert sim.payload == direct.payload
    assert sim.monitor_payload == direct.monitor_payload
    assert sim.trace_log == direct.trace_log
    # Every layer was active on the run.
    assert report.faults.get("device_crash", 0) > 0
    assert direct.payload["autoscale_events"]
    assert direct.monitor_payload["intervals"] > 0
