"""Fleet-core event rate + autoscale economics → BENCH_fleet_scale.json.

Three pinned claims on one seeded 1000-device diurnal day:

* **event rate** — the fleet core
  (:class:`repro.serving.scale.ScaledFleetSimulator`) must simulate at
  least ``EVENT_RATE_FLOOR_RPS`` requests per wall-second on a
  1000-device fleet in 125 cells under ``least_loaded`` routing (best
  of three runs).  The floor is half the rate recorded when the core
  was pinned (253k req/s on a 2-vCPU x86 VM), so a noisy host passes
  and an algorithmic regression does not.
* **determinism** — scale points are byte-identical between serial and
  ``--jobs 2`` runs.
* **autoscale economics** — on a 64-device diurnal day, the autoscaled
  fleet's tail-latency-bounded throughput per dollar is strictly better
  than the same fleet kept statically at peak size, with p99 still
  inside the tightest SLO.

Wall-clock rates land only in ``BENCH_fleet_scale.json`` (at the repo
root under ``pytest --record``; never in the deterministic
``repro-fleet-scale-report-v1`` payloads).
"""

import json
import time
from functools import partial

BENCH_ARTIFACT = "BENCH_fleet_scale.json"

#: Pinned scenario seed (a fixed trace, not a property over all seeds).
SEED = "12345"
EVENT_RATE_FLOOR_RPS = 126_696.0
DEVICES = 1000
CELLS = 125
PEAK_RPS = 4000.0
DURATION_S = 20.0


def _day(duration_s, peak_rps=PEAK_RPS):
    from repro.serving import DiurnalTrace
    return DiurnalTrace(("bert", "resnet50"), peak_rps, duration_s,
                        trough_fraction=0.2)


def test_event_rate_and_determinism(benchmark, monkeypatch, bench_dir):
    monkeypatch.setenv("REPRO_SEED", SEED)
    from repro.runtime import parallel_map
    from repro.serving import (
        AutoscaleConfig,
        DiurnalTrace,
        FleetCell,
        ScaledFleetSimulator,
        ServiceCosts,
        run_cell,
        validate_fleet_scale_report,
    )

    costs = ServiceCosts.resolve(["bert", "resnet50"])
    models = ("bert", "resnet50")

    # -- 1000-device diurnal day through the fleet core ----------------
    trace = _day(DURATION_S)
    requests = len(trace.arrivals().times)
    sim = ScaledFleetSimulator(costs, devices=DEVICES, cells=CELLS,
                               routing="least_loaded")
    report = benchmark.pedantic(lambda: sim.run(trace, rate_rps=PEAK_RPS),
                                rounds=1, iterations=1)
    assert report.completed == requests
    assert validate_fleet_scale_report(sim.payload) == []
    events = sim.payload["sim"]["events"]
    # The pedantic round paid the cold start; keep the best of three.
    rate = 0.0
    for _ in range(3):
        start = time.perf_counter()
        sim.run(trace, rate_rps=PEAK_RPS)
        rate = max(rate, requests / (time.perf_counter() - start))
    assert rate >= EVENT_RATE_FLOOR_RPS, (
        f"fleet core {rate:,.0f} req/s below the floor "
        f"{EVENT_RATE_FLOOR_RPS:,.0f} req/s")

    # -- serial vs --jobs, byte for byte --------------------------------
    cells = [FleetCell(
                 sim=dict(costs=costs, devices=32, cells=4,
                          routing="round_robin",
                          autoscale=AutoscaleConfig() if i % 2 else None),
                 workload=partial(DiurnalTrace, models, 800.0, 2.0,
                                  trough_fraction=0.25, stream=i),
                 rate_rps=800.0)
             for i in range(4)]
    serial = [sim.payload for sim in parallel_map(run_cell, cells, jobs=1)]
    forked = [sim.payload for sim in parallel_map(run_cell, cells, jobs=2)]
    jobs_identical = (json.dumps(serial, sort_keys=True)
                      == json.dumps(forked, sort_keys=True))
    assert jobs_identical

    # -- autoscale economics on a 64-device day -------------------------
    day = _day(8.0, peak_rps=2400.0)
    static_sim = ScaledFleetSimulator(costs, devices=64, cells=8,
                                      routing="round_robin")
    static = static_sim.run(day, rate_rps=2400.0)
    auto_sim = ScaledFleetSimulator(
        costs, devices=64, cells=8, routing="round_robin",
        autoscale=AutoscaleConfig(interval_s=0.1, min_cells=2,
                                  cooldown_s=1.0, queue_high=1.0,
                                  queue_low=0.2))
    auto = auto_sim.run(day, rate_rps=2400.0)
    static_pay, auto_pay = static_sim.payload, auto_sim.payload
    auto_per_dollar = auto_pay["slo"]["bounded_throughput_per_dollar"]
    static_per_dollar = static_pay["slo"]["bounded_throughput_per_dollar"]
    assert auto_per_dollar > static_per_dollar, (
        f"autoscaled {auto_per_dollar:.0f}/$ not better than static "
        f"{static_per_dollar:.0f}/$")
    assert auto.p99_ms <= min(auto.slo_ms.values())
    assert auto_pay["autoscale_events"], "the day provoked no scaling"

    (bench_dir / BENCH_ARTIFACT).write_text(json.dumps({
        "devices": DEVICES,
        "cells": CELLS,
        "model": "bert+resnet50",
        "peak_rps": PEAK_RPS,
        "duration_s": DURATION_S,
        "trough_fraction": 0.2,
        "routing": "least_loaded",
        "seed": int(SEED),
        "requests": requests,
        "events": events,
        "event_rate_rps": round(rate, 1),
        "event_rate_floor_rps": EVENT_RATE_FLOOR_RPS,
        "serial_vs_jobs_identical": jobs_identical,
        "autoscale": {
            "devices": 64,
            "cells": 8,
            "peak_rps": 2400.0,
            "duration_s": 8.0,
            "static_dollars": round(static_pay["cost"]["dollars"], 4),
            "autoscaled_dollars": round(auto_pay["cost"]["dollars"], 4),
            "savings_fraction": round(
                auto_pay["cost"]["savings_fraction"], 4),
            "static_bounded_per_dollar": round(static_per_dollar, 1),
            "autoscaled_bounded_per_dollar": round(auto_per_dollar, 1),
            "static_p99_ms": round(static.p99_ms, 3),
            "autoscaled_p99_ms": round(auto.p99_ms, 3),
            "scale_events": len(auto_pay["autoscale_events"]),
        },
    }, indent=2) + "\n")


def test_fleet_scale_experiment_shapes(benchmark):
    """The registered harness experiment reports every shape as met."""
    from repro.harness import run_experiment
    experiment = benchmark.pedantic(run_experiment, args=("fleet_scale",),
                                    rounds=1, iterations=1)
    for metric, (expected, got) in experiment.summary.items():
        if expected is True:
            assert got is True, f"{metric}: expected True, measured {got}"
    slo_ms, p99_ms = experiment.summary["autoscaled_p99_within_slo_ms"]
    assert 0.0 < p99_ms <= slo_ms
    rendered = experiment.render()
    assert "bounded" in rendered
    assert "scale-out" in rendered or "scale-outs" in rendered
