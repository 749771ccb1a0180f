"""Serving-layer shape assertions + the BENCH_serving.json artifact.

Runs the ``serving_sweep`` grid (batch policy x fleet size x arrival
rate over BERT) and asserts the latency-throughput picture the TPU
paper's 99th-percentile-SLO argument predicts:

* past the saturation knee, p99 latency rises *superlinearly* in the
  offered rate (knee sharpness >> 1);
* larger fleets sustain strictly higher max throughput at a fixed SLO;
* dynamic batching outserves single-request serving at peak load;
* identical seeds give byte-identical sweep output, serial vs --jobs N.

The measured numbers land in ``BENCH_serving.json`` (at the repo root
under ``pytest --record``) so the serving-capacity trajectory is
visible across PRs.
"""

import json

BENCH_ARTIFACT = "BENCH_serving.json"
SLO_ATTAINMENT = 0.95


def _reports(cells, jobs):
    from repro.runtime import parallel_map
    from repro.serving import run_cell
    return [sim.report for sim in parallel_map(run_cell, cells, jobs=jobs)]


def _sweep():
    from repro.serving import ServiceCosts, default_grid
    costs = ServiceCosts.resolve(["bert"])
    cells = default_grid(costs=costs)
    return cells, _reports(cells, jobs=1)


def test_latency_throughput_knee_and_fleet_scaling(benchmark, bench_dir):
    from repro.serving import (
        by_config,
        knee_sharpness,
        max_throughput_at_slo,
        sweep_table,
    )
    cells, reports = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    ladders = by_config(reports)

    # p99 must rise superlinearly past saturation: latency growth
    # outpaces rate growth by a wide margin on every saturated ladder.
    knees = {}
    for fleet in (1, 2, 4):
        ladder = ladders[("dynamic", fleet)]
        assert ladder[-1].p99_ms > ladder[0].p99_ms, (
            f"fleet {fleet}: p99 did not rise with offered rate")
        knees[fleet] = knee_sharpness(ladder)
    assert knees[1] > 2.0, (
        f"1-device p99 growth is not superlinear (sharpness {knees[1]:.2f})")

    # Larger fleets sustain strictly higher max throughput at the SLO.
    capacity = {fleet: max_throughput_at_slo(ladders[("dynamic", fleet)],
                                             SLO_ATTAINMENT)
                for fleet in (1, 2, 4)}
    assert capacity[1] > 0
    assert capacity[2] > capacity[1], capacity
    assert capacity[4] > capacity[2], capacity

    # Dynamic batching must beat single-request serving once saturated.
    single_peak = ladders[("single", 1)][-1].throughput_rps
    dynamic_peak = ladders[("dynamic", 1)][-1].throughput_rps
    assert dynamic_peak > 1.2 * single_peak, (single_peak, dynamic_peak)

    # Determinism: a --jobs run must be byte-identical to the serial one.
    serial_table = sweep_table(reports)
    parallel_table = sweep_table(_reports(cells, jobs=2))
    assert parallel_table == serial_table

    (bench_dir / BENCH_ARTIFACT).write_text(json.dumps({
        "model": "bert",
        "grid": {
            "policies": sorted({r.batch_policy for r in reports}),
            "fleets": sorted({r.devices for r in reports}),
            "rates_rps": sorted({r.rate_rps for r in reports}),
        },
        "slo_attainment_bar": SLO_ATTAINMENT,
        "max_throughput_at_slo_rps": {
            str(fleet): round(capacity[fleet], 2) for fleet in capacity},
        "knee_sharpness_dynamic": {
            str(fleet): round(knees[fleet], 2) for fleet in knees},
        "single_device_peak_rps": {
            "single": round(single_peak, 2),
            "dynamic": round(dynamic_peak, 2),
        },
    }, indent=2) + "\n")


def test_serving_sweep_experiment_shapes(benchmark):
    """The registered harness experiment reports every shape as met."""
    from repro.harness import run_experiment
    experiment = benchmark.pedantic(run_experiment, args=("serving_sweep",),
                                    rounds=1, iterations=1)
    for metric, (expected, got) in experiment.summary.items():
        if expected is True:
            assert got is True, f"{metric}: expected True, measured {got}"
    rendered = experiment.render()
    assert "p99 (ms)" in rendered
    assert "SLO attain" in rendered
