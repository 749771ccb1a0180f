"""Resilience-under-faults shape assertions + BENCH_chaos.json.

One chaos sweep under a pinned seed: BERT on a 6-device fleet at
120 req/s for 20 s, with a 1 %/s-per-device *permanent* crash hazard
(the TPU-paper "dead machine" case). The shape the resilient serving
stack must deliver:

* at least one device actually crashes (the plan is not vacuous);
* the resilient policy (timeouts + retries + circuit breaker) retains
  >= 90 % of its own fault-free goodput;
* the naive policy — the pre-fault fleet — does not, because every
  request routed to a dead device is simply lost;
* the whole sweep is deterministic: serial and ``--jobs 2`` runs emit
  byte-identical reports.

The measured retentions land in ``BENCH_chaos.json`` (at the repo root
under ``pytest --record``, in the session's tmp dir otherwise) so the
resilience trajectory is visible across PRs.
"""

import json

BENCH_ARTIFACT = "BENCH_chaos.json"

#: The benchmark is a fixed scenario, not a property over all seeds:
#: pin the seed so the sampled crash schedule is reproducible.
SEED = "12345"
RETENTION_BAR = 0.90


def _plan():
    from repro.faults import CrashSpec, FaultPlan
    return FaultPlan(name="crash-1pct",
                     crash=CrashSpec(p_per_device_s=0.01, outage_s=None))


def _report(grid, jobs):
    from repro.faults import chaos_report
    from repro.runtime import parallel_map
    from repro.serving import run_cell
    sims = parallel_map(run_cell, [cell for _, cell in grid], jobs=jobs)
    return chaos_report(grid, [sim.report for sim in sims], _plan(), "bert")


def _sweep():
    from repro.faults import chaos_grid
    from repro.serving import ServiceCosts

    grid = chaos_grid(plan=_plan(), scales=(1.0,), model="bert",
                      devices=6, rate_rps=120.0, duration_s=20.0,
                      costs=ServiceCosts.resolve(["bert"]))
    return grid, _report(grid, jobs=1)


def test_resilient_policy_holds_goodput_under_crashes(benchmark,
                                                      monkeypatch, bench_dir):
    monkeypatch.setenv("REPRO_SEED", SEED)
    from repro.faults import validate_chaos_report
    from repro.schema import report_json

    grid, payload = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    assert validate_chaos_report(payload) == []

    faulted = {r["policy"]: r for r in payload["rows"]
               if r["fault_scale"] == 1.0}

    # The hazard actually fired: this is a real outage, not a no-op.
    crashes = faulted["resilient"]["faults"].get("device_crash", 0)
    assert crashes >= 1, "no device crashed; the scenario tests nothing"

    naive = faulted["naive"]["goodput_retention"]
    resilient = faulted["resilient"]["goodput_retention"]
    assert resilient >= RETENTION_BAR, (
        f"resilient policy retained only {resilient:.1%} of fault-free "
        f"goodput (bar: {RETENTION_BAR:.0%})")
    assert naive < RETENTION_BAR, (
        f"naive policy retained {naive:.1%} — the fault plan is too "
        f"gentle to discriminate policies")
    assert resilient > naive

    # The machinery that earns the retention actually engaged.
    assert faulted["resilient"]["retries"] >= 1
    assert faulted["resilient"]["devices_ejected"] >= 1
    assert faulted["naive"]["retries"] == 0

    # Determinism: --jobs must not change a byte of the report.
    assert report_json(_report(grid, jobs=2)) == report_json(payload)

    (bench_dir / BENCH_ARTIFACT).write_text(json.dumps({
        "model": "bert",
        "devices": 6,
        "rate_rps": 120.0,
        "duration_s": 20.0,
        "seed": int(SEED),
        "plan": payload["plan"]["name"],
        "device_crashes": crashes,
        "retention_bar": RETENTION_BAR,
        "goodput_retention": {
            "naive": round(naive, 4),
            "resilient": round(resilient, 4),
        },
        "resilient_retries": faulted["resilient"]["retries"],
        "resilient_ejects": faulted["resilient"]["devices_ejected"],
    }, indent=2) + "\n")
