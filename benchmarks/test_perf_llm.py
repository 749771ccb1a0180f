"""LLM serving shape assertions + BENCH_llm_serving.json.

One continuous-vs-one-shot batching sweep under a pinned seed, over the
``gpt2_rms`` decode-step costs measured on the NPU cycle model. The
shape the serving layer must deliver:

* both schedulers reach >= 95 % SLO attainment at some offered rate
  (the comparison is not vacuous);
* continuous batching sustains *strictly* more goodput (req/s within
  SLO) than one-shot dynamic batching at that attainment bar — the
  continuous-batching headline;
* continuous TTFT at light load is no worse than one-shot's (joining a
  running batch beats waiting for a padded batch to retire);
* the whole sweep is deterministic: serial and ``--jobs 2`` runs emit
  byte-identical reports.

The measured goodputs and latency percentiles land in
``BENCH_llm_serving.json`` (at the repo root under ``pytest --record``)
so the serving trajectory is visible across PRs.
"""

import json

BENCH_ARTIFACT = "BENCH_llm_serving.json"

#: A fixed scenario, not a property over all seeds: pin the seed so the
#: sampled arrival process is reproducible.
SEED = "12345"
ATTAINMENT_BAR = 0.95


def _reports(cells, jobs):
    from repro.runtime import parallel_map
    from repro.serving import run_cell
    return [sim.report for sim in parallel_map(run_cell, cells, jobs=jobs)]


def _sweep():
    from repro.llm import llm_grid, llm_report
    from repro.serving import LLMServiceCosts

    costs = LLMServiceCosts.resolve("gpt2_rms")
    cells = llm_grid(costs=costs, duration_s=5.0)
    return costs, cells, _reports(cells, jobs=1), llm_report


def test_continuous_batching_beats_oneshot_at_slo(benchmark, monkeypatch,
                                                  bench_dir):
    monkeypatch.setenv("REPRO_SEED", SEED)
    from repro.llm import goodput_at_slo, validate_llm_report
    from repro.schema import report_json

    costs, cells, reports, llm_report = benchmark.pedantic(
        _sweep, rounds=1, iterations=1)
    payload = llm_report(reports)
    assert validate_llm_report(payload) == []

    rows = payload["rows"]
    by_sched = {s: [r for r in rows if r["scheduler"] == s]
                for s in ("oneshot", "continuous")}
    oneshot = goodput_at_slo(by_sched["oneshot"], ATTAINMENT_BAR)
    continuous = goodput_at_slo(by_sched["continuous"], ATTAINMENT_BAR)

    # Neither scheduler is degenerate at the bar...
    assert oneshot > 0, (
        "one-shot never reached the attainment bar; the rate ladder "
        "starts too high to make a fair comparison")
    assert continuous > 0
    # ...and continuous batching is strictly better. This is the
    # headline the subsystem exists to reproduce.
    assert continuous > oneshot, (
        f"continuous batching sustained {continuous:.2f} req/s at "
        f">={ATTAINMENT_BAR:.0%} SLO vs one-shot's {oneshot:.2f}")
    assert payload["summary"]["continuous_beats_oneshot"]

    # At the lightest load, joining a running batch must not cost more
    # first-token latency than waiting out a padded one-shot batch.
    min_rate = min(r["rate_rps"] for r in rows)
    light = {r["scheduler"]: r for r in rows if r["rate_rps"] == min_rate}
    assert light["continuous"]["ttft_p95_ms"] <= \
        light["oneshot"]["ttft_p95_ms"]

    # Determinism: --jobs must not change a byte of the report.
    forked = llm_report(_reports(cells, jobs=2))
    assert report_json(forked) == report_json(payload)

    (bench_dir / BENCH_ARTIFACT).write_text(json.dumps({
        "config": "gpt2_rms",
        "seed": int(SEED),
        "duration_s": 5.0,
        "max_slots": payload["max_slots"],
        "kv_budget_tokens": payload["kv_budget_tokens"],
        "slo_multiplier": payload["slo_multiplier"],
        "attainment_bar": ATTAINMENT_BAR,
        "prefill_token_us": round(costs.prefill_token_s * 1e6, 3),
        "decode_step_us": round(costs.decode_step_s * 1e6, 3),
        "goodput_at_slo_rps": {
            "oneshot": round(oneshot, 2),
            "continuous": round(continuous, 2),
        },
        "speedup": round(continuous / oneshot, 3),
        "light_load": {
            "rate_rps": min_rate,
            "ttft_p95_ms": {
                "oneshot": round(light["oneshot"]["ttft_p95_ms"], 3),
                "continuous": round(light["continuous"]["ttft_p95_ms"], 3),
            },
            "itl_p95_ms": {
                "oneshot": round(light["oneshot"]["itl_p95_ms"], 3),
                "continuous": round(light["continuous"]["itl_p95_ms"], 3),
            },
        },
    }, indent=2) + "\n")
