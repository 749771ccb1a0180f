"""Continuous/one-shot LLM batching against hand-computed schedules.

Unit costs make every schedule checkable by hand: ``prefill_token_s =
decode_step_s = 1.0`` and ``amortized_fraction = 0.5``, so a decode
step over ``B`` slots costs ``0.5 + 0.5 * B`` and a ``P``-token prefill
costs ``P`` at batch 1.
"""

import pytest

from repro.llm import (
    llm_grid,
    llm_report,
    llm_report_json,
    run_llm_sweep,
    validate_llm_report,
)
from repro.serving import (
    ContinuousBatcher,
    LLMRequest,
    LLMServiceCosts,
    OneShotBatcher,
    llm_poisson_requests,
    make_llm_batcher,
)
from repro.runtime import KnobError, knobs


def hand_costs(kv_budget=100):
    return LLMServiceCosts(config="hand", prefill_token_s=1.0,
                           decode_step_s=1.0, kv_budget_tokens=kv_budget,
                           amortized_fraction=0.5, slo_multiplier=5.0)


def test_batched_step_formula():
    costs = hand_costs()
    assert costs.batched_s(1.0, 1) == 1.0        # B=1 is isolated latency
    assert costs.batched_s(1.0, 2) == 1.5
    assert costs.batched_s(1.0, 4) == 2.5
    assert costs.prefill_s(4) == 4.0
    assert costs.ideal_latency_s(LLMRequest(0, 0.0, 2, 3)) == 5.0
    assert costs.slo_s(LLMRequest(0, 0.0, 2, 3)) == 25.0


def test_continuous_join_mid_batch():
    """r1 joins at a step boundary; its prefill stalls r0 (join cost)."""
    costs = hand_costs()
    r0 = LLMRequest(0, 0.0, 2, 4)
    r1 = LLMRequest(1, 2.5, 2, 2)
    batcher = ContinuousBatcher(costs, max_slots=4, collect_trace=True)
    report = batcher.run([r0, r1], duration_s=0.0)
    # Schedule: prefill r0 [0,2], step x1 [2,3], prefill r1 [3,5],
    # step x2 [5,6.5], step x2 [6.5,8] (r1 leaves), step x1 [8,9].
    assert report.completed == 2
    assert report.rejected == 0
    assert report.makespan_s == 9.0
    assert report.mean_batch_size == pytest.approx(1.5)   # [1, 2, 2, 1]
    assert report.kv_peak_tokens == 10                    # 6 + 4 reserved
    steps = [e for e in batcher.trace_log if e["kind"] == "step"]
    assert [s["batch"] for s in steps] == [1, 2, 2, 1]
    completes = {e["rid"]: e["t_s"] for e in batcher.trace_log
                 if e["kind"] == "complete"}
    assert completes == {0: 9.0, 1: 8.0}
    # TTFT: r0's first token lands at 3.0; r1 joins at 3.0, prefills
    # until 5.0 and gets its first token at 6.5 (arrival 2.5 -> 4.0).
    assert report.ttft_p99_ms == pytest.approx(4000.0)
    assert report.ttft_p50_ms == pytest.approx(3000.0)
    # r0's second inter-token gap absorbs r1's 2-second prefill stall.
    assert report.itl_p99_ms == pytest.approx(3500.0)


def test_continuous_kv_admission_blocks_head_of_line():
    """r1 fits a slot but not the KV budget until r0 retires."""
    costs = hand_costs(kv_budget=10)
    r0 = LLMRequest(0, 0.0, 4, 2)    # footprint 6
    r1 = LLMRequest(1, 0.1, 4, 2)    # footprint 6: 12 > 10 with r0 live
    batcher = ContinuousBatcher(costs, max_slots=4, collect_trace=True)
    report = batcher.run([r0, r1], duration_s=0.0)
    # r0: prefill [0,4], steps [4,5], [5,6] -> done, KV released.
    # r1 only then admits: prefill [6,10], steps [10,11], [11,12].
    assert report.completed == 2
    assert report.makespan_s == 12.0
    assert report.kv_peak_tokens == 6      # never co-resident
    steps = [e for e in batcher.trace_log if e["kind"] == "step"]
    assert [s["batch"] for s in steps] == [1, 1, 1, 1]
    prefills = [e for e in batcher.trace_log if e["kind"] == "prefill"]
    assert [p["start_s"] for p in prefills] == [0.0, 6.0]


def test_continuous_rejects_oversized_request():
    """A footprint beyond the whole budget can never run."""
    costs = hand_costs(kv_budget=10)
    giant = LLMRequest(0, 0.0, 8, 4)     # footprint 12 > 10
    ok = LLMRequest(1, 0.0, 2, 2)
    batcher = ContinuousBatcher(costs, max_slots=4, collect_trace=True)
    report = batcher.run([giant, ok], duration_s=0.0)
    assert report.rejected == 1
    assert report.completed == 1
    assert report.offered == 2
    rejects = [e for e in batcher.trace_log if e["kind"] == "reject"]
    assert [e["rid"] for e in rejects] == [0]


def test_oneshot_pads_to_longest_member():
    """Everyone waits for the padded batch to retire."""
    costs = hand_costs()
    r0 = LLMRequest(0, 0.0, 2, 2)
    r1 = LLMRequest(1, 0.5, 4, 3)
    batcher = OneShotBatcher(costs, max_slots=4, max_wait_s=1.0,
                             collect_trace=True)
    report = batcher.run([r0, r1], duration_s=0.0)
    # start = 1.0; padded prompt 4, padded output 3, batch 2:
    # prefill = 4 * 1.5 = 6, three steps of 1.5 -> finish 11.5.
    assert report.completed == 2
    assert report.makespan_s == 11.5
    assert report.mean_batch_size == pytest.approx(2.0)
    assert report.kv_peak_tokens == 14     # 2 * (4 + 3), padded
    completes = [e for e in batcher.trace_log if e["kind"] == "complete"]
    assert {e["t_s"] for e in completes} == {11.5}
    # r0 (2 own tokens) still waits for r1's third: latency 11.5 vs
    # the 4.0 it would take isolated.
    assert report.p99_ms == pytest.approx(11500.0)
    assert report.ttft_p99_ms == pytest.approx(8500.0)   # r0: 1+6+1.5


def test_make_llm_batcher_registry():
    costs = hand_costs()
    assert isinstance(make_llm_batcher("continuous", costs),
                      ContinuousBatcher)
    assert isinstance(make_llm_batcher("oneshot", costs), OneShotBatcher)
    with pytest.raises(ValueError):
        make_llm_batcher("paged", costs)


def test_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_LLM_KV_BUDGET", "77")
    monkeypatch.setenv("REPRO_LLM_MAX_SLOTS", "3")
    assert knobs.get("REPRO_LLM_KV_BUDGET") == 77
    assert ContinuousBatcher(hand_costs()).max_slots == 3
    assert OneShotBatcher(hand_costs()).max_slots == 3
    monkeypatch.setenv("REPRO_LLM_MAX_SLOTS", "")
    assert ContinuousBatcher(hand_costs()).max_slots == 8
    monkeypatch.setenv("REPRO_LLM_KV_BUDGET", "junk")
    with pytest.raises(KnobError, match="REPRO_LLM_KV_BUDGET"):
        knobs.get("REPRO_LLM_KV_BUDGET")
    monkeypatch.setenv("REPRO_LLM_MAX_SLOTS", "-3")
    with pytest.raises(KnobError, match="REPRO_LLM_MAX_SLOTS"):
        ContinuousBatcher(hand_costs())


def test_poisson_workload_deterministic(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "4242")
    a = llm_poisson_requests(50.0, 2.0)
    b = llm_poisson_requests(50.0, 2.0)
    assert a == b
    assert all(r.arrival_s < 2.0 for r in a)
    assert all(8 <= r.prompt_tokens <= 64 for r in a)
    assert all(4 <= r.output_tokens <= 64 for r in a)


def test_sweep_serial_matches_jobs(monkeypatch):
    """Serial and --jobs 2 sweeps serialize to identical bytes."""
    monkeypatch.setenv("REPRO_SEED", "777")
    costs = hand_costs(kv_budget=400)
    points = llm_grid(costs=costs, rates=(20.0, 40.0), duration_s=1.0,
                      max_slots=4)
    serial = llm_report(points, run_llm_sweep(points, jobs=1))
    fanned = llm_report(points, run_llm_sweep(points, jobs=2))
    assert llm_report_json(serial) == llm_report_json(fanned)
    assert validate_llm_report(serial) == []


def test_sweep_report_summary_compares_schedulers(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "777")
    costs = hand_costs(kv_budget=400)
    points = llm_grid(costs=costs, rates=(5.0,), duration_s=1.0,
                      max_slots=4)
    payload = llm_report(points, run_llm_sweep(points))
    assert set(payload["summary"]) == {"oneshot", "continuous",
                                       "continuous_beats_oneshot"}
    assert payload["schema"] == "repro-llm-report-v1"
    assert len(payload["rows"]) == 2


def test_validate_llm_report_catches_problems(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "777")
    costs = hand_costs(kv_budget=400)
    points = llm_grid(costs=costs, rates=(5.0,), duration_s=1.0,
                      max_slots=4)
    payload = llm_report(points, run_llm_sweep(points))
    assert validate_llm_report(payload) == []
    assert validate_llm_report([]) != []
    assert validate_llm_report({**payload, "schema": "nope"}) != []
    broken_rows = [dict(payload["rows"][0]), dict(payload["rows"][1])]
    del broken_rows[0]["goodput_rps"]
    assert validate_llm_report({**payload, "rows": broken_rows}) != []
