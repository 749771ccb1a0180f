"""Unified telemetry: counters, spans, exporters, determinism.

Covers the contract layer by layer: the registry/tracer primitives, the
off-by-default discipline, counter parity between the fast and scalar
machine paths, reconciliation of the ``npu.*`` counters against the
analytic model, cache/serving instrumentation, trace-event schema
validation, and byte-identical counter dumps + span trees across
identical runs (serial and ``--jobs 2``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.models import build_model
from repro.npu import FunctionalRunner, NPUTandem
from repro.runtime import EvalCache
from repro.simulator import estimate
from repro.telemetry import (
    CounterRegistry,
    Telemetry,
    get_telemetry,
    scoped_telemetry,
    set_telemetry,
    span_tree,
)
from repro.telemetry.counters import format_counters
from repro.telemetry.export import (
    chrome_trace,
    serving_trace_events,
    tile_timeline_events,
    validate_trace,
    validate_trace_file,
    write_trace,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Counter registry
# ---------------------------------------------------------------------------
def test_counter_registry_basics():
    reg = CounterRegistry()
    reg.add("a.b", 2)
    reg.add("a.b")
    reg.add("z", 0.5)
    assert reg.get("a.b") == 3
    assert isinstance(reg.get("a.b"), int)
    assert reg.get("missing") == 0
    assert "a.b" in reg and "missing" not in reg
    assert len(reg) == 2
    assert list(reg.as_dict()) == ["a.b", "z"]  # sorted


def test_counter_registry_rejects_negative_increments():
    reg = CounterRegistry()
    with pytest.raises(ValueError):
        reg.add("x", -1)


def test_counter_registry_merge_and_clear():
    a, b = CounterRegistry(), CounterRegistry()
    a.add("n", 1)
    b.add("n", 2)
    b.add("m", 5)
    a.merge(b.as_dict())
    assert a.as_dict() == {"m": 5, "n": 3}
    a.clear()
    assert len(a) == 0


def test_format_counters_table():
    text = format_counters({"cycles": 12, "util": 0.5}, title="t")
    assert "t" in text and "cycles" in text and "12" in text and "0.5" in text
    assert format_counters({}) == "(no counters)"


# ---------------------------------------------------------------------------
# Spans + sessions
# ---------------------------------------------------------------------------
def test_span_nesting_depth_and_seq():
    tel = Telemetry(enabled=True, label="t")
    with tel.span("outer"):
        with tel.span("inner", cat="x", k=1):
            pass
        with tel.span("inner2"):
            pass
    snap = tel.snapshot()
    by_name = {s["name"]: s for s in snap["spans"]}
    assert by_name["outer"]["depth"] == 1
    assert by_name["inner"]["depth"] == 2
    assert by_name["inner"]["args"] == {"k": 1}
    # Begin order: outer entered first.
    assert by_name["outer"]["seq"] < by_name["inner"]["seq"] \
        < by_name["inner2"]["seq"]
    tree = span_tree([snap])
    assert tree.splitlines() == [
        "[t]", "  outer", '    inner {"k": 1}', "    inner2"]


def test_disabled_telemetry_is_a_noop():
    tel = Telemetry(enabled=False)
    tel.count("x", 5)
    with tel.span("nothing"):
        pass
    snap = tel.snapshot()
    assert snap["counters"] == {} and snap["spans"] == []


def test_scoped_telemetry_installs_and_restores():
    outer = get_telemetry()
    with scoped_telemetry() as tel:
        assert get_telemetry() is tel
        assert tel.enabled
        get_telemetry().count("k")
        assert tel.counters.get("k") == 1
    assert get_telemetry() is outer


def test_env_var_controls_default_session(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    set_telemetry(None)
    try:
        assert get_telemetry().enabled
    finally:
        set_telemetry(None)
    monkeypatch.delenv("REPRO_TELEMETRY")
    set_telemetry(None)
    try:
        assert not get_telemetry().enabled
    finally:
        set_telemetry(None)


# ---------------------------------------------------------------------------
# Simulator counters: fast path == scalar path
# ---------------------------------------------------------------------------
def _machine_counters(fast):
    import numpy as np
    from repro.compiler import compile_model
    graph = build_model("tinynet")
    model = compile_model(graph)
    name = graph.graph_inputs[0]
    shape = graph.tensors[name].shape
    with scoped_telemetry() as tel:
        runner = FunctionalRunner(model, fast=fast)
        runner.run({name: np.zeros(shape, dtype=np.int64)})
        return tel.counters.as_dict()


def test_machine_counters_identical_between_fast_and_scalar():
    slow = _machine_counters(fast=False)
    fast = _machine_counters(fast=True)
    assert slow == fast
    assert slow.get("sim.insts.decoded", 0) > 0
    assert slow.get("sim.code_repeater.replays", 0) > \
        slow.get("sim.code_repeater.fetches", 0)
    assert any(name.startswith("sim.spad.") for name in slow)
    assert any(name.startswith("sim.alu.ops.") for name in slow)
    assert slow.get("sim.iter_table.reads", 0) > 0
    assert slow.get("sim.iter_table.writes", 0) > 0
    assert slow.get("sim.dae.loads", 0) > 0
    assert slow.get("sim.dae.bytes_loaded", 0) > 0
    assert slow.get("sim.cycles.total", 0) > 0
    # Per program run: overlap = min(compute, dae) and the stalls are the
    # one-sided differences, so summed over runs the identities
    # overlap + dae_stall = dae and overlap + compute_stall = compute hold.
    compute = (slow["sim.cycles.compute"] + slow["sim.cycles.config"]
               + slow["sim.cycles.permute"])
    overlap = slow["sim.dae.overlap_cycles"]
    assert overlap + slow.get("sim.stall.dae_bound_cycles", 0) == \
        slow["sim.cycles.dae"]
    assert overlap + slow.get("sim.stall.compute_bound_cycles", 0) == compute


# ---------------------------------------------------------------------------
# NPU counters reconcile with the analytic estimator
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model_name", ["tinynet", "mobilenetv2"])
def test_npu_tandem_busy_counter_matches_estimate(model_name):
    npu = NPUTandem()
    model = npu.compile(model_name)
    with scoped_telemetry() as tel:
        result = npu.evaluate(model)
    counters = tel.counters.as_dict()
    analytic = sum(
        estimate(cb.tile.meta, model.sim_params).pipelined_cycles * cb.tiles
        for cb in model.blocks if cb.tile is not None)
    counter_busy = counters["npu.tandem.busy_cycles"]
    assert counter_busy == pytest.approx(analytic, rel=0.01)
    assert counters["npu.total_cycles"] > 0
    assert (counters["npu.gemm.busy_cycles"]
            + counters["npu.gemm.idle_cycles"]
            == counters["npu.total_cycles"])
    # And the RunResult utilization agrees with the counter ratio.
    assert result.nongemm_utilization == pytest.approx(
        counter_busy / counters["npu.total_cycles"], rel=1e-9)


# ---------------------------------------------------------------------------
# Cache counters
# ---------------------------------------------------------------------------
def test_cache_counters(tmp_path):
    cache = EvalCache(directory=tmp_path / "c")
    with scoped_telemetry() as tel:
        assert cache.get("results", "k1") is None          # miss
        cache.put("results", "k1", {"v": 1})               # store + bytes
        assert cache.get("results", "k1") == {"v": 1}      # memory hit
        cache._memory.clear()
        assert cache.get("results", "k1") == {"v": 1}      # disk hit
    counters = tel.counters.as_dict()
    assert counters["cache.results.misses"] == 1
    assert counters["cache.results.stores"] == 1
    assert counters["cache.results.hits"] == 2
    assert counters["cache.results.bytes_written"] > 0
    assert counters["cache.results.bytes_read"] > 0


# ---------------------------------------------------------------------------
# Serving counters + trace log
# ---------------------------------------------------------------------------
def _run_fleet(collect_trace=True):
    from repro.serving import (
        BatchPolicy,
        FleetSimulator,
        OpenLoopPoisson,
        ServiceCosts,
    )
    costs = ServiceCosts.resolve(["tinynet"])
    workload = OpenLoopPoisson(["tinynet"], 200.0, 0.5)
    sim = FleetSimulator(costs, devices=2, batch_policy=BatchPolicy(),
                         collect_trace=collect_trace)
    report = sim.run(workload, rate_rps=200.0)
    return sim, report


def test_serving_counters_match_report():
    with scoped_telemetry() as tel:
        sim, report = _run_fleet()
    counters = tel.counters.as_dict()
    assert counters["serving.requests.offered"] == report.offered
    assert counters["serving.requests.completed"] == report.completed
    assert counters["serving.requests.rejected"] == report.rejected
    assert counters["serving.compiles"] == report.compiles
    assert counters["serving.batches.requests"] == report.completed
    batches = counters["serving.batches.launched"]
    assert report.compile_cache_hit_rate == pytest.approx(
        1.0 - report.compiles / batches)
    assert len(report.per_device_utilization) == 2
    assert "per-device utilization" in report.table()
    assert "compile-cache hit rate" in report.table()
    assert "compile_cache_hit_rate" in report.as_dict()


def test_serving_trace_log_exports_valid_events():
    sim, report = _run_fleet()
    assert sim.trace_log, "collect_trace must populate the lifecycle log"
    assert all(e["kind"] in ("batch", "queue-reject", "verify-reject")
               for e in sim.trace_log)
    events = serving_trace_events(sim.trace_log)
    payload = chrome_trace([], device_events=events)
    assert validate_trace(payload) == []
    batches = [e for e in events if e["ph"] == "X"]
    assert len(batches) == len([e for e in sim.trace_log
                                if e["kind"] == "batch"])


def test_serving_trace_log_off_by_default():
    sim, _ = _run_fleet(collect_trace=False)
    assert sim.trace_log == []


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def test_chrome_trace_merges_snapshots_and_counters():
    a, b = Telemetry(enabled=True, label="a"), Telemetry(enabled=True,
                                                         label="b")
    with a.span("work"):
        a.count("n", 1)
    with b.span("work"):
        b.count("n", 2)
    payload = chrome_trace([a.snapshot(), b.snapshot()])
    assert validate_trace(payload) == []
    pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
    assert pids == {0, 1}
    assert payload["otherData"]["counters"] == {"n": 3}
    assert payload["otherData"]["spanTree"].splitlines() == [
        "[a]", "  work", "[b]", "  work"]


def test_tile_timeline_events_from_npu_trace():
    from repro.npu import trace_model
    events = tile_timeline_events(trace_model("tinynet"))
    payload = chrome_trace([], device_events=events)
    assert validate_trace(payload) == []
    slices = [e for e in events if e["ph"] == "X"]
    assert slices and {e["tid"] for e in slices} <= {0, 1}
    assert all(e["cat"] == "device" for e in slices)


def test_write_and_validate_trace_file(tmp_path):
    tel = Telemetry(enabled=True)
    with tel.span("s"):
        pass
    path = tmp_path / "out.json"
    write_trace(str(path), chrome_trace([tel.snapshot()]))
    payload = validate_trace_file(str(path))
    assert payload["displayTimeUnit"] == "ms"


_X_EVENT = {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0, "dur": 1}


@pytest.mark.parametrize("payload", [
    [],                                              # not an object
    {},                                              # no traceEvents
    {"traceEvents": []},                             # empty
    {"traceEvents": [{"ph": "?", "name": "x", "pid": 0, "tid": 0,
                      "ts": 0}]},                    # unknown phase
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                      "ts": 0}]},                    # X without dur
    {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0,
                      "ts": -1, "dur": 1}]},         # negative ts
    {"traceEvents": [{"ph": "i", "name": "", "pid": 0, "tid": 0,
                      "ts": 0}]},                    # empty name
    {"traceEvents": [{"ph": "i", "name": "x", "pid": "0", "tid": 0,
                      "ts": 0}]},                    # non-int pid
    {"traceEvents": [_X_EVENT], "otherData": []},    # otherData not object
    {"traceEvents": [_X_EVENT], "otherData": True},
    {"traceEvents": [_X_EVENT], "otherData": "x"},
    {"traceEvents": [_X_EVENT], "otherData": {"counters": []}},
    {"traceEvents": [dict(_X_EVENT, pid=True)]},     # bool is not an int
])
def test_validate_trace_rejects_malformed(payload):
    problems = validate_trace(payload)
    assert problems and all(isinstance(p, str) for p in problems)


def test_validate_trace_file_raises_on_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"traceEvents": [_X_EVENT],
                                "otherData": []}))
    with pytest.raises(ValueError, match=r"\$\.otherData: expected object"):
        validate_trace_file(str(path))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# Determinism: identical runs, identical dumps (serial and --jobs 2)
# ---------------------------------------------------------------------------
def _other_data(trace_path):
    payload = validate_trace_file(str(trace_path))
    return json.dumps(payload["otherData"], sort_keys=True)


def _run_profile(tmp_path, tag):
    out = tmp_path / f"profile-{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC),
               REPRO_CACHE_DIR=str(tmp_path / f"cache-{tag}"))
    subprocess.run(
        [sys.executable, "-m", "repro", "profile", "tinynet",
         "--trace-out", str(out)],
        check=True, capture_output=True, env=env, cwd=tmp_path)
    return _other_data(out)


def test_profile_counter_dump_is_deterministic(tmp_path):
    assert _run_profile(tmp_path, "a") == _run_profile(tmp_path, "b")


def _run_harness_traced(tmp_path, tag, *extra):
    out = tmp_path / f"harness-{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC),
               REPRO_CACHE_DIR=str(tmp_path / f"cache-{tag}"))
    subprocess.run(
        [sys.executable, "-m", "repro.harness", "fig26", "table3",
         "--trace-out", str(out), *extra],
        check=True, capture_output=True, env=env, cwd=tmp_path)
    return _other_data(out)


def test_harness_trace_deterministic_serial(tmp_path):
    assert _run_harness_traced(tmp_path, "s1") == \
        _run_harness_traced(tmp_path, "s2")


def test_harness_trace_deterministic_jobs2(tmp_path):
    assert _run_harness_traced(tmp_path, "j1", "--jobs", "2") == \
        _run_harness_traced(tmp_path, "j2", "--jobs", "2")


# ---------------------------------------------------------------------------
# Autotune counters: identical serial and --jobs 2
# ---------------------------------------------------------------------------
def _autotune_counters(tmp_path, monkeypatch, tag, jobs):
    """Cold autotune of tinynet; returns the compiler.autotune.* counters.

    The parent process and any worker processes must share one cache
    directory (workers build their cache from ``REPRO_CACHE_DIR``), and
    each tag gets a fresh directory so both runs are cold.
    """
    from repro.compiler import autotune_model
    from repro.runtime import get_cache, set_cache

    cache_dir = tmp_path / f"cache-{tag}"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    previous = get_cache()
    set_cache(EvalCache(directory=cache_dir))
    try:
        with scoped_telemetry(Telemetry(enabled=True, label=tag)) as tel:
            autotune_model(build_model("tinynet"), budget=6, jobs=jobs)
            counters = tel.snapshot()["counters"]
    finally:
        set_cache(previous)
    return {k: v for k, v in counters.items()
            if k.startswith("compiler.autotune.")}


def test_autotune_counters_identical_serial_vs_jobs(tmp_path, monkeypatch):
    serial = _autotune_counters(tmp_path, monkeypatch, "serial", jobs=1)
    jobs2 = _autotune_counters(tmp_path, monkeypatch, "jobs2", jobs=2)
    assert serial == jobs2
    assert serial["compiler.autotune.searches"] == 1
    assert serial["compiler.autotune.candidates"] == 6
