"""Autotuned pass pipeline: plumbing, search, caching, equivalence."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.compiler import (
    Block,
    CompileError,
    PipelineConfig,
    ReferenceExecutor,
    all_configs,
    autotune_model,
    compile_model,
    dump_model,
    explain_compile,
    form_blocks,
    knob_space_size,
    split_at_depth,
    validate_autotune_report,
)
from repro.compiler.compiler import _compile_key
from repro.compiler.tiling import search_tiles
from repro.models import build_model, build_tinynet
from repro.npu import FunctionalRunner, NPUTandem
from repro.runtime import EvalCache, get_cache, set_cache
from repro.simulator.params import SimParams


# ---------------------------------------------------------------------------
# PipelineConfig plumbing
# ---------------------------------------------------------------------------
def test_pipeline_config_roundtrip_and_defaults():
    config = PipelineConfig(fusion_depth=2, tile_search="exact",
                            fission=True)
    assert PipelineConfig.from_dict(config.as_dict()) == config
    assert config != PipelineConfig()
    assert "depth=2" in config.label() and "fission" in config.label()
    assert len(config.describe()) == 4


def test_pipeline_config_rejects_bad_knobs():
    with pytest.raises(ValueError, match="tile_search"):
        PipelineConfig(tile_search="fibonacci")
    with pytest.raises(ValueError, match="fusion_depth"):
        PipelineConfig(fusion_depth=0)


def test_knob_space_enumeration():
    configs = all_configs()
    assert len(configs) == knob_space_size()
    assert len(set(configs)) == len(configs)
    assert configs[0] == PipelineConfig()


def test_split_at_depth_preserves_ops_in_order():
    blocks = form_blocks(build_model("tinynet"))
    fused = next(b for b in blocks if b.gemm is not None and len(b.ops) > 1)
    parts = split_at_depth(fused, 1)
    assert parts[0].gemm is fused.gemm
    assert all(p.gemm is None for p in parts[1:])
    assert all(len(p.ops) == 1 for p in parts)
    rejoined = [op for part in parts for op in part.ops]
    assert rejoined == fused.ops
    assert split_at_depth(fused, len(fused.ops)) == [fused]
    with pytest.raises(ValueError, match="depth"):
        split_at_depth(fused, 0)


# ---------------------------------------------------------------------------
# Tile search: memoization + exact refinement
# ---------------------------------------------------------------------------
def _fake_search(min_feasible, strategy):
    """Drive search_tiles with a synthetic feasibility threshold."""
    calls = []

    def try_compile(tiles):
        calls.append(tiles)
        if tiles < min_feasible:
            raise CompileError(f"{tiles} tiles do not fit")
        return f"compiled@{tiles}"

    block = Block()  # no GEMM -> initial tile count 1
    tiles, compiled = search_tiles(block, None, SimParams().tandem,
                                   try_compile, strategy=strategy)
    return tiles, compiled, calls


def test_search_tiles_never_recompiles_a_count():
    # Satellite fix: one search must never re-evaluate a tile count it
    # has already scored, in either strategy.
    for strategy in ("pow2", "exact"):
        _, _, calls = _fake_search(13, strategy)
        assert len(calls) == len(set(calls)), (strategy, calls)


def test_search_tiles_exact_finds_minimum():
    tiles, compiled, _ = _fake_search(13, "exact")
    assert tiles == 13 and compiled == "compiled@13"
    pow2_tiles, _, _ = _fake_search(13, "pow2")
    assert pow2_tiles == 16


def test_search_tiles_exact_matches_pow2_on_power_of_two():
    assert _fake_search(16, "exact")[0] == 16
    assert _fake_search(1, "exact")[0] == 1


def test_search_tiles_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        _fake_search(4, "newton")


def test_search_tiles_imm_buf_errors_propagate():
    def try_compile(tiles):
        raise CompileError("IMM BUF pressure: too many constants")

    with pytest.raises(CompileError, match="IMM BUF"):
        search_tiles(Block(), None, SimParams().tandem, try_compile)


# ---------------------------------------------------------------------------
# compile_model(pipeline=...)
# ---------------------------------------------------------------------------
def test_default_pipeline_is_bit_identical():
    graph = build_model("tinynet")
    base = compile_model(graph, verify=False)
    explicit = compile_model(graph, verify=False, pipeline=PipelineConfig())
    assert dump_model(base) == dump_model(explicit)


def test_default_pipeline_shares_the_compile_key(tmp_path):
    graph = build_model("tinynet")
    sim = SimParams()
    npu = NPUTandem()
    defaulted = _compile_key(graph, sim, npu.config.gemm, False,
                             PipelineConfig())
    tuned = _compile_key(graph, sim, npu.config.gemm, False,
                         PipelineConfig(tile_search="exact"))
    assert tuned != defaulted
    prev = get_cache()
    set_cache(EvalCache(directory=tmp_path))
    try:
        # A compile that names no pipeline is published under the
        # default's key.
        assert not get_cache().has("compiled", defaulted)
        compile_model(graph, sim, npu.config.gemm)
        assert get_cache().has("compiled", defaulted)
    finally:
        set_cache(prev)


def test_tuned_pipeline_is_functionally_equivalent(rng):
    graph = build_tinynet()
    config = PipelineConfig(fusion_depth=1, tile_search="exact",
                            fission=True, interchange=True)
    model = compile_model(graph, pipeline=config)  # verify=on by default
    bindings = {}
    for name, spec in graph.tensors.items():
        if graph.producer(name) is None:
            hi = 4 if name.startswith("w_") else 20
            bindings[name] = rng.integers(-hi, hi, spec.shape)
    runner = FunctionalRunner(model)
    runner.bind(bindings)
    outputs = runner.run({k: v for k, v in bindings.items()
                          if k in graph.graph_inputs})
    reference = ReferenceExecutor(graph).run(bindings)
    for name in graph.graph_outputs:
        np.testing.assert_array_equal(outputs[name], reference[name])


def test_explain_compile_narrates_the_pipeline():
    model, lines = explain_compile(build_model("tinynet"),
                                   pipeline=PipelineConfig(fusion_depth=1))
    assert lines[0].startswith("pipeline: depth=1")
    assert any(line.strip().startswith("fuse_blocks:") for line in lines)
    assert len(model.blocks) >= 3


# ---------------------------------------------------------------------------
# The searcher
# ---------------------------------------------------------------------------
def test_autotune_respects_budget_and_never_loses_to_default():
    report = autotune_model(build_model("tinynet"), budget=5)
    assert report.counters["candidates"] <= 5
    assert report.strategy == "greedy"
    assert report.best_cycles <= report.baseline_cycles
    assert report.improvement >= 0.0


def test_autotune_exhaustive_when_budget_covers_space():
    report = autotune_model(build_model("tinynet"),
                            budget=knob_space_size())
    assert report.strategy == "exhaustive"
    assert report.counters["candidates"] == knob_space_size()
    labels = [c["label"] for c in report.candidates]
    assert len(set(labels)) == len(labels)


def test_autotune_is_deterministic_without_a_cache():
    prev = get_cache()
    set_cache(EvalCache(enabled=False))
    try:
        graph = build_model("tinynet")
        first = autotune_model(graph, budget=6).as_dict()
        second = autotune_model(graph, budget=6).as_dict()
    finally:
        set_cache(prev)
    assert first == second
    assert first["schema"] == "repro-autotune-report-v1"


def test_autotune_report_is_cached(tmp_path):
    prev = get_cache()
    set_cache(EvalCache(directory=tmp_path))
    try:
        graph = build_model("tinynet")
        cold = autotune_model(graph, budget=6)
        warm = autotune_model(graph, budget=6)
    finally:
        set_cache(prev)
    assert not cold.cached and warm.cached
    assert cold.as_dict() == warm.as_dict()


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda record: record.pop("best"), id="missing-best"),
    pytest.param(lambda record: record.update(best=3), id="best-is-int"),
])
def test_autotune_discards_a_corrupt_cached_report(tmp_path, corrupt):
    prev = get_cache()
    graph = build_model("tinynet")
    try:
        set_cache(EvalCache(directory=tmp_path / "cold"))
        cold = autotune_model(graph, budget=6)
        assert validate_autotune_report(cold.as_dict()) == []
        # A cache holding only the corrupted report, so the re-search
        # compiles from scratch exactly as the cold one did.
        (path,) = (tmp_path / "cold" / "autotune").glob("*.json")
        record = json.loads(path.read_text())
        corrupt(record)
        (tmp_path / "corrupt" / "autotune").mkdir(parents=True)
        (tmp_path / "corrupt" / "autotune" / path.name).write_text(
            json.dumps(record))
        cache = EvalCache(directory=tmp_path / "corrupt")
        set_cache(cache)
        again = autotune_model(graph, budget=6)
    finally:
        set_cache(prev)
    assert not again.cached
    assert again.as_dict() == cold.as_dict()
    assert cache.stats.invalidations == 1


def test_autotune_winner_compiles_verifier_clean():
    from repro.analysis.verifier import verify_model
    graph = build_model("tinynet")
    report = autotune_model(graph, budget=8)
    model = compile_model(graph, pipeline=report.best_pipeline(),
                          verify=False)
    assert verify_model(model).errors == 0


@pytest.mark.parametrize("fission", [False, True])
@pytest.mark.parametrize("interchange", [False, True])
def test_depth1_exact_mobilenetv2_compiles_verifier_clean(fission,
                                                          interchange):
    # A multi-tile padded window must load the halo columns its walk
    # spans; without them these knobs push the walk off the scratchpad
    # and the verifier rejects the program (DFL003).
    config = PipelineConfig(fusion_depth=1, tile_search="exact",
                            fission=fission, interchange=interchange)
    model = compile_model(build_model("mobilenetv2"), pipeline=config)
    assert any(cb.tiles > 1 and cb.block.ops[0].op_type == "DepthwiseConv"
               for cb in model.blocks if cb.block.ops)


def test_mobilenetv2_knob_space_compiles_verifier_clean():
    # Every config of the whole space must compile verifier-clean: a
    # rejected candidate there is a compiler bug, not a losing config.
    report = autotune_model(build_model("mobilenetv2"), budget=1000)
    assert report.strategy == "exhaustive"
    assert len(report.candidates) == knob_space_size()
    failed = {c["label"]: c["status"] for c in report.candidates
              if c["status"] in ("verify-rejected", "compile-error")}
    assert failed == {}
    assert report.counters["verifier_rejects"] == 0


def test_npu_autotune_opt_in(monkeypatch):
    assert not NPUTandem()._autotune_active()
    assert NPUTandem(autotune=True)._autotune_active()
    assert not NPUTandem(autotune=False)._autotune_active()
    monkeypatch.setenv("REPRO_AUTOTUNE", "1")
    assert NPUTandem()._autotune_active()
    assert not NPUTandem(autotune=False)._autotune_active()


def test_npu_autotuned_compile_never_slower(monkeypatch):
    graph = build_model("mobilenetv2")
    npu = NPUTandem()
    fixed = npu.evaluate(npu.compile(graph))
    tuned_npu = NPUTandem(autotune=True)
    tuned = tuned_npu.evaluate(tuned_npu.compile(graph))
    assert tuned.total_seconds <= fixed.total_seconds


def test_admission_checks_the_served_pipeline(monkeypatch, tmp_path):
    """Fleet admission gates on the verification record of the program
    an autotuned design serves, not on the default pipeline's."""
    import repro.compiler.autotune as autotune
    from repro.serving import ServiceCosts

    tuned = PipelineConfig(tile_search="exact", fission=True)
    monkeypatch.setattr(autotune, "autotune_model", lambda *args, **kwargs:
                        SimpleNamespace(best_pipeline=lambda: tuned))
    prev = get_cache()
    set_cache(EvalCache(directory=tmp_path))
    try:
        npu = NPUTandem(autotune=True)
        graph = build_model("tinynet")
        npu.compile(graph)  # publishes the tuned program's clean record
        cache = get_cache()
        key = _compile_key(graph, npu.config.sim, npu.config.gemm, False,
                           tuned)
        dirty = dict(cache.get("verified", key), clean=False, errors=1)
        cache.put("verified", key, dirty)
        assert npu.verify_record("tinynet") == dirty
        assert not ServiceCosts.resolve(["tinynet"], npu).is_verified(
            "tinynet")
    finally:
        set_cache(prev)
