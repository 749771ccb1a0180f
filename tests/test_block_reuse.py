"""Repeated blocks reuse their lowered tile; verification stays per tile.

Within one compile, a block whose structural key matches an earlier
block's skips the tile search and rebinds that block's tile to its own
tensors; within one model verification, the word-level passes run once
per distinct program. The reference here disables both: every block
gets a fresh key, so it is searched and lowered on its own, and every
tile is verified by its own ``verify_program`` call. Both paths must
agree on the artifact text, the verify report and the ``--explain``
account.
"""

import dataclasses
import importlib
import itertools
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.deps import check_model
from repro.analysis.verifier import (
    ModelVerifyReport,
    VerifyReport,
    verify_model,
    verify_program,
)
from repro.compiler import PipelineConfig, dump_model, explain_compile
from repro.compiler.ir import CompileError
from repro.isa import loop_num_inst
from repro.isa.opcodes import LoopFunc, Opcode
from repro.llm import build_step, get_llm_config
from repro.models import available_models, build_model
from repro.telemetry import Telemetry, scoped_telemetry
from tests.test_fuzz_compile import pipeline_graph, random_pipelines

compiler = importlib.import_module("repro.compiler.compiler")

PIPELINES = {
    "default": None,
    "exact_fission_interchange": PipelineConfig(
        tile_search="exact", fission=True, interchange=True),
    "depth2": PipelineConfig(fusion_depth=2),
}


def _graph(name):
    if name.endswith(":decode"):
        return build_step(get_llm_config(name[:-len(":decode")]),
                          past_len=4, n_new=1).graph
    return build_model(name)


def _reference_verify(model):
    """Every tile verified on its own, plus the model-level race check."""
    report = ModelVerifyReport(model=model.name)
    for cb in model.blocks:
        if cb.tile is not None:
            report.reports.append(verify_program(
                cb.tile.program, model.sim_params.tandem,
                owns_obuf=cb.block.gemm is not None, tile=cb.tile))
    races = VerifyReport(program=f"{model.name}::model", passes=["deps"])
    races.extend(check_model(model))
    report.reports.append(races)
    return report


def _outcome(graph, pipeline):
    """(artifact text, model, explain lines), or the compile error."""
    try:
        model, lines = explain_compile(graph, pipeline=pipeline)
    except CompileError as err:
        return ("CompileError", str(err))
    return dump_model(model), model, lines


def _compare(graph, pipeline, monkeypatch):
    reused = _outcome(graph, pipeline)
    keys = itertools.count()
    with monkeypatch.context() as patch:
        patch.setattr(compiler, "_block_key",
                      lambda block, graph, stores: (next(keys), []))
        reference = _outcome(graph, pipeline)
    if reused[0] == "CompileError" or reference[0] == "CompileError":
        assert reused == reference
        return None
    text, model, lines = reused
    ref_text, ref_model, ref_lines = reference
    assert text == ref_text
    assert lines == ref_lines
    assert (verify_model(model).to_json()
            == _reference_verify(ref_model).to_json())
    return model


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("name", available_models() + ["tinyllm:decode"])
def test_reuse_matches_per_block_compile(name, pipeline, monkeypatch):
    _compare(_graph(name), PIPELINES[pipeline], monkeypatch)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(random_pipelines(), st.sampled_from(sorted(PIPELINES)))
def test_reuse_matches_per_block_compile_on_fuzz_graphs(monkeypatch, case,
                                                        pipeline):
    _compare(pipeline_graph(case), PIPELINES[pipeline], monkeypatch)


def test_repeated_blocks_are_lowered_and_verified_once():
    with scoped_telemetry(Telemetry(enabled=True)) as tel:
        model, _ = explain_compile(build_model("bert"))
        verify_model(model)
        counters = tel.snapshot()["counters"]
    tiles = sum(1 for cb in model.blocks if cb.tile is not None)
    assert counters["compiler.blocks.lowered"] < tiles
    assert (counters["compiler.blocks.lowered"]
            + counters["compiler.blocks.reused"]) == tiles
    assert counters["verifier.programs.distinct"] \
        <= counters["compiler.blocks.lowered"]


# ---------------------------------------------------------------------------
# Verification is still per tile
# ---------------------------------------------------------------------------
@pytest.fixture
def repeated():
    """A fresh BERT compile and a (source, rebound) pair of block indices."""
    model, _ = explain_compile(build_model("bert"))
    tiled = [i for i, cb in enumerate(model.blocks)
             if cb.tile is not None and cb.tile.transfers]
    for i, j in itertools.combinations(tiled, 2):
        source = model.blocks[i].tile.program.instructions
        rebound = model.blocks[j].tile.program.instructions
        # A rebound tile shares its source's instruction objects.
        if len(source) == len(rebound) and all(map(operator.is_, source,
                                                   rebound)):
            return model, i, j
    pytest.fail("bert has no repeated block")


def _block_reports(model):
    report = verify_model(model)
    return {r.program: r for r in report.reports}


def test_corrupt_word_flags_only_its_tile(repeated):
    model, src, dst = repeated
    before = _block_reports(model)
    source = model.blocks[src].tile.program
    source_words = list(source.instructions)
    victim = model.blocks[dst].tile.program
    pc = next(pc for pc, inst in enumerate(victim.instructions)
              if inst.opcode == Opcode.LOOP
              and inst.func == int(LoopFunc.SET_NUM_INST))
    victim.instructions[pc] = loop_num_inst(len(victim.instructions))

    assert source.instructions == source_words
    after = _block_reports(model)
    flagged = {name for name, r in after.items()
               if r.as_dict() != before[name].as_dict()}
    assert flagged == {victim.name}
    assert "loop-body-overrun" in after[victim.name].by_rule()
    assert after[victim.name].errors > 0


def test_forged_transfer_claim_fires_dep001_on_its_tile_only(repeated):
    model, src, dst = repeated
    tile = model.blocks[dst].tile
    claim = tile.access_meta.transfers[0]
    tile.access_meta.transfers[0] = dataclasses.replace(
        claim, tensor=claim.tensor + "_forged")

    assert model.blocks[src].tile.access_meta.transfers[0].tensor \
        != claim.tensor + "_forged"
    findings = {name: [f.rule_id for f in r.findings]
                for name, r in _block_reports(model).items()}
    firing = {name for name, ids in findings.items() if "DEP001" in ids}
    assert firing == {tile.program.name}
