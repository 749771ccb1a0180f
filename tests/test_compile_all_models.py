"""Whole-suite compilation invariants across the seven benchmarks."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.compiler import PipelineConfig, compile_model, dump_model
from repro.graph import OpClass
from repro.isa import Namespace, Opcode, SyncFunc
from repro.llm import build_step, get_llm_config
from repro.models import MODEL_ORDER, build_model
from repro.npu import NPUTandem
from repro.simulator.params import TandemParams


@pytest.fixture(scope="module")
def compiled_models(request):
    # The default flow, whatever REPRO_AUTOTUNE says.
    npu = NPUTandem(autotune=False)
    return {name: npu.compile(name) for name in MODEL_ORDER}


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_every_nongemm_node_is_compiled(name, compiled_models, all_models):
    model = compiled_models[name]
    graph = all_models[name]
    compiled_ops = sum(len(cb.block.ops) for cb in model.blocks)
    nongemm_nodes = sum(1 for n in graph.nodes if not n.is_gemm)
    assert compiled_ops == nongemm_nodes


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_every_gemm_node_has_a_block(name, compiled_models, all_models):
    model = compiled_models[name]
    graph = all_models[name]
    gemm_blocks = sum(1 for cb in model.blocks if cb.block.gemm is not None)
    gemm_nodes = sum(1 for n in graph.nodes if n.is_gemm)
    assert gemm_blocks == gemm_nodes


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_tile_capacity_respected(name, compiled_models):
    words = TandemParams().interim_buf_words
    for cb in compiled_models[name].blocks:
        if cb.tile is not None:
            assert cb.tile.peak_words <= 2 * words
            assert cb.tiles >= 1


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_programs_well_formed(name, compiled_models):
    for cb in compiled_models[name].blocks:
        if cb.tile is None:
            continue
        program = cb.tile.program
        opcodes = [i.opcode for i in program]
        assert opcodes[0] == Opcode.SYNC
        assert opcodes[-1] == Opcode.SYNC
        # IMM BUF stays within its 32 slots.
        assert len(cb.tile.imm_values) <= 32
        # Loop bodies are properly sized: SET_NUM_INST followed by that
        # many compute words.
        insts = list(program)
        i = 0
        while i < len(insts):
            inst = insts[i]
            if (inst.opcode == Opcode.LOOP and inst.func == 1):  # SET_NUM_INST
                body = insts[i + 1:i + 1 + inst.imm]
                assert len(body) == inst.imm
                assert all(b.opcode in (Opcode.ALU, Opcode.CALCULUS,
                                        Opcode.COMPARISON) for b in body)
                i += 1 + inst.imm
            else:
                i += 1


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_fused_blocks_read_obuf(name, compiled_models):
    """GEMM+non-GEMM blocks consume the Output BUF and release it."""
    model = compiled_models[name]
    fused = [cb for cb in model.blocks if cb.kind == "gemm_tandem"]
    assert fused, f"{name} has no fused blocks"
    reads_obuf = 0
    for cb in fused:
        touches = any(
            inst.opcode in (Opcode.ALU, Opcode.CALCULUS, Opcode.COMPARISON)
            and (inst.src1.ns == Namespace.OBUF
                 or (inst.src2 and inst.src2.ns == Namespace.OBUF))
            for inst in cb.tile.program)
        if touches:
            reads_obuf += 1
            funcs = [i.func for i in cb.tile.program
                     if i.opcode == Opcode.SYNC]
            assert int(SyncFunc.SIMD_END_BUF) in funcs
    assert reads_obuf > len(fused) // 2


def test_transformers_use_permute_engine(compiled_models):
    for name in ("bert", "gpt2"):
        model = compiled_models[name]
        permutes = sum(len(cb.tile.permutes) for cb in model.blocks
                       if cb.tile is not None)
        assert permutes > 0, name


def test_depthwise_compiles_to_deep_nests(compiled_models):
    """The paper's canonical depth-wise loop nest has five levels; tiled
    compilations may drop degenerate (single-iteration) levels, so at
    least four survive. The untiled functional path keeps all five
    (covered by test_templates_functional)."""
    model = compiled_models["mobilenetv2"]
    found = False
    for cb in model.blocks:
        if cb.tile is None:
            continue
        for label, meta in cb.tile.op_metas:
            if label == "DepthwiseConv":
                assert any(len(nest.counts) >= 4 for nest in meta.nests)
                found = True
    assert found


def test_depthwise_five_levels_untiled():
    from repro.graph import GraphBuilder
    b = GraphBuilder("dw")
    x = b.input("x", (1, 8, 12, 12), dtype="int32")
    y = b.depthwise_conv(x, 3)
    model = compile_model(b.finish([y]))
    tile = model.blocks[0].tile
    assert any(len(nest.counts) == 5 for nest in tile.meta.nests)


def test_total_instruction_footprint_reasonable(compiled_models):
    """Per-tile programs are compact (32-bit ISA, Section 5)."""
    for name, model in compiled_models.items():
        words = model.total_instructions()
        assert 0 < words < 1_500_000, f"{name}: {words} words"


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_zoo_verifies_clean(name, compiled_models):
    """Every compiled program passes the static verifier: no errors, no
    warnings — only info-tier lint notes are tolerated."""
    from repro.analysis.verifier import verify_model
    report = verify_model(compiled_models[name])
    assert report.errors == 0, report.to_json()
    assert report.warnings == 0, report.to_json()
    assert report.clean


#: sha256 of each golden artifact's ``dump_model`` text. Regenerate only
#: on purpose: ``PYTHONPATH=src python tests/test_compile_all_models.py``.
GOLDEN_DIGESTS = Path(__file__).parent / "fixtures" / "compiled_digests.json"

#: A non-default pipeline that exercises every pass.
GOLDEN_PIPELINE = PipelineConfig(fusion_depth=1, tile_search="exact",
                                 fission=True, interchange=True)


def _digest(model) -> str:
    return hashlib.sha256(dump_model(model).encode()).hexdigest()


def compiled_digests(zoo) -> dict:
    """Golden digests: ``zoo`` (name -> default-flow model), two LLM
    decode steps and :data:`GOLDEN_PIPELINE` on two zoo models."""
    digests = {name: _digest(model) for name, model in zoo.items()}
    for llm in ("tinyllm", "gpt2_rms"):
        step = build_step(get_llm_config(llm), past_len=4, n_new=1)
        digests[f"{llm}:decode"] = _digest(compile_model(step.graph))
    for name in ("tinynet", "mobilenetv2"):
        model = compile_model(build_model(name), pipeline=GOLDEN_PIPELINE)
        digests[f"{name}@{GOLDEN_PIPELINE.label()}"] = _digest(model)
    return digests


def test_compiled_artifacts_match_golden_digests(compiled_models):
    """Compiler refactors must leave every artifact byte-identical."""
    expected = json.loads(GOLDEN_DIGESTS.read_text())
    assert compiled_digests(compiled_models) == expected


if __name__ == "__main__":
    npu = NPUTandem(autotune=False)
    digests = compiled_digests({name: npu.compile(name)
                                for name in MODEL_ORDER})
    GOLDEN_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_DIGESTS}")
