"""Compiled-model serialization: the deployable artifact round-trips."""

import json

import numpy as np
import pytest

from repro.analysis.verifier import verify_block_dicts, verify_program
from repro.compiler import compile_model, dump_model, load_blocks
from repro.compiler.serialize import load_model
from repro.isa import ProgramDecodeError
from repro.llm import build_step, get_llm_config
from repro.models import available_models, build_model, build_tinynet
from repro.npu import FunctionalRunner
from repro.runtime import EvalCache
from repro.simulator import estimate


@pytest.fixture(scope="module")
def compiled():
    return compile_model(build_tinynet())


def test_dump_is_valid_json(compiled):
    data = json.loads(dump_model(compiled))
    assert data["model"] == "tinynet"
    assert len(data["blocks"]) == len(compiled.blocks)


def test_dump_is_compact_with_hex_word_strings(compiled):
    text = dump_model(compiled)
    assert "\n" not in text
    data = json.loads(text)
    for original, blk in zip(compiled.blocks, data["blocks"]):
        if original.tile is None:
            continue
        assert blk["tile"]["name"] == original.tile.program.name
        words = data["programs"][blk["tile"]["program"]]["words"]
        assert isinstance(words, str)
        assert len(words) == 8 * len(original.tile.program.instructions)


@pytest.mark.parametrize("damage", [lambda w: w[:-3], lambda w: "zz" + w[2:]],
                         ids=["truncated", "non-hex"])
def test_corrupt_word_string_raises_decode_error(compiled, damage):
    data = json.loads(dump_model(compiled))
    entry = data["programs"][0]
    entry["words"] = damage(entry["words"])
    with pytest.raises(ProgramDecodeError):
        load_blocks(json.dumps(data))


def _first_tiled(data):
    return next(blk for blk in data["blocks"] if blk["tile"])


def _set_program(data, pid):
    _first_tiled(data)["tile"]["program"] = pid


def _drop_tensor(data):
    _first_tiled(data)["tile"]["tensors"].pop()


def _negative_tensor_index(data):
    pid = _first_tiled(data)["tile"]["program"]
    data["programs"][pid]["transfers"][0]["tensor"] = -1


def _entry_not_object(data):
    pid = _first_tiled(data)["tile"]["program"]
    data["programs"][pid] = ["not", "an", "entry"]


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda data: _set_program(data, len(data["programs"])),
                 id="program-id-past-table"),
    pytest.param(lambda data: _set_program(data, -1),
                 id="program-id-negative"),
    pytest.param(lambda data: _set_program(data, "0"),
                 id="program-id-string"),
    pytest.param(lambda data: _set_program(data, True),
                 id="program-id-bool"),
    pytest.param(_drop_tensor, id="tensor-index-past-tensors"),
    pytest.param(_negative_tensor_index, id="tensor-index-negative"),
    pytest.param(_entry_not_object, id="entry-not-object"),
])
def test_corrupt_program_table_raises_decode_error(compiled, corrupt):
    data = json.loads(dump_model(compiled))
    corrupt(data)
    block = _first_tiled(data)["name"]
    with pytest.raises(ProgramDecodeError, match=repr(block)):
        load_blocks(json.dumps(data))


def test_corrupt_program_table_invalidates_a_cached_artifact(compiled,
                                                             tmp_path):
    # A warm start drops the corrupt record instead of crashing.
    data = json.loads(dump_model(compiled))
    _set_program(data, len(data["programs"]))
    cache = EvalCache(directory=tmp_path)
    cache.put("compiled", "k", json.dumps(data), encode=lambda text: text)
    cache = EvalCache(directory=tmp_path)
    assert cache.get("compiled", "k", decode=load_blocks) is None
    assert cache.stats.invalidations == 1


def test_programs_roundtrip_bit_exact(compiled):
    blocks = load_blocks(dump_model(compiled))
    for original, restored in zip(compiled.blocks, blocks):
        assert restored["kind"] == original.kind
        assert restored["tiles"] == original.tiles
        if original.tile is None:
            assert restored["tile"] is None
            continue
        assert restored["tile"].program.pack() == original.tile.program.pack()
        assert restored["tile"].imm_values == original.tile.imm_values
        assert len(restored["tile"].transfers) == len(original.tile.transfers)


def test_restored_metadata_estimates_identically(compiled):
    blocks = load_blocks(dump_model(compiled))
    for original, restored in zip(compiled.blocks, blocks):
        if original.tile is None:
            continue
        a = estimate(original.tile.meta, compiled.sim_params)
        b = estimate(restored["tile"].meta, compiled.sim_params)
        assert a.cycles == b.cycles
        assert a.energy.total_pj() == pytest.approx(b.energy.total_pj())


def test_restored_tile_runs_functionally(compiled, rng):
    """A deserialized program drives the machine to the same outputs."""
    blocks = load_blocks(dump_model(compiled))
    # Patch the restored tiles into a copy of the compiled model.
    for cb, restored in zip(compiled.blocks, blocks):
        if cb.tile is not None:
            cb.tile.program = restored["tile"].program
            cb.tile.transfers = restored["tile"].transfers
            cb.tile.permutes = restored["tile"].permutes
    graph = compiled.graph
    bindings = {name: rng.integers(-5, 5, spec.shape)
                for name, spec in graph.tensors.items()
                if graph.producer(name) is None}
    runner = FunctionalRunner(compiled)
    runner.bind(bindings)
    outputs = runner.run({"image": bindings["image"]})
    assert outputs[graph.graph_outputs[0]].size == 10


def test_version_check():
    with pytest.raises(ValueError, match="format"):
        load_blocks(json.dumps({"format_version": 99, "blocks": []}))


def test_artifact_stores_access_claims_not_analytic_metadata(compiled):
    # The cycle model's metadata is derived from the access claims the
    # verifier checks, so the program table carries only those.
    from repro.compiler.serialize import FORMAT_VERSION
    data = json.loads(dump_model(compiled))
    assert data["format_version"] == FORMAT_VERSION == 6
    entries = data["programs"]
    assert entries
    for entry in entries:
        assert "meta" not in entry and "op_metas" not in entry
        assert "version" not in entry["access_meta"]
        assert all(isinstance(t["tensor"], int) for t in entry["transfers"])
    blocks = load_blocks(dump_model(compiled))
    for original, restored in zip(compiled.blocks, blocks):
        if original.tile is None:
            continue
        assert restored["tile"].op_ranges == original.tile.op_ranges
        assert restored["tile"].meta == original.tile.meta
        assert restored["tile"].op_metas == original.tile.op_metas


# ---------------------------------------------------------------------------
# The program table round-trips every compiled benchmark
# ---------------------------------------------------------------------------
def _graph(name):
    if name.endswith(":decode"):
        return build_step(get_llm_config(name[:-len(":decode")]),
                          past_len=4, n_new=1).graph
    return build_model(name)


@pytest.fixture(scope="module", params=available_models() + ["tinyllm:decode"])
def artifact(request):
    model = compile_model(_graph(request.param), verify=False)
    return model, dump_model(model)


def test_reloaded_artifact_dumps_byte_identically(artifact):
    model, text = artifact
    loaded = load_model(text, model.graph, model.sim_params,
                        model.gemm_params)
    assert dump_model(loaded) == text
    for original, restored in zip(model.blocks, loaded.blocks):
        if original.tile is not None:
            assert (restored.tile.program.name
                    == original.tile.program.name)
            assert restored.tile.transfers == original.tile.transfers
            assert restored.tile.access_meta == original.tile.access_meta


def test_loaded_blocks_verify_like_per_tile_programs(artifact):
    model, text = artifact
    blocks = load_blocks(text)
    params = model.sim_params.tandem
    report = verify_block_dicts(model.name, blocks, params)
    reference = [verify_program(b["tile"].program, params,
                                owns_obuf=b["gemm_node"] is not None,
                                tile=b["tile"]).as_dict()
                 for b in blocks if b["tile"] is not None]
    assert [r.as_dict() for r in report.reports] == reference


def test_repeated_programs_are_stored_once():
    model = compile_model(build_model("bert"), verify=False)
    data = json.loads(dump_model(model))
    tiles = [blk["tile"] for blk in data["blocks"] if blk["tile"]]
    assert len(data["programs"]) < len(tiles)
    assert sorted({tile["program"] for tile in tiles}) \
        == list(range(len(data["programs"])))
