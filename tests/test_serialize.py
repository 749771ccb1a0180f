"""Compiled-model serialization: the deployable artifact round-trips."""

import json

import numpy as np
import pytest

from repro.compiler import compile_model, dump_model, load_blocks
from repro.isa import ProgramDecodeError
from repro.models import build_tinynet
from repro.npu import FunctionalRunner
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
        words = blk["tile"]["words"]
        assert isinstance(words, str)
        assert len(words) == 8 * len(original.tile.program.instructions)


@pytest.mark.parametrize("damage", [lambda w: w[:-3], lambda w: "zz" + w[2:]],
                         ids=["truncated", "non-hex"])
def test_corrupt_word_string_raises_decode_error(compiled, damage):
    data = json.loads(dump_model(compiled))
    tile = next(blk["tile"] for blk in data["blocks"] if blk["tile"])
    tile["words"] = damage(tile["words"])
    with pytest.raises(ProgramDecodeError):
        load_blocks(json.dumps(data))


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
    # Format v5: the cycle model's metadata is derived from the access
    # claims the verifier checks, so the artifact carries only those.
    from repro.compiler.serialize import FORMAT_VERSION
    data = json.loads(dump_model(compiled))
    assert data["format_version"] == FORMAT_VERSION == 5
    tiles = [blk["tile"] for blk in data["blocks"] if blk["tile"]]
    assert tiles
    for tile in tiles:
        assert "meta" not in tile and "op_metas" not in tile
        assert "version" not in tile["access_meta"]
    blocks = load_blocks(dump_model(compiled))
    for original, restored in zip(compiled.blocks, blocks):
        if original.tile is None:
            continue
        assert restored["tile"].op_ranges == original.tile.op_ranges
        assert restored["tile"].meta == original.tile.meta
        assert restored["tile"].op_metas == original.tile.op_metas
