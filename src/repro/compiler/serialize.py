"""Serialization of compiled models (the deployable artifact).

A :class:`~repro.compiler.compiler.CompiledModel` is flattened into a
JSON-friendly dictionary: instruction words as hex, transfer/permute
bindings, access claims, tile counts, and GEMM costs. ``load_compiled``
restores an executable-equivalent object (programs decode from their
packed words, so this also proves the binary encoding is lossless for
every compiled benchmark).
"""

from __future__ import annotations

import json
import re
import struct
from typing import Dict, List

from ..gemm import GemmCost
from ..isa import Namespace, ProgramDecodeError, TandemProgram
from ..runtime.cache import _json_scalar
from .ir import PermuteSlot, TransferSlot
from .lowering import LoweredTile

# Version 2 adds per-block node references (``gemm_node``/``op_nodes``)
# so a full CompiledModel can be rebuilt against a deterministic graph.
# Version 3 adds per-tile access metadata (``access_meta``) so the
# verifier's translation-validation pass can re-check reloaded
# artifacts, not just fresh compiles.
# Version 4 writes compact JSON and packs each tile's words into one hex
# string, 8 characters per word.
# Version 5 stores each tile's words, bindings, access claims and
# ``op_ranges`` only: the analytic metadata (``meta``/``op_metas``) is
# derived from the access claims on demand instead of stored beside them.
FORMAT_VERSION = 5

_HEX_DIGITS = re.compile(r"[0-9a-f]*")


def _words_to_hex(words: List[int]) -> str:
    return "".join([f"{w:08x}" for w in words])


def _words_from_hex(name: str, text) -> List[int]:
    """Parse a v4 ``words`` string; a torn or foreign record raises."""
    if not isinstance(text, str) or len(text) % 8:
        raise ProgramDecodeError(
            f"words of {name!r} are not a whole number of 8-digit hex words")
    if not _HEX_DIGITS.fullmatch(text):
        raise ProgramDecodeError(
            f"words of {name!r} contain a non-hex character")
    return list(struct.unpack(f">{len(text) // 8}I", bytes.fromhex(text)))


def _transfer_to_dict(slot: TransferSlot) -> Dict:
    return {
        "direction": slot.direction,
        "tensor": slot.tensor,
        "ns": slot.ns.name,
        "base": slot.base,
        "elements": slot.elements,
        "element_bytes": slot.element_bytes,
        "pre_reshape": slot.pre_reshape,
        "perm": slot.perm,
        "pad": slot.pad,
        "pad_value": slot.pad_value,
        "region": slot.region,
        "data_elements": slot.data_elements,
    }


def _transfer_from_dict(data: Dict) -> TransferSlot:
    def tup(value):
        if value is None:
            return None
        return tuple(tuple(v) if isinstance(v, list) else v for v in value)

    return TransferSlot(
        direction=data["direction"], tensor=data["tensor"],
        ns=Namespace[data["ns"]], base=data["base"],
        elements=data["elements"], element_bytes=data["element_bytes"],
        pre_reshape=tup(data["pre_reshape"]), perm=tup(data["perm"]),
        pad=tup(data["pad"]), pad_value=data["pad_value"],
        region=tup(data["region"]), data_elements=data["data_elements"])


def _permute_to_dict(slot: PermuteSlot) -> Dict:
    return {
        "src_ns": slot.src_ns.name, "src_base": slot.src_base,
        "dst_ns": slot.dst_ns.name, "dst_base": slot.dst_base,
        "shape": list(slot.shape), "perm": list(slot.perm),
        "cross_lane": slot.cross_lane,
    }


def _permute_from_dict(data: Dict) -> PermuteSlot:
    return PermuteSlot(
        src_ns=Namespace[data["src_ns"]], src_base=data["src_base"],
        dst_ns=Namespace[data["dst_ns"]], dst_base=data["dst_base"],
        shape=tuple(data["shape"]), perm=tuple(data["perm"]),
        cross_lane=data["cross_lane"])


def tile_to_dict(tile: LoweredTile) -> Dict:
    return {
        "program_name": tile.program.name,
        "words": _words_to_hex(tile.program.pack()),
        "transfers": [_transfer_to_dict(t) for t in tile.transfers],
        "permutes": [_permute_to_dict(p) for p in tile.permutes],
        "imm_values": list(tile.imm_values),
        "peak_words": tile.peak_words,
        "op_ranges": [list(op_range) for op_range in tile.op_ranges],
        "obuf_release_fraction": tile.obuf_release_fraction,
        "access_meta": tile.access_meta.to_dict(),
    }


def tile_from_dict(data: Dict) -> LoweredTile:
    # Imported lazily: the analysis package pulls the compiler in.
    from ..analysis.deps.access import TileAccessMeta

    name = data["program_name"]
    program = TandemProgram.unpack(name, _words_from_hex(name, data["words"]))
    return LoweredTile(
        program=program,
        access_meta=TileAccessMeta.from_dict(data["access_meta"]),
        transfers=[_transfer_from_dict(t) for t in data["transfers"]],
        permutes=[_permute_from_dict(p) for p in data["permutes"]],
        imm_values=list(data["imm_values"]),
        peak_words=data["peak_words"],
        op_ranges=[tuple(op_range) for op_range in data["op_ranges"]],
        obuf_release_fraction=data["obuf_release_fraction"])


def dump_model(model) -> str:
    """Serialize the deployable parts of a compiled model to JSON."""
    blocks = []
    for cb in model.blocks:
        blocks.append({
            "name": cb.name,
            "kind": cb.kind,
            "gemm_node": (cb.block.gemm.name
                          if cb.block.gemm is not None else None),
            "op_nodes": [op.name for op in cb.block.ops],
            "tiles": cb.tiles,
            "tile": tile_to_dict(cb.tile) if cb.tile is not None else None,
            "gemm_cost": (None if cb.gemm_cost is None else {
                "compute_cycles": cb.gemm_cost.compute_cycles,
                "dram_cycles": cb.gemm_cost.dram_cycles,
                "macs": cb.gemm_cost.macs,
                "dram_bytes": cb.gemm_cost.dram_bytes,
                "energy_pj": cb.gemm_cost.energy_pj,
            }),
            "stores": list(cb.stores),
        })
    return json.dumps({
        "format_version": FORMAT_VERSION,
        "model": model.name,
        "blocks": blocks,
    }, separators=(",", ":"), default=_json_scalar)


def load_blocks(text: str) -> List[Dict]:
    """Load the serialized form; returns block dicts with live objects.

    Each block dict carries ``tile`` (a :class:`LoweredTile` or None),
    ``tiles``, ``kind``, ``gemm_cost`` (a :class:`GemmCost` or None).
    """
    data = json.loads(text)
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported compiled-model format {data.get('format_version')}")
    blocks = []
    for blk in data["blocks"]:
        cost = None
        if blk["gemm_cost"] is not None:
            raw = blk["gemm_cost"]
            cost = GemmCost(compute_cycles=raw["compute_cycles"],
                            dram_cycles=raw["dram_cycles"], macs=raw["macs"],
                            dram_bytes=raw["dram_bytes"],
                            energy_pj=raw["energy_pj"])
        blocks.append({
            "name": blk["name"],
            "kind": blk["kind"],
            "gemm_node": blk.get("gemm_node"),
            "op_nodes": blk.get("op_nodes", []),
            "tiles": blk["tiles"],
            "tile": tile_from_dict(blk["tile"]) if blk["tile"] else None,
            "gemm_cost": cost,
            "stores": blk["stores"],
        })
    return blocks


def load_model(text: str, graph, sim_params, gemm_params):
    """Rebuild a full :class:`CompiledModel` from its serialized form.

    ``graph`` must be structurally identical to the graph the artifact
    was compiled from (the content-addressed cache guarantees this);
    block node objects are re-resolved by name against it.
    """
    from .compiler import CompiledBlock, CompiledModel
    from .fusion import Block

    by_name = {node.name: node for node in graph.nodes}
    blocks = []
    for blk in load_blocks(text):
        gemm = by_name[blk["gemm_node"]] if blk["gemm_node"] else None
        block = Block(gemm=gemm,
                      ops=[by_name[name] for name in blk["op_nodes"]])
        blocks.append(CompiledBlock(
            block=block, tiles=blk["tiles"], tile=blk["tile"],
            gemm_cost=blk["gemm_cost"], stores=list(blk["stores"])))
    return CompiledModel(graph=graph, blocks=blocks,
                         sim_params=sim_params, gemm_params=gemm_params)
