"""Serialization of compiled models (the deployable artifact).

A :class:`~repro.compiler.compiler.CompiledModel` becomes one compact
JSON document with two parts:

- ``programs``: each distinct lowered program, stored once. An entry
  holds the instruction words as one hex string (8 characters per
  word), the transfer and permute bindings, the access claims, the imm
  values, ``peak_words``, ``op_ranges`` and the Output BUF release
  point. DRAM tensors are written as indices, so blocks that differ
  only in their tensor names share an entry.
- ``blocks``: per block, its node references, tile count, GEMM cost and
  stores, and a ``tile`` that binds one entry to the block's names:
  ``{"program": id, "name": program name, "tensors": [names...]}``.

:func:`load_blocks` decodes each entry once and gives every block its
own tile through ``compiler._rebind_tile``, the one place a tile is
renamed. Programs decode from their packed words, so loading also
proves the binary encoding is lossless for every compiled benchmark.
"""

from __future__ import annotations

import json
import re
import struct
from itertools import chain
from typing import Dict, List, Tuple

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
# Version 6 stores each distinct program once, in a ``programs`` table
# with tensors as indices; each block binds an entry to its own names.
FORMAT_VERSION = 6

_JSON = {"separators": (",", ":"), "default": _json_scalar}
_HEX_DIGITS = re.compile(r"[0-9a-f]*")


def _words_to_hex(words: List[int]) -> str:
    return "".join([f"{w:08x}" for w in words])


def _words_from_hex(name: str, text) -> List[int]:
    """Parse a ``words`` string; a torn or foreign record raises."""
    if not isinstance(text, str) or len(text) % 8:
        raise ProgramDecodeError(
            f"words of {name!r} are not a whole number of 8-digit hex words")
    if not _HEX_DIGITS.fullmatch(text):
        raise ProgramDecodeError(
            f"words of {name!r} contain a non-hex character")
    return list(struct.unpack(f">{len(text) // 8}I", bytes.fromhex(text)))


def _transfer_to_dict(slot: TransferSlot, tensor: int) -> Dict:
    return {
        "direction": slot.direction,
        "tensor": tensor,
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


def _tensors(tile: LoweredTile) -> List[str]:
    """The DRAM tensors ``tile`` binds, in order of first appearance."""
    access = tile.access_meta
    return list(dict.fromkeys(chain(
        (slot.tensor for slot in tile.transfers),
        (claim.tensor for claim in access.transfers),
        chain.from_iterable(access.dram_alias.items()))))


def _program_entry(tile: LoweredTile) -> str:
    """``tile``'s program-table entry: everything but its names."""
    index = {name: i for i, name in enumerate(_tensors(tile))}
    access = tile.access_meta.to_dict()
    for claim in access["transfers"]:
        claim["tensor"] = index[claim["tensor"]]
    access["dram_alias"] = [[index[alias], index[root]] for alias, root
                            in tile.access_meta.dram_alias.items()]
    return json.dumps({
        "words": _words_to_hex(tile.program.pack()),
        "transfers": [_transfer_to_dict(t, index[t.tensor])
                      for t in tile.transfers],
        "permutes": [_permute_to_dict(p) for p in tile.permutes],
        "imm_values": list(tile.imm_values),
        "peak_words": tile.peak_words,
        "op_ranges": [list(op_range) for op_range in tile.op_ranges],
        "obuf_release_fraction": tile.obuf_release_fraction,
        "access_meta": access,
    }, **_JSON)


def _decode_program(block: str, name: str,
                    entry: Dict) -> Tuple[LoweredTile, int]:
    """One program-table entry as a template tile, and its tensor count.

    The template's tensors are the entry's indices, so binding it to a
    block maps index ``i`` to the block's ``tensors[i]``.
    """
    # Imported lazily: the analysis package pulls the compiler in.
    from ..analysis.deps.access import TileAccessMeta

    access = entry["access_meta"]
    indices = list(chain(
        (slot["tensor"] for slot in entry["transfers"]),
        (claim["tensor"] for claim in access["transfers"]),
        chain.from_iterable(access["dram_alias"])))
    if not all(type(i) is int and i >= 0 for i in indices):
        raise ProgramDecodeError(
            f"the program of block {block!r} binds a tensor by something "
            f"other than an index")
    program = TandemProgram.unpack(name, _words_from_hex(name, entry["words"]))
    template = LoweredTile(
        program=program,
        access_meta=TileAccessMeta.from_dict(access),
        transfers=[_transfer_from_dict(t) for t in entry["transfers"]],
        permutes=[_permute_from_dict(p) for p in entry["permutes"]],
        imm_values=list(entry["imm_values"]),
        peak_words=entry["peak_words"],
        op_ranges=[tuple(op_range) for op_range in entry["op_ranges"]],
        obuf_release_fraction=entry["obuf_release_fraction"])
    return template, max(indices, default=-1) + 1


def dump_model(model) -> str:
    """Serialize the deployable parts of a compiled model to JSON."""
    programs: Dict[str, int] = {}      # entry text -> program id
    encoded: Dict[int, int] = {}       # id(template tile) -> program id
    blocks = []
    for cb in model.blocks:
        tile = None
        if cb.tile is not None:
            # A rebound tile is its template renamed: encode that once.
            template = cb.tile.template or cb.tile
            if id(template) not in encoded:
                encoded[id(template)] = programs.setdefault(
                    _program_entry(template), len(programs))
            tile = {"program": encoded[id(template)],
                    "name": cb.tile.program.name,
                    "tensors": _tensors(cb.tile)}
        blocks.append({
            "name": cb.name,
            "kind": cb.kind,
            "gemm_node": (cb.block.gemm.name
                          if cb.block.gemm is not None else None),
            "op_nodes": [op.name for op in cb.block.ops],
            "tiles": cb.tiles,
            "tile": tile,
            "gemm_cost": (None if cb.gemm_cost is None else {
                "compute_cycles": cb.gemm_cost.compute_cycles,
                "dram_cycles": cb.gemm_cost.dram_cycles,
                "macs": cb.gemm_cost.macs,
                "dram_bytes": cb.gemm_cost.dram_bytes,
                "energy_pj": cb.gemm_cost.energy_pj,
            }),
            "stores": list(cb.stores),
        })
    # The entries are already encoded; splice them in rather than
    # decoding and re-encoding them.
    return '{"format_version":%d,"model":%s,"programs":[%s],"blocks":%s}' % (
        FORMAT_VERSION, json.dumps(model.name), ",".join(programs),
        json.dumps(blocks, **_JSON))


def _bind(blk: Dict, programs: List,
          templates: Dict[int, Tuple[LoweredTile, int]]) -> LoweredTile:
    """Block ``blk``'s tile: its program-table entry under its names.

    ``templates`` holds each entry decoded so far, so an entry shared by
    many blocks is decoded once.
    """
    from .compiler import _rebind_tile

    block, ref = blk["name"], blk["tile"]
    pid, name, tensors = ref["program"], ref["name"], ref["tensors"]
    if type(pid) is not int or not 0 <= pid < len(programs):
        raise ProgramDecodeError(
            f"block {block!r} names program {pid!r}, which the table of "
            f"{len(programs)} lacks")
    if pid not in templates:
        if not isinstance(programs[pid], dict):
            raise ProgramDecodeError(
                f"program {pid} of block {block!r} is not an object")
        templates[pid] = _decode_program(block, name, programs[pid])
    template, arity = templates[pid]
    if not isinstance(tensors, list) or not all(
            isinstance(tensor, str) for tensor in tensors):
        raise ProgramDecodeError(
            f"the tensors of block {block!r} are not a list of names")
    if len(tensors) < arity:
        raise ProgramDecodeError(
            f"block {block!r} binds tensor index {arity - 1}, outside its "
            f"{len(tensors)} tensors")
    return _rebind_tile(template, name, dict(enumerate(tensors)))


def load_blocks(text: str) -> List[Dict]:
    """Load the serialized form; returns block dicts with live objects.

    Each block dict carries ``tile`` (a :class:`LoweredTile` or None),
    ``tiles``, ``kind``, ``gemm_cost`` (a :class:`GemmCost` or None).
    A block that names a missing program, or a tensor index its
    ``tensors`` lack, raises :class:`ProgramDecodeError`.
    """
    data = json.loads(text)
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported compiled-model format {data.get('format_version')}")
    programs = data["programs"]
    templates: Dict[int, Tuple[LoweredTile, int]] = {}
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
            "tile": _bind(blk, programs, templates) if blk["tile"] else None,
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
