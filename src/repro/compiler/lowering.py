"""Lowering: compiler IR -> Figure 12 instruction stream + access claims.

The lowered program for one tile follows the Section 5 structure:

  SYNC SIMD_START_EXEC
  IMM BUF configuration (ITERATOR_CONFIG.IMM_VALUE/IMM_HIGH)
  per event, in emission order:
    transfer -> TILE_LD_ST configuration + LD/ST_START
    permute  -> PERMUTE configuration + START
    nest     -> ITERATOR_CONFIG base/stride per operand, LOOP.SET_ITER per
                level, LOOP.SET_NUM_INST, then the body's compute words
                (bracketed by DATATYPE_CAST for casting nests)
  SYNC SIMD_END_BUF   (woven right after the last Output BUF consumer)
  SYNC SIMD_END_EXEC
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..isa import (
    DatatypeConfigFunc,
    Instruction,
    LdStFunc,
    Namespace,
    Opcode,
    Operand,
    PermuteFunc,
    SyncFunc,
    TandemProgram,
    iterator_base,
    iterator_stride,
    loop_iter,
    loop_num_inst,
    permute as permute_inst,
    set_immediate,
    sync,
    tile_ldst,
)
from ..simulator.analytic import AnalyticNest, ProgramMeta
from ..simulator.pipeline import BodyOpMeta
from .ir import CompileError, Nest, PermuteSlot, TileContext, TransferSlot

if TYPE_CHECKING:
    from ..analysis.deps.access import TileAccessMeta

_CAST_FUNC = {
    "int8": DatatypeConfigFunc.FXP8,
    "fxp8": DatatypeConfigFunc.FXP8,
    "int16": DatatypeConfigFunc.FXP16,
    "fxp16": DatatypeConfigFunc.FXP16,
    "fxp4": DatatypeConfigFunc.FXP4,
    "int32": DatatypeConfigFunc.FXP32,
    "fxp32": DatatypeConfigFunc.FXP32,
}


@dataclass
class LoweredTile:
    """One tile's instruction stream plus everything needed to run it.

    The access claims plus the transfer and permute slots are the only
    record of the tile's events: the analytic model's :attr:`meta` and
    :attr:`op_metas` are derived from them on demand (see
    :attr:`timing_key`).
    """

    program: TandemProgram
    #: IR-level access claims (operand walks, transfer bindings,
    #: forwarding claims) the verifier's deps pass checks in the binary.
    access_meta: "TileAccessMeta"
    transfers: List[TransferSlot] = field(default_factory=list)
    permutes: List[PermuteSlot] = field(default_factory=list)
    imm_values: List[int] = field(default_factory=list)
    peak_words: int = 0
    #: Per-source-operator event ranges ``(op_type label, first event,
    #: end event, config words)`` for the per-layer-type runtime
    #: breakdowns (Figure 24).
    op_ranges: List[Tuple[str, int, int, int]] = field(default_factory=list)
    #: Fractional position of the SIMD_END_BUF sync in the instruction
    #: stream (1.0 when the program never releases the Output BUF early).
    obuf_release_fraction: float = 1.0
    #: The tile ``compiler._rebind_tile`` bound this one from, or None
    #: for a tile lowered or decoded on its own. Tiles sharing a template
    #: are one program under different names, so the artifact encodes
    #: them once; tiles are read-only once bound. ``dataclasses.replace``
    #: drops the link.
    template: Optional["LoweredTile"] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def timing_key(self) -> tuple:
        """Everything :attr:`meta` and :attr:`op_metas` are derived from.

        Tiles with equal keys time identically whatever their names, so
        the evaluator estimates each distinct key once.
        """
        access = self.access_meta
        return (len(self.program), len(self.transfers), len(self.permutes),
                tuple(access.nests),
                tuple((claim.event, slot.direction, slot.nbytes)
                      for claim, slot in zip(access.transfers,
                                             self.transfers)),
                tuple((claim.event, slot.words, slot.cross_lane)
                      for claim, slot in zip(access.permutes, self.permutes)),
                tuple(self.op_ranges))

    @property
    def meta(self) -> ProgramMeta:
        """The analytic model's view of the whole tile."""
        # START words are timed as transfers/permutes, not as config.
        config = (len(self.program) - len(self.transfers) - len(self.permutes)
                  - sum(len(nest.stmts) for nest in self.access_meta.nests))
        return self._events_meta(0, math.inf, config)

    @property
    def op_metas(self) -> List[Tuple[str, ProgramMeta]]:
        """``(op_type label, ProgramMeta slice)`` per source operator."""
        return [(label, self._events_meta(first, end, config))
                for label, first, end, config in self.op_ranges]

    def _events_meta(self, first: int, end: float,
                     config_instructions: int) -> ProgramMeta:
        """Analytic metadata of the events in ``[first, end)``."""
        access = self.access_meta
        meta = ProgramMeta(
            nests=[AnalyticNest(nest.counts, tuple(map(_body_op, nest.stmts)))
                   for nest in access.nests if first <= nest.event < end],
            config_instructions=config_instructions)
        for claim, slot in zip(access.transfers, self.transfers):
            if first <= claim.event < end:
                (meta.dram_loads if slot.direction == "ld"
                 else meta.dram_stores).append(slot.nbytes)
        for claim, slot in zip(access.permutes, self.permutes):
            if first <= claim.event < end:
                meta.permute_words += slot.words
                meta.permute_count += 1
                meta.permute_cross_lane = slot.cross_lane
        return meta


def _body_op(stmt) -> BodyOpMeta:
    """One statement's timing view: innermost strides and memory ports."""
    inner = [walk.strides[-1] if walk.strides else 0 for walk in stmt]
    return BodyOpMeta(
        dst_inner_stride=inner[0], src_inner_strides=tuple(inner[1:]),
        mem_reads=sum(src.ns != "IMM" for src in stmt[1:]), mem_writes=1)


def lower_tile(ctx: TileContext, name: str,
               reads_obuf: bool = False,
               op_ranges: Optional[List[Tuple[str, int, int]]] = None
               ) -> LoweredTile:
    """Lower one tile's worth of IR into a Tandem program.

    ``op_ranges`` optionally labels half-open event-index ranges with the
    operator that emitted them, for per-operator cost attribution.
    """
    # Imported lazily: the analysis package pulls the compiler in.
    from ..analysis.deps.access import collect_access_meta

    program = TandemProgram(name)
    out = LoweredTile(program=program,
                      access_meta=collect_access_meta(ctx),
                      imm_values=list(ctx.imm_values),
                      peak_words=ctx.peak_words)

    program.append(sync(SyncFunc.SIMD_START_EXEC))
    for slot, value in enumerate(ctx.imm_values):
        program.extend(set_immediate(slot, value))

    #: Configuration words (START words included) each event lowers to.
    config_words: List[int] = []
    last_obuf_event = _last_obuf_event(ctx) if reads_obuf else None
    for index, event in enumerate(ctx.events):
        words_before = len(program)
        body = 0
        if isinstance(event, Nest):
            _lower_nest(program, event)
            body = len(event.body)
        elif isinstance(event, TransferSlot):
            _lower_transfer(program, event)
            out.transfers.append(event)
        elif isinstance(event, PermuteSlot):
            _lower_permute(program, event)
            out.permutes.append(event)
        else:  # pragma: no cover - event list is closed
            raise CompileError(f"unknown event {event!r}")
        config_words.append(len(program) - words_before - body)
        if last_obuf_event is not None and index == last_obuf_event:
            program.append(sync(SyncFunc.SIMD_END_BUF))
            release_position = len(program)
    program.append(sync(SyncFunc.SIMD_END_EXEC))

    out.op_ranges = [(label, first, end, sum(config_words[first:end]))
                     for label, first, end in op_ranges or ()]
    if last_obuf_event is not None:
        out.obuf_release_fraction = release_position / len(program)
    return out


def _last_obuf_event(ctx: TileContext) -> Optional[int]:
    last = None
    for index, event in enumerate(ctx.events):
        if isinstance(event, Nest):
            for stmt in event.body:
                refs = [stmt.src1, stmt.src2]
                if any(r is not None and r.ns == Namespace.OBUF for r in refs):
                    last = index
        elif isinstance(event, PermuteSlot):
            if event.src_ns == Namespace.OBUF:
                last = index
    return last


def _lower_nest(program: TandemProgram, nest: Nest) -> None:
    loop_vars = [var for var, _ in nest.loops]

    # Allocate iterator-table entries: one per distinct (ns, base,
    # stride-vector) operand reference, per namespace.
    next_idx: Dict[Namespace, int] = {}
    assigned: Dict[Tuple, int] = {}

    def iter_index(ref) -> int:
        key = (ref.ns,) + tuple(ref.key(loop_vars))
        if key in assigned:
            return assigned[key]
        idx = next_idx.get(ref.ns, 0)
        if idx >= 32:
            raise CompileError(
                f"nest needs more than 32 iterator entries in {ref.ns.name}")
        next_idx[ref.ns] = idx + 1
        assigned[key] = idx
        program.append(iterator_base(ref.ns, idx, ref.base))
        for var in loop_vars:
            program.append(iterator_stride(ref.ns, idx, ref.stride(var)))
        return idx

    body_words: List[Instruction] = []
    for stmt in nest.body:
        dst_idx = iter_index(stmt.dst)
        src1_idx = iter_index(stmt.src1)
        src2 = stmt.src2 if stmt.src2 is not None else stmt.src1
        src2_idx = iter_index(src2)
        body_words.append(Instruction(
            opcode=stmt.opcode, func=stmt.func,
            dst=Operand(stmt.dst.ns, dst_idx),
            src1=Operand(stmt.src1.ns, src1_idx),
            src2=Operand(src2.ns, src2_idx)))

    if nest.cast_to is not None:
        program.append(Instruction(Opcode.DATATYPE_CAST,
                                   int(_CAST_FUNC[nest.cast_to])))
    for level, (var, count) in enumerate(nest.loops):
        program.append(loop_iter(level, count))
    program.append(loop_num_inst(len(nest.body)))
    program.extend(body_words)
    if nest.cast_to is not None:
        program.append(Instruction(Opcode.DATATYPE_CAST,
                                   int(DatatypeConfigFunc.FXP32)))


def _lower_transfer(program: TandemProgram, slot: TransferSlot) -> None:
    is_load = slot.direction == "ld"
    base_func = (LdStFunc.LD_CONFIG_BASE_ADDR if is_load
                 else LdStFunc.ST_CONFIG_BASE_ADDR)
    iter_func = (LdStFunc.LD_CONFIG_BASE_LOOP_ITER if is_load
                 else LdStFunc.ST_CONFIG_BASE_LOOP_ITER)
    stride_func = (LdStFunc.LD_CONFIG_BASE_LOOP_STRIDE if is_load
                   else LdStFunc.ST_CONFIG_BASE_LOOP_STRIDE)
    tile_iter_func = (LdStFunc.LD_CONFIG_TILE_LOOP_ITER if is_load
                      else LdStFunc.ST_CONFIG_TILE_LOOP_ITER)
    tile_stride_func = (LdStFunc.LD_CONFIG_TILE_LOOP_STRIDE if is_load
                        else LdStFunc.ST_CONFIG_TILE_LOOP_STRIDE)
    start_func = LdStFunc.LD_START if is_load else LdStFunc.ST_START

    dims = slot.pre_reshape or (slot.elements,)
    program.append(tile_ldst(base_func, slot.ns, 0, slot.base & 0xFFFF))
    for level, dim in enumerate(dims):
        program.append(tile_ldst(iter_func, slot.ns, level, dim & 0xFFFF))
        program.append(tile_ldst(stride_func, slot.ns, level, 1))
    for level, dim in enumerate(dims):
        program.append(tile_ldst(tile_iter_func, slot.ns, level, dim & 0xFFFF))
        program.append(tile_ldst(tile_stride_func, slot.ns, level, 1))
    program.append(tile_ldst(start_func, slot.ns))


def _lower_permute(program: TandemProgram, slot: PermuteSlot) -> None:
    program.append(permute_inst(PermuteFunc.SET_BASE_ADDR, 0, 0,
                                slot.src_base & 0xFFFF))
    program.append(permute_inst(PermuteFunc.SET_BASE_ADDR, 1, 0,
                                slot.dst_base & 0xFFFF))
    for dim, size in enumerate(slot.shape):
        program.append(permute_inst(PermuteFunc.SET_LOOP_ITER, 0, dim,
                                    size & 0xFFFF))
        program.append(permute_inst(PermuteFunc.SET_LOOP_STRIDE, 0, dim,
                                    slot.perm[dim]))
    program.append(permute_inst(PermuteFunc.START, 0, 0,
                                1 if slot.cross_lane else 0))
