"""The detailed Tandem Processor machine.

Interprets a compiled :class:`~repro.isa.TandemProgram` instruction by
instruction: configuration instructions fill the Iterator Tables and the
Code Repeater, compute instructions are replayed over the configured
loop nest on real scratchpad data, TILE_LD_ST triggers the Data Access
Engine, and PERMUTE drives the permute engine. Cycle/energy accounting
follows the shared :mod:`pipeline` timing model.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import (TYPE_CHECKING, Deque, Dict, Iterable, List, Optional,
                    Tuple)

from ..isa import (
    AluFunc,
    CalculusFunc,
    ComparisonFunc,
    DatatypeConfigFunc,
    Instruction,
    IteratorConfigFunc,
    LdStFunc,
    LoopFunc,
    Namespace,
    Opcode,
    PermuteFunc,
    SyncFunc,
    TandemProgram,
    is_unary,
    reads_dst,
)
from ..telemetry import get_telemetry
from .alu import ALU_OPS, CALCULUS_OPS, COMPARISON_OPS, cast_value, wrap32
from .energy import EnergyLedger
from .iterators import IteratorTable, build_iterator_tables
from .params import SimParams
from .pipeline import BodyOpMeta, NestTiming, nest_timing

if TYPE_CHECKING:
    import numpy as np

    from ..compiler.ir import PermuteSlot
    from .dae import DramStore, TileTransfer


class MachineError(RuntimeError):
    """Illegal instruction sequence (compiler bug surfaced at runtime)."""


@dataclass
class SyncEvent:
    """A synchronization instruction observed at a given cycle."""

    func: SyncFunc
    group_id: int
    cycle: int


@dataclass
class MachineResult:
    """Outcome of running one program (one tile's non-GEMM work)."""

    cycles: int = 0
    compute_cycles: int = 0
    dae_cycles: int = 0
    config_cycles: int = 0
    permute_cycles: int = 0
    vector_issues: int = 0
    scalar_ops: int = 0
    instructions_decoded: int = 0
    energy: EnergyLedger = field(default_factory=EnergyLedger)
    sync_events: List[SyncEvent] = field(default_factory=list)
    obuf_release_cycle: Optional[int] = None

    @property
    def pipelined_cycles(self) -> int:
        """Tile latency with the DAE double-buffered against compute.

        Section 3.1: tile transfers appear only at tile boundaries and
        the Data Access Engine streams the next tile while the pipeline
        computes on the current one, so the slower of the two paths sets
        the tile rate.
        """
        compute = (self.compute_cycles + self.config_cycles
                   + self.permute_cycles)
        return max(compute, self.dae_cycles)

    def merge(self, other: "MachineResult") -> None:
        self.cycles += other.cycles
        self.compute_cycles += other.compute_cycles
        self.dae_cycles += other.dae_cycles
        self.config_cycles += other.config_cycles
        self.permute_cycles += other.permute_cycles
        self.vector_issues += other.vector_issues
        self.scalar_ops += other.scalar_ops
        self.instructions_decoded += other.instructions_decoded
        self.energy = self.energy.add(other.energy)


def charge_nest(timing: NestTiming, params: SimParams,
                result: MachineResult) -> None:
    """Charge one nest's cycles and energy onto ``result``.

    Shared by the detailed machine and the analytic model so the two
    agree by construction on nest bodies.
    """
    energy = params.energy
    result.cycles += timing.cycles
    result.compute_cycles += timing.cycles
    result.vector_issues += timing.vector_issues
    result.scalar_ops += timing.scalar_points
    result.energy.alu_pj += timing.scalar_points * energy.alu_pj_per_lane_op
    result.energy.spad_pj += timing.spad_accesses * energy.spad_pj_per_word
    result.energy.other_pj += (timing.vector_issues *
                               energy.pipeline_pj_per_issue)
    if params.overlay.explicit_address_calc:
        # Address arithmetic runs as ordinary instructions: decode + one
        # scalar ALU op each, no specialized loop/addr logic to charge.
        result.energy.other_pj += (timing.addr_calc_issues *
                                   energy.decode_pj_per_inst)
        result.energy.alu_pj += (timing.addr_calc_issues *
                                 energy.alu_pj_per_lane_op)
    else:
        result.energy.loop_addr_pj += (timing.vector_issues *
                                       energy.loop_addr_pj_per_issue)
    if timing.regfile_issues:
        lanes = params.tandem.lanes
        result.energy.regfile_pj += (timing.regfile_issues * lanes *
                                     (energy.regfile_pj_per_word +
                                      energy.spad_pj_per_word))
        result.energy.other_pj += (timing.regfile_issues *
                                   energy.decode_pj_per_inst)
    if params.overlay.regfile_loads:
        # Compute operands read from / written to the multi-ported vector
        # register file instead of the scratchpads.
        result.energy.regfile_pj += (timing.scalar_points * 3 *
                                     energy.regfile_pj_per_word)
    if timing.loop_branch_cycles:
        result.energy.other_pj += (timing.loop_branch_cycles *
                                   energy.decode_pj_per_inst)


class TandemMachine:
    """Functional + cycle-level model of the Tandem Processor pipeline."""

    def __init__(self, params: Optional[SimParams] = None,
                 dram: Optional[DramStore] = None, fast: bool = False):
        # The scratchpads and the DAE hold numpy arrays; the analytic
        # model shares this module without them.
        from .dae import DataAccessEngine, DramStore
        from .scratchpad import ScratchpadFile

        self.params = params or SimParams()
        #: Instruction-major numpy execution of hazard-free nests
        #: (see :mod:`repro.simulator.fastexec`); falls back to the
        #: point-major interpreter whenever independence is unproven.
        self.fast = fast
        tp = self.params.tandem
        self.pads = ScratchpadFile.build(
            interim_words=tp.interim_buf_words,
            obuf_words=tp.obuf_words,
            imm_slots=tp.imm_slots,
            vmem_words=tp.interim_buf_words,
        )
        self.iter_tables: Dict[Namespace, IteratorTable] = build_iterator_tables(
            tp.iter_table_entries)
        self.dram = dram or DramStore()
        self.dae = DataAccessEngine(self.dram, self.pads, self.params.dram,
                                    tp.frequency_hz)
        self.cast_mode: Optional[str] = None
        #: Active telemetry session while ``run`` executes with telemetry
        #: enabled; ``None`` otherwise, so instrumented paths pay one
        #: attribute check and nothing else.
        self._tel = None
        self._permute_config: Dict[str, list] = {"shape": [], "perm": []}
        #: Address-grid memo for the fast path, keyed on
        #: (base, strides, counts); grids are read-only once built.
        self._grid_cache: Dict[Tuple, np.ndarray] = {}

    # -- public API -----------------------------------------------------------
    def run(self, program: TandemProgram,
            transfers: Iterable[TileTransfer] = (),
            permutes: Iterable[PermuteSlot] = ()) -> MachineResult:
        """Execute a program; bindings are consumed in instruction order."""
        result = MachineResult()
        transfer_queue: Deque[TileTransfer] = deque(transfers)
        permute_queue: Deque[PermuteSlot] = deque(permutes)
        pending_loops: List[Tuple[int, int]] = []
        collecting: Optional[int] = None
        body: List[Instruction] = []
        self._first_transfer = True
        tel = get_telemetry()
        self._tel = tel if tel.enabled else None
        bytes_loaded0 = self.dae.bytes_loaded
        bytes_stored0 = self.dae.bytes_stored

        for inst in program:
            result.instructions_decoded += 1
            result.energy.other_pj += self.params.energy.decode_pj_per_inst
            if collecting is not None:
                body.append(inst)
                if len(body) == collecting:
                    self._run_nest(pending_loops, body, result)
                    pending_loops = []
                    collecting = None
                    body = []
                continue
            self._step(inst, result, pending_loops, transfer_queue,
                       permute_queue)
            if inst.opcode == Opcode.LOOP and inst.func == int(LoopFunc.SET_NUM_INST):
                collecting = inst.imm
                if collecting <= 0:
                    raise MachineError("LOOP.SET_NUM_INST with non-positive body")

        if collecting is not None:
            raise MachineError("program ended while collecting a loop body")
        if self._tel is not None:
            self._finish_run_counters(result, bytes_loaded0, bytes_stored0)
            self._tel = None
        return result

    # -- telemetry -----------------------------------------------------------
    def _finish_run_counters(self, result: MachineResult,
                             bytes_loaded0: int, bytes_stored0: int) -> None:
        """Program-level counters: cycle breakdown, DAE overlap, traffic.

        The overlap/stall split mirrors :meth:`MachineResult.pipelined_cycles`:
        the DAE double-buffers against compute, so the shorter path hides
        entirely and the difference stalls the tile on the longer one.
        """
        count = self._tel.count
        compute = (result.compute_cycles + result.config_cycles
                   + result.permute_cycles)
        count("sim.cycles.total", result.cycles)
        count("sim.cycles.compute", result.compute_cycles)
        count("sim.cycles.config", result.config_cycles)
        count("sim.cycles.permute", result.permute_cycles)
        count("sim.cycles.dae", result.dae_cycles)
        count("sim.insts.decoded", result.instructions_decoded)
        count("sim.dae.overlap_cycles", min(compute, result.dae_cycles))
        count("sim.stall.dae_bound_cycles",
              max(0, result.dae_cycles - compute))
        count("sim.stall.compute_bound_cycles",
              max(0, compute - result.dae_cycles))
        count("sim.dae.bytes_loaded", self.dae.bytes_loaded - bytes_loaded0)
        count("sim.dae.bytes_stored", self.dae.bytes_stored - bytes_stored0)

    _FUNC_ENUMS = {Opcode.ALU: AluFunc, Opcode.CALCULUS: CalculusFunc,
                   Opcode.COMPARISON: ComparisonFunc}

    def _count_nest(self, body: List[Instruction], counts: List[int],
                    timing: NestTiming) -> None:
        """Per-nest counters, derived statically from the body + counts.

        Derivation from the instruction shapes (not from observed
        scratchpad accesses) keeps the dumps identical between the
        point-major interpreter and the instruction-major fast path.
        """
        count = self._tel.count
        points = 1
        for c in counts:
            points *= c
        word_bytes = 4
        count("sim.code_repeater.fetches", len(body))
        if points > 1:
            count("sim.code_repeater.replays", (points - 1) * len(body))
        count("sim.pipeline.vector_issues", timing.vector_issues)
        if timing.reduce_tree_cycles:
            count("sim.stall.reduce_tree_cycles", timing.reduce_tree_cycles)
        count("sim.stall.pipeline_fill_cycles",
              self.params.tandem.pipeline_depth)
        for inst in body:
            func_name = self._FUNC_ENUMS[inst.opcode](inst.func).name.lower()
            count(f"sim.alu.ops.{inst.opcode.name.lower()}.{func_name}",
                  points)
            sources = ((inst.src1,) if is_unary(inst.opcode, inst.func)
                       else (inst.src1, inst.src2))
            srcs = [src for src in sources if src is not None]
            count("sim.iter_table.reads", points * (1 + len(srcs)))
            dst_ns = inst.dst.ns.name.lower()
            count(f"sim.spad.{dst_ns}.writes", points)
            count(f"sim.spad.{dst_ns}.write_bytes", points * word_bytes)
            if reads_dst(inst.opcode, inst.func):
                # The accumulator destination is read-modify-write.
                count(f"sim.spad.{dst_ns}.reads", points)
                count(f"sim.spad.{dst_ns}.read_bytes", points * word_bytes)
            for src in srcs:
                if src.ns != Namespace.IMM:
                    src_ns = src.ns.name.lower()
                    count(f"sim.spad.{src_ns}.reads", points)
                    count(f"sim.spad.{src_ns}.read_bytes",
                          points * word_bytes)

    # -- per-instruction dispatch ------------------------------------------------
    def _step(self, inst: Instruction, result: MachineResult,
              pending_loops: List[Tuple[int, int]],
              transfer_queue: Deque[TileTransfer],
              permute_queue: Deque[PermuteSlot]) -> None:
        opcode = inst.opcode
        if opcode == Opcode.SYNC:
            result.cycles += 1
            result.config_cycles += 1
            event = SyncEvent(SyncFunc(inst.func), inst.field5, result.cycles)
            result.sync_events.append(event)
            if event.func == SyncFunc.SIMD_END_BUF:
                result.obuf_release_cycle = result.cycles
            if self._tel is not None:
                self._tel.count("sim.sync.events")
                if event.func == SyncFunc.SIMD_END_BUF:
                    self._tel.count("sim.obuf.handoffs")
        elif opcode == Opcode.ITERATOR_CONFIG:
            self._configure_iterator(inst)
            result.cycles += 1
            result.config_cycles += 1
            if self._tel is not None:
                self._tel.count("sim.iter_table.writes")
        elif opcode == Opcode.DATATYPE_CONFIG or opcode == Opcode.DATATYPE_CAST:
            self.cast_mode = DatatypeConfigFunc(inst.func).name.lower()
            if self.cast_mode == "fxp32":
                self.cast_mode = None
            result.cycles += 1
            result.config_cycles += 1
        elif opcode == Opcode.LOOP:
            self._configure_loop(inst, pending_loops)
            result.cycles += 1
            result.config_cycles += 1
        elif opcode == Opcode.PERMUTE:
            self._permute(inst, result, permute_queue)
        elif opcode == Opcode.TILE_LD_ST:
            self._tile_ldst(inst, result, transfer_queue)
        elif opcode in (Opcode.ALU, Opcode.CALCULUS, Opcode.COMPARISON):
            # Bare compute instruction outside a loop body: one point.
            self._run_nest([], [inst], result)
        else:  # pragma: no cover - all opcodes handled
            raise MachineError(f"unhandled opcode {opcode}")

    def _configure_iterator(self, inst: Instruction) -> None:
        func = IteratorConfigFunc(inst.func)
        ns = Namespace(inst.field3)
        if func == IteratorConfigFunc.BASE_ADDR:
            self.iter_tables[ns].set_base(inst.field5, inst.imm)
        elif func == IteratorConfigFunc.STRIDE:
            self.iter_tables[ns].push_stride(inst.field5, inst.imm)
        elif func == IteratorConfigFunc.IMM_VALUE:
            # The 16-bit immediate field is sign-extended by the decoder;
            # an IMM_HIGH follow-up overwrites the upper half if needed.
            value = inst.imm & 0xFFFF
            if value >= 1 << 15:
                value -= 1 << 16
            self.pads[Namespace.IMM].write(inst.field5, value)
        elif func == IteratorConfigFunc.IMM_HIGH:
            low = self.pads[Namespace.IMM].read(inst.field5) & 0xFFFF
            self.pads[Namespace.IMM].write(
                inst.field5, wrap32(((inst.imm & 0xFFFF) << 16) | low))

    def _configure_loop(self, inst: Instruction,
                        pending_loops: List[Tuple[int, int]]) -> None:
        func = LoopFunc(inst.func)
        if func == LoopFunc.SET_ITER:
            if len(pending_loops) >= self.params.tandem.max_loop_levels:
                raise MachineError("loop nest deeper than 8 levels")
            if inst.imm <= 0:
                raise MachineError(f"loop {inst.field3} with {inst.imm} iterations")
            pending_loops.append((inst.field3, inst.imm))
        elif func == LoopFunc.SET_INDEX:
            # Iterator binding metadata; address mapping is carried by the
            # iterator-table strides in this implementation.
            pass

    # -- loop-nest execution ------------------------------------------------------
    def _operand_entry(self, ns: Namespace, iter_idx: int):
        return self.iter_tables[ns].lookup(iter_idx)

    def _body_meta(self, body: List[Instruction]) -> List[BodyOpMeta]:
        metas = []
        for inst in body:
            dst_entry = self._operand_entry(inst.dst.ns, inst.dst.iter_idx)
            sources = ((inst.src1,) if is_unary(inst.opcode, inst.func)
                       else (inst.src1, inst.src2))
            src_strides = []
            mem_reads = 0
            for src in sources:
                if src is None:
                    continue
                entry = self._operand_entry(src.ns, src.iter_idx)
                src_strides.append(entry.innermost_stride)
                if src.ns != Namespace.IMM:
                    mem_reads += 1
            metas.append(BodyOpMeta(
                dst_inner_stride=dst_entry.innermost_stride,
                src_inner_strides=tuple(src_strides),
                mem_reads=mem_reads,
                mem_writes=1,
            ))
        return metas

    def _run_nest(self, loops: List[Tuple[int, int]], body: List[Instruction],
                  result: MachineResult) -> None:
        counts = [count for _, count in loops] or [1]
        executed_fast = False
        if self.fast:
            from .fastexec import FastNestExecutor
            executor = FastNestExecutor(self, loops or [(0, 1)], body)
            if executor.supported():
                executor.run()
                executed_fast = True
        if not executed_fast:
            # Functional execution: point-major order, exactly the order
            # the Code Repeater replays the body.
            for point in iter_product(*(range(c) for c in counts)):
                for inst in body:
                    self._execute_point(inst, point)
        # Timing + energy via the shared model.
        metas = self._body_meta(body)
        timing = nest_timing(counts, metas, self.params.tandem,
                             self.params.overlay)
        charge_nest(timing, self.params, result)
        if self._tel is not None:
            self._count_nest(body, counts, timing)

    def _execute_point(self, inst: Instruction, point: Tuple[int, ...]) -> None:
        src1 = self._read_operand(inst.src1, point)
        if inst.opcode == Opcode.ALU:
            func = AluFunc(inst.func)
            if func == AluFunc.MACC:
                src2 = self._read_operand(inst.src2, point)
                acc = self._read_operand(inst.dst, point)
                value = acc + src1 * src2
            elif func == AluFunc.COND_MOVE:
                src2 = self._read_operand(inst.src2, point)
                if not src2:
                    return
                value = src1
            elif func in (AluFunc.NOT, AluFunc.MOVE):
                value = ALU_OPS[func](src1, 0)
            else:
                src2 = self._read_operand(inst.src2, point)
                value = ALU_OPS[func](src1, src2)
        elif inst.opcode == Opcode.CALCULUS:
            value = CALCULUS_OPS[CalculusFunc(inst.func)](src1)
        elif inst.opcode == Opcode.COMPARISON:
            src2 = self._read_operand(inst.src2, point)
            value = COMPARISON_OPS[ComparisonFunc(inst.func)](src1, src2)
        else:  # pragma: no cover
            raise MachineError(f"not a compute opcode: {inst.opcode}")
        if self.cast_mode is not None:
            value = cast_value(value, self.cast_mode)
        self._write_operand(inst.dst, point, value)

    def _read_operand(self, operand, point: Tuple[int, ...]) -> int:
        entry = self._operand_entry(operand.ns, operand.iter_idx)
        return self.pads[operand.ns].read(entry.address(point))

    def _write_operand(self, operand, point: Tuple[int, ...], value: int) -> None:
        entry = self._operand_entry(operand.ns, operand.iter_idx)
        self.pads[operand.ns].write(entry.address(point), value)

    # -- permute engine ----------------------------------------------------------
    def _permute(self, inst: Instruction, result: MachineResult,
                 permute_queue: Deque[PermuteSlot]) -> None:
        import numpy as np

        func = PermuteFunc(inst.func)
        if func != PermuteFunc.START:
            result.cycles += 1
            result.config_cycles += 1
            return
        if not permute_queue:
            raise MachineError("PERMUTE.START without a bound permutation")
        binding = permute_queue.popleft()
        src = self.pads[binding.src_ns].store_block(
            binding.src_base, int(np.prod(binding.shape)))
        permuted = np.ascontiguousarray(
            src.reshape(binding.shape).transpose(binding.perm))
        self.pads[binding.dst_ns].load_block(binding.dst_base, permuted)
        lanes = self.params.tandem.lanes
        words = permuted.size
        cycles = math.ceil(words / lanes) * (2 if binding.cross_lane else 1)
        cycles += self.params.tandem.pipeline_depth
        result.cycles += cycles
        result.permute_cycles += cycles
        if self._tel is not None:
            self._tel.count("sim.permute.starts")
            self._tel.count("sim.permute.words", words)
        energy = self.params.energy
        result.energy.spad_pj += 2 * words * energy.spad_pj_per_word
        result.energy.loop_addr_pj += (math.ceil(words / lanes) *
                                       energy.loop_addr_pj_per_issue)

    # -- Data Access Engine --------------------------------------------------------
    def _tile_ldst(self, inst: Instruction, result: MachineResult,
                   transfer_queue: Deque[TileTransfer]) -> None:
        func = LdStFunc(inst.func)
        if func not in (LdStFunc.LD_START, LdStFunc.ST_START):
            result.cycles += 1
            result.config_cycles += 1
            return
        if not transfer_queue:
            raise MachineError(f"{func.name} without a bound tile transfer")
        transfer = transfer_queue.popleft()
        expected = "ld" if func == LdStFunc.LD_START else "st"
        if transfer.direction != expected:
            raise MachineError(
                f"{func.name} bound to a {transfer.direction!r} transfer")
        cycles, energy_pj = self.dae.execute(transfer, self._first_transfer)
        self._first_transfer = False
        result.cycles += cycles
        result.dae_cycles += cycles
        result.energy.dram_pj += energy_pj
        if self._tel is not None:
            self._tel.count("sim.dae.loads" if func == LdStFunc.LD_START
                            else "sim.dae.stores")
