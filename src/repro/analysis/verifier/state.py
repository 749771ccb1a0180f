"""Abstract interpretation of a Tandem program's machine state.

One linear walk over the instruction stream mirrors exactly what
:class:`~repro.simulator.machine.TandemMachine` tracks — iterator
tables, the Code Repeater's pending-loop/body-collection protocol, IMM
BUF writes, Data Access Engine configuration, sync events — but over
*symbolic* strided address ranges instead of data. The walk produces a
:class:`ProgramTrace` that every verifier/lint pass consumes, so the
stream is decoded once no matter how many passes run.

Addresses are evaluated as intervals: an operand whose iterator entry
holds ``base`` plus per-level ``strides`` over trip counts ``counts``
touches addresses in ``[base + Σ min(0, s·(c-1)), base + Σ max(0,
s·(c-1))]`` — exact for the extremes of every strided walk, and a
conservative over-approximation in between (the right direction for
bounds proofs and for keeping dead-store lints honest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Tuple

from ...isa import (
    Instruction,
    IteratorConfigFunc,
    LdStFunc,
    LoopFunc,
    Namespace,
    Opcode,
    PermuteFunc,
    SyncFunc,
    TandemProgram,
    is_compute_opcode,
    is_unary,
    reads_dst,
)
from ...simulator.params import TandemParams
from .findings import Finding, Severity, snippet_at


def capacities(params: TandemParams) -> Dict[Namespace, int]:
    """Words per namespace, matching :meth:`ScratchpadFile.build`."""
    return {
        Namespace.IBUF1: params.interim_buf_words,
        Namespace.IBUF2: params.interim_buf_words,
        Namespace.OBUF: params.obuf_words,
        Namespace.IMM: params.imm_slots,
        Namespace.VMEM: params.interim_buf_words,
    }


@dataclass
class EntryConfig:
    """One iterator-table configuration epoch (BASE_ADDR .. overwrite)."""

    ns: Namespace
    idx: int
    base: int
    strides: List[int] = field(default_factory=list)
    pc: int = -1               # pc of the BASE_ADDR word
    used: bool = False


@dataclass
class OperandUse:
    """One operand of one body instruction, resolved at nest dispatch."""

    pc: int                    # body instruction index
    role: str                  # "dst" | "src1" | "src2"
    ns: Namespace
    iter_idx: int
    reads: bool
    writes: bool
    entry: Optional[EntryConfig]   # None when used-before-configuration
    lo: int = 0                # inclusive address interval, valid if entry
    hi: int = 0
    levels: int = 0            # loop levels the address walk spans


@dataclass
class NestTrace:
    """One Code Repeater activation: loops + body + resolved operands."""

    header_pc: int             # pc of LOOP.SET_NUM_INST
    loops: List[Tuple[int, int, int]]   # (loop_id, count, pc)
    body: List[Tuple[int, Instruction]]
    uses: List[OperandUse] = field(default_factory=list)

    @property
    def counts(self) -> List[int]:
        return [count for _, count, _ in self.loops] or [1]


@dataclass
class TransferTrace:
    """One DAE activation as configured by the instruction stream."""

    start_pc: int
    direction: str             # "ld" | "st"
    ns: Namespace
    base: int
    elements: Optional[int]    # product of configured dims (None if none)


@dataclass
class PermuteTrace:
    """One permute-engine activation (namespaces are runtime-bound)."""

    start_pc: int
    src_base: int
    dst_base: int
    words: Optional[int]


@dataclass
class ProgramTrace:
    """Everything the passes need, from one decode of the stream."""

    program: TandemProgram
    params: TandemParams
    nests: List[NestTrace] = field(default_factory=list)
    transfers: List[TransferTrace] = field(default_factory=list)
    permutes: List[PermuteTrace] = field(default_factory=list)
    configs: List[EntryConfig] = field(default_factory=list)
    imm_written: Dict[int, int] = field(default_factory=dict)  # slot -> pc
    sync_events: List[Tuple[int, int]] = field(default_factory=list)
    release_pcs: List[int] = field(default_factory=list)
    structural: List[Finding] = field(default_factory=list)

    @property
    def uses(self) -> List[OperandUse]:
        return [use for nest in self.nests for use in nest.uses]


def interpret(program: TandemProgram,
              params: Optional[TandemParams] = None) -> ProgramTrace:
    """Run the abstract machine over ``program`` and build its trace.

    Structural violations of the Code Repeater protocol (the ones
    :class:`TandemMachine` would raise ``MachineError`` for, plus the
    ones it silently tolerates) are recorded as findings on
    ``trace.structural`` for the loop-validation pass to report.
    """
    params = params or TandemParams()
    trace = ProgramTrace(program=program, params=params)
    tables: Dict[Tuple[Namespace, int], EntryConfig] = {}
    pending_loops: List[Tuple[int, int, int]] = []   # (loop_id, count, pc)
    dae_config: Dict[str, Dict] = {
        "ld": {"ns": None, "base": 0, "dims": {}},
        "st": {"ns": None, "base": 0, "dims": {}},
    }
    permute_config = {"src_base": None, "dst_base": None, "dims": {}}

    def structural(rule: str, severity: Severity, pc: int, msg: str) -> None:
        trace.structural.append(Finding(
            severity=severity, rule=rule, message=msg, pc=pc,
            snippet=snippet_at(program, pc)))

    insts = program.instructions
    pc = 0
    while pc < len(insts):
        inst = insts[pc]
        opcode = inst.opcode

        if opcode == Opcode.SYNC:
            trace.sync_events.append((pc, inst.func))
            if inst.func == int(SyncFunc.SIMD_END_BUF):
                trace.release_pcs.append(pc)

        elif opcode == Opcode.ITERATOR_CONFIG:
            try:
                func = IteratorConfigFunc(inst.func)
            except ValueError:
                pc += 1
                continue  # the decode pass reports illegal funcs
            if func == IteratorConfigFunc.BASE_ADDR:
                try:
                    ns = Namespace(inst.field3)
                except ValueError:
                    pc += 1
                    continue
                entry = EntryConfig(ns=ns, idx=inst.field5, base=inst.imm,
                                    pc=pc)
                tables[(ns, inst.field5)] = entry
                trace.configs.append(entry)
            elif func == IteratorConfigFunc.STRIDE:
                try:
                    ns = Namespace(inst.field3)
                except ValueError:
                    pc += 1
                    continue
                entry = tables.get((ns, inst.field5))
                if entry is None:
                    # The machine setdefault()s a zero-base entry here;
                    # record the implicit epoch so later uses resolve.
                    entry = EntryConfig(ns=ns, idx=inst.field5, base=0, pc=pc)
                    tables[(ns, inst.field5)] = entry
                    trace.configs.append(entry)
                entry.strides.append(inst.imm)
            elif func == IteratorConfigFunc.IMM_VALUE:
                trace.imm_written.setdefault(inst.field5, pc)
            # IMM_HIGH only patches a previously written slot.

        elif opcode == Opcode.LOOP:
            if inst.func == int(LoopFunc.SET_ITER):
                if len(pending_loops) >= params.max_loop_levels:
                    structural(
                        "loop-depth", Severity.ERROR, pc,
                        f"loop nest deeper than the {params.max_loop_levels}"
                        f"-level Code Repeater")
                if inst.imm <= 0:
                    structural(
                        "loop-trip-nonpositive", Severity.ERROR, pc,
                        f"loop {inst.field3} configured with {inst.imm} "
                        f"iterations")
                pending_loops.append((inst.field3, max(inst.imm, 1), pc))
            elif inst.func == int(LoopFunc.SET_NUM_INST):
                if inst.imm <= 0:
                    structural(
                        "loop-body-nonpositive", Severity.ERROR, pc,
                        f"LOOP.SET_NUM_INST with non-positive body size "
                        f"{inst.imm}")
                    pending_loops = []
                    pc += 1
                    continue
                body_words = insts[pc + 1:pc + 1 + inst.imm]
                if len(body_words) < inst.imm:
                    structural(
                        "loop-body-overrun", Severity.ERROR, pc,
                        f"loop body of {inst.imm} words runs past the end "
                        f"of the {len(insts)}-word program")
                nest = NestTrace(header_pc=pc, loops=list(pending_loops),
                                 body=[(pc + 1 + i, w)
                                       for i, w in enumerate(body_words)])
                for body_pc, word in nest.body:
                    if not is_compute_opcode(word.opcode):
                        rule = ("loop-body-overlap"
                                if word.opcode == Opcode.LOOP
                                else "loop-body-noncompute")
                        structural(
                            rule, Severity.ERROR, body_pc,
                            f"Code Repeater body contains a non-compute "
                            f"{word.opcode.name} word"
                            + (" (overlapping repeater bodies)"
                               if word.opcode == Opcode.LOOP else ""))
                        continue
                    _resolve_uses(nest, body_pc, word, tables)
                trace.nests.append(nest)
                pending_loops = []
                pc += 1 + len(body_words)
                continue

        elif opcode == Opcode.TILE_LD_ST:
            pc = _step_dae(trace, dae_config, pc, inst)
            pc += 1
            continue

        elif opcode == Opcode.PERMUTE:
            _step_permute(trace, permute_config, pc, inst)

        elif is_compute_opcode(opcode):
            # Bare compute word outside a body: a one-point nest.
            nest = NestTrace(header_pc=pc, loops=[], body=[(pc, inst)])
            _resolve_uses(nest, pc, inst, tables)
            trace.nests.append(nest)

        pc += 1

    if pending_loops:
        structural(
            "loop-orphan-config", Severity.WARN, pending_loops[-1][2],
            f"{len(pending_loops)} LOOP.SET_ITER word(s) never followed by "
            f"a SET_NUM_INST body")
    return trace


def _resolve_uses(nest: NestTrace, pc: int, inst: Instruction,
                  tables: Dict[Tuple[Namespace, int], EntryConfig]) -> None:
    operands = [("dst", inst.dst, reads_dst(inst.opcode, inst.func), True),
                ("src1", inst.src1, True, False)]
    if not is_unary(inst.opcode, inst.func) and inst.src2 is not None:
        operands.append(("src2", inst.src2, True, False))
    counts = nest.counts
    for role, operand, reads, writes in operands:
        if operand is None:
            continue
        entry = tables.get((operand.ns, operand.iter_idx))
        use = OperandUse(pc=pc, role=role, ns=operand.ns,
                         iter_idx=operand.iter_idx,
                         reads=reads, writes=writes, entry=entry)
        if entry is not None:
            entry.used = True
            lo = hi = entry.base
            walked = list(zip(entry.strides, counts))
            for stride, count in walked:
                span = stride * (count - 1)
                lo += min(0, span)
                hi += max(0, span)
            use.lo, use.hi, use.levels = lo, hi, len(walked)
        nest.uses.append(use)


def _step_dae(trace: ProgramTrace, config: Dict[str, Dict], pc: int,
              inst: Instruction) -> int:
    try:
        func = LdStFunc(inst.func)
    except ValueError:
        return pc  # decode pass reports it
    direction = "st" if func.name.startswith("ST") else "ld"
    state = config[direction]
    if func in (LdStFunc.LD_CONFIG_BASE_ADDR, LdStFunc.ST_CONFIG_BASE_ADDR):
        try:
            state["ns"] = Namespace(inst.field3)
        except ValueError:
            state["ns"] = None
        state["base"] = inst.imm
        state["dims"] = {}
    elif func in (LdStFunc.LD_CONFIG_BASE_LOOP_ITER,
                  LdStFunc.ST_CONFIG_BASE_LOOP_ITER):
        state["dims"][inst.field5] = inst.imm
    elif func in (LdStFunc.LD_START, LdStFunc.ST_START):
        dims = state["dims"]
        elements = prod(dims.values()) if dims else None
        if state["ns"] is not None:
            trace.transfers.append(TransferTrace(
                start_pc=pc, direction=direction, ns=state["ns"],
                base=state["base"], elements=elements))
    return pc


def _step_permute(trace: ProgramTrace, config: Dict, pc: int,
                  inst: Instruction) -> None:
    try:
        func = PermuteFunc(inst.func)
    except ValueError:
        return
    if func == PermuteFunc.SET_BASE_ADDR:
        key = "src_base" if inst.field3 == 0 else "dst_base"
        config[key] = inst.imm
        if inst.field3 == 0:
            config["dims"] = {}
    elif func == PermuteFunc.SET_LOOP_ITER:
        config["dims"][inst.field5] = inst.imm
    elif func == PermuteFunc.START:
        dims = config["dims"]
        trace.permutes.append(PermuteTrace(
            start_pc=pc,
            src_base=config["src_base"] or 0,
            dst_base=config["dst_base"] or 0,
            words=prod(dims.values()) if dims else None))
