"""Opcode and function-field encodings for the Tandem Processor ISA.

Figure 12 of the paper defines six instruction classes packed into 32-bit
words, all sharing a 4-bit opcode and a 4-bit func field:

  * Synchronization       — GEMM/Tandem handshaking and region markers
  * Configuration         — iterator tables, immediates, datatype config
  * Compute               — ALU / CALCULUS / COMPARISON primitive ops
  * Loop                  — Code Repeater configuration
  * Data transformation   — PERMUTE and DATATYPE_CAST
  * Off-chip data movement — TILE_LD_ST for the Data Access Engine
"""

from __future__ import annotations

from enum import IntEnum


class Opcode(IntEnum):
    """4-bit major opcodes."""

    SYNC = 0x0
    ITERATOR_CONFIG = 0x1
    DATATYPE_CONFIG = 0x2
    ALU = 0x3
    CALCULUS = 0x4
    COMPARISON = 0x5
    LOOP = 0x6
    PERMUTE = 0x7
    DATATYPE_CAST = 0x8
    TILE_LD_ST = 0x9


class Namespace(IntEnum):
    """3-bit scratchpad namespace ids (Section 4.1 "Namespaces")."""

    IBUF1 = 0x0  # Interim BUF 1
    IBUF2 = 0x1  # Interim BUF 2
    OBUF = 0x2   # GEMM unit's Output BUF (fluid ownership)
    IMM = 0x3    # 32-slot immediate buffer
    VMEM = 0x4   # staging view of off-chip tile (Data Access Engine window)


class SyncFunc(IntEnum):
    """func bits <GEMM/SIMD, START/END, EXEC/BUF, X> for SYNC."""

    GEMM_START_EXEC = 0b0000
    GEMM_END_EXEC = 0b0100
    SIMD_START_EXEC = 0b1000
    SIMD_END_EXEC = 0b1100
    SIMD_END_BUF = 0b1110  # Output BUF released back to the GEMM unit
    BLOCK_END = 0b0110     # block-done notification to the execution FSM


class IteratorConfigFunc(IntEnum):
    """ITERATOR_CONFIG functions (Section 5, "Configuration")."""

    BASE_ADDR = 0x0
    STRIDE = 0x1
    IMM_VALUE = 0x2
    IMM_HIGH = 0x3  # upper 16 bits of a 32-bit immediate


class DatatypeConfigFunc(IntEnum):
    FXP32 = 0x0
    FXP16 = 0x1
    FXP8 = 0x2
    FXP4 = 0x3


class AluFunc(IntEnum):
    """ALU primitive operations (Section 3.4 / Section 5 "Compute")."""

    ADD = 0x0
    SUB = 0x1
    MUL = 0x2
    MACC = 0x3
    DIV = 0x4
    MAX = 0x5
    MIN = 0x6
    RSHIFT = 0x7
    LSHIFT = 0x8
    NOT = 0x9
    AND = 0xA
    OR = 0xB
    MOVE = 0xC
    COND_MOVE = 0xD


class CalculusFunc(IntEnum):
    """CALCULUS mathematical primitives."""

    ABS = 0x0
    SIGN = 0x1
    NEG = 0x2


class ComparisonFunc(IntEnum):
    EQ = 0x0
    NE = 0x1
    GT = 0x2
    GE = 0x3
    LT = 0x4
    LE = 0x5


class LoopFunc(IntEnum):
    """LOOP functions configuring the Code Repeater."""

    SET_ITER = 0x0
    SET_NUM_INST = 0x1
    SET_INDEX = 0x2


class PermuteFunc(IntEnum):
    SET_BASE_ADDR = 0x0
    SET_LOOP_ITER = 0x1
    SET_LOOP_STRIDE = 0x2
    START = 0x3


class LdStFunc(IntEnum):
    """TILE_LD_ST func1 values for the Data Access Engine."""

    LD_CONFIG_BASE_ADDR = 0x0
    ST_CONFIG_BASE_ADDR = 0x1
    LD_CONFIG_BASE_LOOP_ITER = 0x2
    LD_CONFIG_BASE_LOOP_STRIDE = 0x3
    ST_CONFIG_BASE_LOOP_ITER = 0x4
    ST_CONFIG_BASE_LOOP_STRIDE = 0x5
    LD_CONFIG_TILE_LOOP_ITER = 0x6
    LD_CONFIG_TILE_LOOP_STRIDE = 0x7
    ST_CONFIG_TILE_LOOP_ITER = 0x8
    ST_CONFIG_TILE_LOOP_STRIDE = 0x9
    LD_START = 0xA
    ST_START = 0xB


#: Compute funcs grouped per opcode, for decoding and disassembly.
COMPUTE_FUNCS = {
    Opcode.ALU: AluFunc,
    Opcode.CALCULUS: CalculusFunc,
    Opcode.COMPARISON: ComparisonFunc,
}


def is_unary(opcode: int, func: int) -> bool:
    """Whether a compute instruction reads src1 only (CALCULUS, MOVE, NOT).

    Lowering still fills the src2 slot (with src1), so every reader of a
    program must skip it: the machine, fastexec, the verifier and the
    access-claim collector.
    """
    if opcode == Opcode.CALCULUS:
        return True
    return opcode == Opcode.ALU and func in (AluFunc.MOVE, AluFunc.NOT)


def reads_dst(opcode: int, func: int) -> bool:
    """Whether a compute instruction reads its destination (MACC)."""
    return opcode == Opcode.ALU and func == AluFunc.MACC


FUNC_ENUMS = {
    Opcode.SYNC: SyncFunc,
    Opcode.ITERATOR_CONFIG: IteratorConfigFunc,
    Opcode.DATATYPE_CONFIG: DatatypeConfigFunc,
    Opcode.ALU: AluFunc,
    Opcode.CALCULUS: CalculusFunc,
    Opcode.COMPARISON: ComparisonFunc,
    Opcode.LOOP: LoopFunc,
    Opcode.PERMUTE: PermuteFunc,
    Opcode.DATATYPE_CAST: DatatypeConfigFunc,
    Opcode.TILE_LD_ST: LdStFunc,
}

#: Hardware limits from Sections 4-5 and Table 3.
MAX_LOOP_LEVELS = 8        # "arbitrary levels of nesting (up to eight)"
ITER_TABLE_ENTRIES = 32    # 5-bit iterator index
IMM_SLOTS = 32             # "32-slot scratchpad for immediate values"
INSTRUCTION_BITS = 32
