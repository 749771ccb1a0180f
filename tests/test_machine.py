"""Detailed machine: hand-assembled programs exercising every mechanism."""

import numpy as np
import pytest

from repro.compiler.ir import PermuteSlot
from repro.isa import (
    AluFunc,
    CalculusFunc,
    ComparisonFunc,
    DatatypeConfigFunc,
    Instruction,
    LdStFunc,
    Namespace,
    Opcode,
    Operand,
    PermuteFunc,
    SyncFunc,
    TandemProgram,
    alu,
    calculus,
    comparison,
    iterator_base,
    iterator_stride,
    loop_iter,
    loop_num_inst,
    permute,
    set_immediate,
    sync,
    tile_ldst,
)
from repro.simulator import (
    MachineError,
    TandemMachine,
    TileTransfer,
)

NS = Namespace


def _machine():
    return TandemMachine()


def _vector_program(func, n, with_imm=None):
    """dst[i] = func(a[i], b[i]) with a at 0, b at n, dst at 2n."""
    program = TandemProgram("p")
    if with_imm is not None:
        program.extend(set_immediate(0, with_imm))
    for idx, base in ((0, 0), (1, n), (2, 2 * n)):
        program.append(iterator_base(NS.IBUF1, idx, base))
        program.append(iterator_stride(NS.IBUF1, idx, 1))
    if with_imm is not None:
        program.append(iterator_base(NS.IMM, 0, 0))
        program.append(iterator_stride(NS.IMM, 0, 0))
    program.append(loop_iter(0, n))
    program.append(loop_num_inst(1))
    src2 = Operand(NS.IMM, 0) if with_imm is not None else Operand(NS.IBUF1, 1)
    program.append(alu(func, Operand(NS.IBUF1, 2), Operand(NS.IBUF1, 0), src2))
    return program


@pytest.mark.parametrize("func,ref", [
    (AluFunc.ADD, lambda a, b: a + b),
    (AluFunc.SUB, lambda a, b: a - b),
    (AluFunc.MUL, lambda a, b: a * b),
    (AluFunc.MAX, np.maximum),
    (AluFunc.MIN, np.minimum),
    (AluFunc.AND, lambda a, b: a & b),
    (AluFunc.OR, lambda a, b: a | b),
])
def test_vector_binary_ops(func, ref, rng):
    m = _machine()
    a = rng.integers(-1000, 1000, 50)
    b = rng.integers(-1000, 1000, 50)
    m.pads[NS.IBUF1].load_block(0, a)
    m.pads[NS.IBUF1].load_block(50, b)
    m.run(_vector_program(func, 50))
    out = m.pads[NS.IBUF1].store_block(100, 50)
    assert np.array_equal(out, ref(a, b))


def test_immediate_operand_broadcast(rng):
    m = _machine()
    a = rng.integers(-100, 100, 20)
    m.pads[NS.IBUF1].load_block(0, a)
    m.run(_vector_program(AluFunc.ADD, 20, with_imm=-453))
    out = m.pads[NS.IBUF1].store_block(40, 20)
    assert np.array_equal(out, a - 453)


def test_macc_accumulates_reduction(rng):
    """MACC with a stride-0 destination computes a dot product."""
    m = _machine()
    n = 31
    a = rng.integers(-50, 50, n)
    b = rng.integers(-50, 50, n)
    m.pads[NS.IBUF1].load_block(0, a)
    m.pads[NS.IBUF1].load_block(n, b)
    program = TandemProgram("dot")
    for idx, base, stride in ((0, 0, 1), (1, n, 1), (2, 2 * n, 0)):
        program.append(iterator_base(NS.IBUF1, idx, base))
        program.append(iterator_stride(NS.IBUF1, idx, stride))
    program.append(loop_iter(0, n))
    program.append(loop_num_inst(1))
    program.append(alu(AluFunc.MACC, Operand(NS.IBUF1, 2),
                       Operand(NS.IBUF1, 0), Operand(NS.IBUF1, 1)))
    m.run(program)
    assert m.pads[NS.IBUF1].read(2 * n) == int(np.dot(a, b))


def test_cond_move_predicated(rng):
    m = _machine()
    n = 16
    vals = rng.integers(-9, 9, n)
    flags = rng.integers(0, 2, n)
    m.pads[NS.IBUF1].load_block(0, vals)
    m.pads[NS.IBUF1].load_block(n, flags)
    program = TandemProgram("sel")
    for idx, base in ((0, 0), (1, n), (2, 2 * n)):
        program.append(iterator_base(NS.IBUF1, idx, base))
        program.append(iterator_stride(NS.IBUF1, idx, 1))
    program.append(loop_iter(0, n))
    program.append(loop_num_inst(1))
    program.append(alu(AluFunc.COND_MOVE, Operand(NS.IBUF1, 2),
                       Operand(NS.IBUF1, 0), Operand(NS.IBUF1, 1)))
    m.run(program)
    out = m.pads[NS.IBUF1].store_block(2 * n, n)
    assert np.array_equal(out, np.where(flags != 0, vals, 0))


def test_calculus_and_comparison(rng):
    m = _machine()
    n = 12
    a = rng.integers(-100, 100, n)
    m.pads[NS.IBUF1].load_block(0, a)
    program = TandemProgram("calc")
    for idx, base in ((0, 0), (1, n), (2, 2 * n)):
        program.append(iterator_base(NS.IBUF1, idx, base))
        program.append(iterator_stride(NS.IBUF1, idx, 1))
    program.append(loop_iter(0, n))
    program.append(loop_num_inst(2))
    program.append(calculus(CalculusFunc.ABS, Operand(NS.IBUF1, 1),
                            Operand(NS.IBUF1, 0)))
    program.append(comparison(ComparisonFunc.GT, Operand(NS.IBUF1, 2),
                              Operand(NS.IBUF1, 0), Operand(NS.IBUF1, 1)))
    m.run(program)
    assert np.array_equal(m.pads[NS.IBUF1].store_block(n, n), np.abs(a))
    assert np.array_equal(m.pads[NS.IBUF1].store_block(2 * n, n),
                          (a > np.abs(a)).astype(int))


def test_multidim_strided_access():
    """Column sums of a 4x8 matrix via a 2-deep nest."""
    m = _machine()
    mat = np.arange(32).reshape(4, 8)
    m.pads[NS.IBUF1].load_block(0, mat)
    program = TandemProgram("colsum")
    program.append(iterator_base(NS.IBUF1, 0, 0))      # src: mat[r, c]
    program.append(iterator_stride(NS.IBUF1, 0, 8))    # r stride
    program.append(iterator_stride(NS.IBUF1, 0, 1))    # c stride
    program.append(iterator_base(NS.IBUF1, 1, 32))     # dst: out[c]
    program.append(iterator_stride(NS.IBUF1, 1, 0))
    program.append(iterator_stride(NS.IBUF1, 1, 1))
    program.append(loop_iter(0, 4))
    program.append(loop_iter(1, 8))
    program.append(loop_num_inst(1))
    program.append(alu(AluFunc.ADD, Operand(NS.IBUF1, 1),
                       Operand(NS.IBUF1, 1), Operand(NS.IBUF1, 0)))
    m.run(program)
    out = m.pads[NS.IBUF1].store_block(32, 8)
    assert np.array_equal(out, mat.sum(axis=0))


def test_datatype_cast_mode_saturates(rng):
    m = _machine()
    a = np.array([300, -300, 7, -7])
    m.pads[NS.IBUF1].load_block(0, a)
    program = TandemProgram("cast")
    for idx, base in ((0, 0), (1, 4)):
        program.append(iterator_base(NS.IBUF1, idx, base))
        program.append(iterator_stride(NS.IBUF1, idx, 1))
    program.append(Instruction(Opcode.DATATYPE_CAST,
                               int(DatatypeConfigFunc.FXP8)))
    program.append(loop_iter(0, 4))
    program.append(loop_num_inst(1))
    program.append(alu(AluFunc.MOVE, Operand(NS.IBUF1, 1),
                       Operand(NS.IBUF1, 0)))
    program.append(Instruction(Opcode.DATATYPE_CAST,
                               int(DatatypeConfigFunc.FXP32)))
    m.run(program)
    out = m.pads[NS.IBUF1].store_block(4, 4)
    assert np.array_equal(out, [127, -128, 7, -7])


def test_permute_engine():
    m = _machine()
    data = np.arange(24).reshape(2, 3, 4)
    m.pads[NS.IBUF1].load_block(0, data)
    program = TandemProgram("perm")
    program.append(permute(PermuteFunc.SET_BASE_ADDR, 0, 0, 0))
    program.append(permute(PermuteFunc.SET_BASE_ADDR, 1, 0, 24))
    for dim, size in enumerate((2, 3, 4)):
        program.append(permute(PermuteFunc.SET_LOOP_ITER, 0, dim, size))
    program.append(permute(PermuteFunc.START))
    binding = PermuteSlot(NS.IBUF1, 0, NS.IBUF1, 24, (2, 3, 4), (2, 0, 1))
    result = m.run(program, permutes=[binding])
    out = m.pads[NS.IBUF1].store_block(24, 24).reshape(4, 2, 3)
    assert np.array_equal(out, data.transpose(2, 0, 1))
    assert result.permute_cycles > 0


def test_dae_load_and_store_roundtrip():
    m = _machine()
    tensor = np.arange(12).reshape(3, 4)
    m.dram.bind("x", tensor)
    m.dram.allocate("y", (3, 4))
    program = TandemProgram("ldst")
    program.append(tile_ldst(LdStFunc.LD_START))
    program.append(tile_ldst(LdStFunc.ST_START))
    transfers = [
        TileTransfer("ld", "x", NS.IBUF1, 0),
        TileTransfer("st", "y", NS.IBUF1, 0),
    ]
    result = m.run(program, transfers)
    assert np.array_equal(m.dram.get("y"), tensor)
    assert result.dae_cycles > 0


def test_dae_mismatched_direction_rejected():
    m = _machine()
    m.dram.bind("x", np.zeros(4))
    program = TandemProgram("bad")
    program.append(tile_ldst(LdStFunc.ST_START))
    with pytest.raises(MachineError, match="bound to a 'ld'"):
        m.run(program, [TileTransfer("ld", "x", NS.IBUF1, 0)])


def test_missing_binding_rejected():
    m = _machine()
    program = TandemProgram("bad")
    program.append(tile_ldst(LdStFunc.LD_START))
    with pytest.raises(MachineError, match="without a bound"):
        m.run(program)


def test_truncated_loop_body_rejected():
    m = _machine()
    program = TandemProgram("bad")
    program.append(loop_iter(0, 4))
    program.append(loop_num_inst(3))
    program.append(alu(AluFunc.MOVE, Operand(NS.IBUF1, 0),
                       Operand(NS.IBUF1, 0)))
    m.pads  # machine constructed fine
    with pytest.raises(MachineError, match="collecting"):
        # Iterator 0 must exist for meta collection; configure it.
        full = TandemProgram("bad2")
        full.append(iterator_base(NS.IBUF1, 0, 0))
        full.append(iterator_stride(NS.IBUF1, 0, 1))
        full.extend(program.instructions)
        m.run(full)


def test_too_deep_nest_rejected():
    m = _machine()
    program = TandemProgram("deep")
    for level in range(9):
        program.append(loop_iter(level % 8, 2))
    program.append(loop_num_inst(1))
    program.append(alu(AluFunc.MOVE, Operand(NS.IBUF1, 0),
                       Operand(NS.IBUF1, 0)))
    with pytest.raises(MachineError, match="8 levels"):
        m.run(program)


def test_sync_events_recorded():
    m = _machine()
    program = TandemProgram("sync")
    program.append(sync(SyncFunc.SIMD_START_EXEC))
    program.append(sync(SyncFunc.SIMD_END_BUF, group_id=3))
    program.append(sync(SyncFunc.SIMD_END_EXEC))
    result = m.run(program)
    assert [e.func for e in result.sync_events] == [
        SyncFunc.SIMD_START_EXEC, SyncFunc.SIMD_END_BUF,
        SyncFunc.SIMD_END_EXEC]
    assert result.sync_events[1].group_id == 3
    assert result.obuf_release_cycle is not None


def test_energy_accumulates_components(rng):
    m = _machine()
    a = rng.integers(-10, 10, 64)
    m.pads[NS.IBUF1].load_block(0, a)
    m.pads[NS.IBUF1].load_block(64, a)
    result = m.run(_vector_program(AluFunc.ADD, 64))
    assert result.energy.alu_pj > 0
    assert result.energy.spad_pj > 0
    assert result.energy.loop_addr_pj > 0
    assert result.energy.regfile_pj == 0  # no overlay
    assert result.energy.total_pj() == pytest.approx(
        sum([result.energy.alu_pj, result.energy.spad_pj,
             result.energy.loop_addr_pj, result.energy.other_pj,
             result.energy.dram_pj, result.energy.regfile_pj]))
