"""Static verifier: every rule has a negative test, clean programs pass.

Programs here are hand-built from the ISA builder helpers so each test
triggers exactly one rule; zoo-wide positive coverage (every compiled
model verifies clean) lives in test_compile_all_models.py.
"""

import dataclasses
import json

import pytest

from repro.analysis.verifier import (
    Severity,
    VerificationError,
    verify_blob,
    verify_model,
    verify_program,
    verify_words,
)
from repro.compiler import compile_model, verify_record_for
from repro.isa import (
    AluFunc,
    Instruction,
    LdStFunc,
    Namespace,
    Opcode,
    Operand,
    ProgramDecodeError,
    SyncFunc,
    TandemProgram,
    alu,
    iterator_base,
    iterator_stride,
    loop_iter,
    loop_num_inst,
    set_immediate,
    sync,
    tile_ldst,
)
from repro.models import build_tinynet
from repro.runtime import get_cache
from repro.simulator.params import TandemParams


def _entry(ns, idx, base, *strides):
    yield iterator_base(ns, idx, base)
    for stride in strides:
        yield iterator_stride(ns, idx, stride)


def _program(*insts, name="prog"):
    program = TandemProgram(name)
    for inst in insts:
        if isinstance(inst, Instruction):
            program.append(inst)
        else:
            program.extend(inst)
    return program


def clean_program():
    """8-point add with a DAE store draining the result: zero findings."""
    return _program(
        sync(SyncFunc.SIMD_START_EXEC),
        _entry(Namespace.IBUF1, 0, 0, 1),
        _entry(Namespace.IBUF1, 1, 16, 1),
        _entry(Namespace.IBUF2, 0, 0, 1),
        loop_iter(0, 8),
        loop_num_inst(1),
        alu(AluFunc.ADD, Operand(Namespace.IBUF2, 0),
            Operand(Namespace.IBUF1, 0), Operand(Namespace.IBUF1, 1)),
        tile_ldst(LdStFunc.ST_CONFIG_BASE_ADDR, Namespace.IBUF2, imm=0),
        tile_ldst(LdStFunc.ST_CONFIG_BASE_LOOP_ITER, loop_idx=0, imm=8),
        tile_ldst(LdStFunc.ST_START),
        sync(SyncFunc.SIMD_END_EXEC),
    )


def rules_of(report, min_severity=Severity.INFO):
    return {f.rule for f in report.findings if f.severity >= min_severity}


# ---------------------------------------------------------------------------
# Positive: clean programs and reports
# ---------------------------------------------------------------------------
def test_clean_program_has_zero_findings():
    report = verify_program(clean_program())
    assert report.findings == []
    assert report.clean
    assert report.passes == ["decode", "loops", "dataflow", "ownership",
                             "lint"]
    assert "clean" in report.render()


def test_report_as_dict_shape():
    report = verify_program(clean_program())
    payload = report.as_dict()
    assert payload["errors"] == 0
    assert payload["program"] == "prog"
    assert payload["instructions"] == len(clean_program().instructions)
    json.dumps(payload)  # JSON-able


# ---------------------------------------------------------------------------
# decode pass
# ---------------------------------------------------------------------------
def test_unencodable_word_flagged():
    bad = Instruction(Opcode.SYNC, 0, imm=1 << 17)  # imm16 overflow
    report = verify_program(_program(bad))
    assert "unencodable-word" in rules_of(report, Severity.ERROR)


def test_illegal_func_flagged():
    bad = Instruction(Opcode.LOOP, 0xF)  # LoopFunc has no 0xF
    report = verify_program(_program(bad))
    assert "illegal-func" in rules_of(report, Severity.ERROR)


def test_roundtrip_mismatch_flagged():
    class EvilInst:
        opcode = Opcode.SYNC
        func = int(SyncFunc.SIMD_START_EXEC)
        imm = 0

        def pack(self):
            return 0xF0000000  # packs to an illegal opcode nibble

    report = verify_program(TandemProgram("evil", [EvilInst()]))
    assert "roundtrip-mismatch" in rules_of(report, Severity.ERROR)


def test_repeated_bad_word_flagged_at_every_pc():
    """The memoized round trip still reports each occurrence by pc."""
    class EvilInst:
        opcode = Opcode.SYNC
        func = int(SyncFunc.SIMD_START_EXEC)
        imm = 0

        def pack(self):
            return 0xF0000000

    program = TandemProgram(
        "evil", [EvilInst(), sync(SyncFunc.SIMD_START_EXEC), EvilInst()])
    found = [f for f in verify_program(program).findings
             if f.rule == "roundtrip-mismatch"]
    assert [f.pc for f in found] == [0, 2]
    assert found[0].message == found[1].message


def test_illegal_namespace_in_iterator_config():
    bad = Instruction(Opcode.ITERATOR_CONFIG, 0, field3=6, field5=0, imm=0)
    report = verify_program(_program(bad))
    assert "illegal-namespace" in rules_of(report, Severity.ERROR)


def test_illegal_namespace_in_dae_config():
    bad = Instruction(Opcode.TILE_LD_ST,
                      int(LdStFunc.LD_CONFIG_BASE_ADDR), field3=7)
    report = verify_program(_program(bad))
    assert "illegal-namespace" in rules_of(report, Severity.ERROR)


def test_undecodable_word_in_word_stream():
    report = verify_words("blob", [sync(SyncFunc.SIMD_START_EXEC).pack(),
                                   0xFFFFFFFF])
    assert "undecodable-word" in rules_of(report, Severity.ERROR)
    assert report.passes == ["decode"]  # semantic passes need all words


def test_blob_with_trailing_bytes():
    blob = clean_program().to_bytes() + b"\x01\x02"
    report = verify_blob("prog", blob)
    assert "undecodable-word" in rules_of(report, Severity.ERROR)
    assert verify_blob("prog", clean_program().to_bytes()).clean


# ---------------------------------------------------------------------------
# loop-table pass
# ---------------------------------------------------------------------------
def _nest(levels, body=None):
    insts = list(_entry(Namespace.IBUF1, 0, 0, *([1] * levels)))
    insts += [loop_iter(l, 2) for l in range(levels)]
    insts += [loop_num_inst(1),
              body or alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
                          Operand(Namespace.IBUF1, 0))]
    return insts


def test_loop_depth_limit():
    report = verify_program(_program(*_nest(9)))
    assert "loop-depth" in rules_of(report, Severity.ERROR)
    assert "loop-depth" not in rules_of(verify_program(_program(*_nest(8))),
                                        Severity.ERROR)


def test_nonpositive_trip_count():
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 0, 0, 1), loop_iter(0, 0), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0))))
    assert "loop-trip-nonpositive" in rules_of(report, Severity.ERROR)


def test_nonpositive_body_size():
    report = verify_program(_program(loop_iter(0, 4), loop_num_inst(0)))
    assert "loop-body-nonpositive" in rules_of(report, Severity.ERROR)


def test_body_overruns_program():
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 0, 0, 1), loop_iter(0, 4), loop_num_inst(3),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0))))
    assert "loop-body-overrun" in rules_of(report, Severity.ERROR)


def test_noncompute_word_inside_body():
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 0, 0, 1), loop_iter(0, 4), loop_num_inst(2),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0)),
        sync(SyncFunc.SIMD_END_EXEC)))
    assert "loop-body-noncompute" in rules_of(report, Severity.ERROR)


def test_overlapping_repeater_bodies():
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 0, 0, 1), loop_iter(0, 4), loop_num_inst(2),
        loop_num_inst(1),  # a LOOP word claimed by the outer body
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0))))
    assert "loop-body-overlap" in rules_of(report, Severity.ERROR)


def test_orphan_loop_config_warns():
    report = verify_program(_program(loop_iter(0, 4)))
    assert "loop-orphan-config" in rules_of(report, Severity.WARN)
    assert report.clean  # warn tier only


# ---------------------------------------------------------------------------
# dataflow pass
# ---------------------------------------------------------------------------
def test_unconfigured_iterator_entry():
    report = verify_program(_program(
        loop_iter(0, 4), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 3),
            Operand(Namespace.IBUF1, 3))))
    assert "iter-unconfigured" in rules_of(report, Severity.ERROR)


def test_oob_positive_stride():
    params = TandemParams()
    count = params.interim_buf_words  # stride 1 over cap+... walks past end
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 0, 1, 1), loop_iter(0, count),
        loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0))))
    assert "oob-access" in rules_of(report, Severity.ERROR)


def test_oob_negative_stride():
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 0, 2, -1), loop_iter(0, 8), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0))))
    assert "oob-access" in rules_of(report, Severity.ERROR)


def test_oob_immediate_slot():
    report = verify_program(_program(
        _entry(Namespace.IMM, 0, 40, 0),  # only 32 IMM slots
        _entry(Namespace.IBUF1, 0, 0, 1),
        loop_iter(0, 4), loop_num_inst(1),
        alu(AluFunc.ADD, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0), Operand(Namespace.IMM, 0))))
    assert "oob-access" in rules_of(report, Severity.ERROR)


def test_iter_index_capacity():
    params = dataclasses.replace(TandemParams(), iter_table_entries=4)
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 9, 0, 1), loop_iter(0, 2), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 9),
            Operand(Namespace.IBUF1, 9))), params)
    assert "iter-index-capacity" in rules_of(report, Severity.ERROR)


def test_stride_count_mismatch_warns():
    report = verify_program(_program(
        _entry(Namespace.IBUF1, 0, 0, 1),  # one stride level, two loops
        loop_iter(0, 2), loop_iter(1, 3), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0))))
    assert "stride-count-mismatch" in rules_of(report, Severity.WARN)
    assert report.clean


# ---------------------------------------------------------------------------
# ownership pass
# ---------------------------------------------------------------------------
def _obuf_read(release=False, after=()):
    insts = [sync(SyncFunc.SIMD_START_EXEC),
             *_entry(Namespace.OBUF, 0, 0, 1),
             *_entry(Namespace.IBUF1, 0, 0, 1),
             loop_iter(0, 8), loop_num_inst(1),
             alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
                 Operand(Namespace.OBUF, 0))]
    if release:
        insts.append(sync(SyncFunc.SIMD_END_BUF))
    insts.extend(after)
    insts.append(sync(SyncFunc.SIMD_END_EXEC))
    return _program(*insts)


def test_obuf_read_without_handoff():
    report = verify_program(_obuf_read(release=True), owns_obuf=False)
    assert "obuf-read-before-ownership" in rules_of(report, Severity.ERROR)
    # The same program is legal when the block owns the buffer.
    assert verify_program(_obuf_read(release=True), owns_obuf=True).clean


def test_obuf_write_race_without_ownership():
    program = _program(
        _entry(Namespace.OBUF, 0, 0, 1), _entry(Namespace.IBUF1, 0, 0, 1),
        loop_iter(0, 4), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.OBUF, 0),
            Operand(Namespace.IBUF1, 0)))
    report = verify_program(program, owns_obuf=False)
    assert "obuf-write-race" in rules_of(report, Severity.ERROR)


def test_obuf_access_after_release():
    after = [loop_iter(0, 8), loop_num_inst(1),
             alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
                 Operand(Namespace.OBUF, 0))]
    report = verify_program(_obuf_read(release=True, after=after),
                            owns_obuf=True)
    assert "obuf-access-after-release" in rules_of(report, Severity.ERROR)


def test_obuf_write_after_release_races_next_layer():
    after = [loop_iter(0, 8), loop_num_inst(1),
             alu(AluFunc.MOVE, Operand(Namespace.OBUF, 0),
                 Operand(Namespace.IBUF1, 0))]
    report = verify_program(_obuf_read(release=True, after=after),
                            owns_obuf=True)
    assert "obuf-write-race" in rules_of(report, Severity.ERROR)


def test_obuf_double_release():
    report = verify_program(
        _obuf_read(release=True, after=[sync(SyncFunc.SIMD_END_BUF)]),
        owns_obuf=True)
    assert "obuf-double-release" in rules_of(report, Severity.ERROR)


def test_obuf_release_without_ownership_warns():
    program = _program(sync(SyncFunc.SIMD_START_EXEC),
                       sync(SyncFunc.SIMD_END_BUF),
                       sync(SyncFunc.SIMD_END_EXEC))
    report = verify_program(program, owns_obuf=False)
    assert "obuf-release-without-ownership" in rules_of(report, Severity.WARN)
    assert report.clean


def test_obuf_never_released_warns():
    report = verify_program(_obuf_read(release=False), owns_obuf=True)
    assert "obuf-never-released" in rules_of(report, Severity.WARN)
    assert report.clean


# ---------------------------------------------------------------------------
# lint pass
# ---------------------------------------------------------------------------
def test_dead_store_detected_and_kept_alive_by_store():
    dead = _program(
        _entry(Namespace.IBUF1, 0, 0, 1), _entry(Namespace.IBUF2, 0, 0, 1),
        loop_iter(0, 8), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF2, 0),
            Operand(Namespace.IBUF1, 0)))
    assert "dead-store" in rules_of(verify_program(dead))
    assert "dead-store" not in rules_of(verify_program(clean_program()))


def test_imm_read_without_value_write():
    program = _program(
        _entry(Namespace.IMM, 0, 3, 0),  # slot 3 never written
        _entry(Namespace.IBUF1, 0, 0, 1),
        loop_iter(0, 4), loop_num_inst(1),
        alu(AluFunc.ADD, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0), Operand(Namespace.IMM, 0)))
    assert "imm-unconfigured" in rules_of(verify_program(program),
                                          Severity.WARN)
    configured = _program(set_immediate(3, 7), *program.instructions)
    assert "imm-unconfigured" not in rules_of(verify_program(configured))


def test_unused_iterator_entry():
    program = _program(
        _entry(Namespace.IBUF2, 5, 0, 1),  # never referenced
        _entry(Namespace.IBUF1, 0, 0, 1),
        loop_iter(0, 4), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0)))
    assert "iter-unused" in rules_of(verify_program(program))


def test_sync_protocol_warns_without_markers():
    program = _program(
        _entry(Namespace.IBUF1, 0, 0, 1), loop_iter(0, 4), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 0),
            Operand(Namespace.IBUF1, 0)))
    assert "sync-protocol" in rules_of(verify_program(program),
                                       Severity.WARN)


# ---------------------------------------------------------------------------
# typed decode errors (TandemProgram.unpack / from_bytes)
# ---------------------------------------------------------------------------
def test_unpack_rejects_out_of_range_words():
    with pytest.raises(ProgramDecodeError) as exc:
        TandemProgram.unpack("p", [0, 1 << 32])
    assert exc.value.pc == 1


def test_unpack_rejects_undecodable_words():
    word = 0xA0000000  # opcode nibble 0xA is unassigned
    with pytest.raises(ProgramDecodeError) as exc:
        TandemProgram.unpack("p", [word])
    assert exc.value.pc == 0
    assert exc.value.word == word


def test_from_bytes_rejects_ragged_blobs():
    with pytest.raises(ProgramDecodeError):
        TandemProgram.from_bytes("p", b"\x00" * 6)


def test_bytes_roundtrip_still_lossless():
    program = clean_program()
    again = TandemProgram.from_bytes("prog", program.to_bytes())
    assert again.pack() == program.pack()


# ---------------------------------------------------------------------------
# compiler wiring
# ---------------------------------------------------------------------------
def test_compile_stores_verification_record_and_skips_when_warm():
    graph = build_tinynet()
    cache = get_cache()
    model = compile_model(graph)  # fresh or warm; either way record exists
    record = verify_record_for(graph)
    assert record["clean"] is True
    assert record["errors"] == 0
    # One report per lowered tile, plus the model-level deps report.
    assert record["blocks"] == sum(
        1 for cb in model.blocks if cb.tile is not None) + 1
    # A warm compile returns without re-running the verifier: the
    # "verified" record is already resident under the same key.
    before = cache.stats.stores
    compile_model(graph)
    assert cache.stats.stores == before


def test_verify_model_over_compiled_tinynet():
    report = verify_model(compile_model(build_tinynet()))
    assert report.clean
    assert report.errors == 0
    assert len(report.reports) >= 1
    json.loads(report.to_json())


def test_verification_error_message_lists_rules():
    report = verify_program(_program(
        loop_iter(0, 4), loop_num_inst(1),
        alu(AluFunc.MOVE, Operand(Namespace.IBUF1, 3),
            Operand(Namespace.IBUF1, 3))))
    assert not report.clean
    err = VerificationError(report)
    assert "iter-unconfigured" in str(err)
    assert err.report is report
