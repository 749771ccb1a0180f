"""Dependence analysis, race detection, and translation validation.

Covers the four layers of :mod:`repro.analysis.deps`:

* walk algebra (extent, injectivity, overlap) and nest-level
  RAW/WAR/WAW classification, including both PR 6 miscompile
  reproducers rejected *by the dependence analysis itself*;
* translation validation of the compiler's access claims against the
  binary-level abstract interpretation, via seeded metadata mutations;
* the model-level race detector and its dynamic-oracle ground truth
  (clean models replay clean, every seeded race trips both);
* the verifier-pipeline, rule-ID, and CLI surfaces that expose it all.
"""

import copy
import dataclasses

import pytest

from repro.analysis.deps import (
    DepKind,
    Walk,
    boxes_overlap,
    check_model,
    fission_blockers,
    forwarding_claims,
    interchange_blockers,
    is_pointwise_parallel,
    nest_dependences,
    ref_walk,
    run_oracle,
    validate_tile,
    walks_overlap,
)
from repro.analysis.deps.access import ForwardClaim, transfer_elements
from repro.analysis.deps.races import alias_roots
from repro.analysis.verifier import (
    Severity,
    all_rules,
    deps_mode,
    interpret,
    resolve_ignores,
    rule_id,
    rules_table,
    verify_model,
)
from repro.analysis.verifier.findings import Finding, VerifyReport
from repro.analysis.verifier.rules import normalize_rule
from repro.compiler import Nest, Stmt, TRef, compile_model
from repro.isa import AluFunc, Namespace, Opcode
from repro.llm import build_step, get_llm_config
from repro.models import build_model
from repro.runtime import KnobError

NS = Namespace.IBUF1


def _stmt(func, dst, src1, src2=None):
    return Stmt(Opcode.ALU, int(func), dst, src1, src2)


# ---------------------------------------------------------------------------
# Walk algebra
# ---------------------------------------------------------------------------
def test_walk_extent_handles_scalars_and_negative_strides():
    assert Walk(5, (), ()).extent == (5, 5)
    assert Walk(0, (8, 1), (4, 8)).extent == (0, 31)
    # A reversed walk reaches below its base.
    assert Walk(7, (-1,), (8,)).extent == (0, 7)


def test_walk_trimmed_drops_degenerate_levels():
    walk = Walk(3, (64, 8, 1), (1, 4, 8))
    assert walk.trimmed() == Walk(3, (8, 1), (4, 8))
    assert walk.same_walk(Walk(3, (99, 8, 1), (1, 4, 8)))
    assert not walk.same_walk(Walk(4, (8, 1), (4, 8)))


def test_walk_injectivity():
    assert Walk(0, (8, 1), (4, 8)).injective()          # mixed radix
    assert not Walk(0, (0,), (10,)).injective()          # stride-0 temp
    assert not Walk(0, (4, 1), (4, 8)).injective()       # rows collide
    assert Walk(0, (-8, 1), (4, 8)).injective()          # sign-agnostic
    assert Walk(9, (), ()).injective()                   # single point


def test_walk_addresses_exact_and_capped():
    addrs = Walk(2, (8, 1), (2, 3)).addresses()
    assert addrs.tolist() == [2, 3, 4, 10, 11, 12]
    assert Walk(0, (1, 1), (1 << 11, 1 << 11)).addresses(cap=1024) is None


def test_walks_overlap_is_interval_conservative():
    a = Walk(0, (1,), (8,))
    assert walks_overlap(a, Walk(7, (1,), (4,)))     # share address 7
    assert not walks_overlap(a, Walk(8, (1,), (4,)))
    # Stride-2 walks that interleave without colliding still "overlap"
    # under the interval test — deliberately conservative (PR 6 parity).
    assert walks_overlap(Walk(0, (2,), (4,)), Walk(1, (2,), (3,)))


def test_boxes_overlap_semantics():
    assert boxes_overlap(None, ((0, 4),))            # None = whole tensor
    assert boxes_overlap(((0, 4),), ((0, 2), (1, 3)))  # rank mismatch
    assert not boxes_overlap(((0, 4), (0, 8)), ((0, 4), (8, 16)))
    assert boxes_overlap(((0, 4), (0, 8)), ((3, 5), (7, 9)))


# ---------------------------------------------------------------------------
# Nest-level dependences and pass legality
# ---------------------------------------------------------------------------
def test_nest_dependences_classifies_raw_war_waw():
    loops = [("i", 8)]
    a = TRef(NS, 0, {"i": 1})
    b = TRef(NS, 8, {"i": 1})
    nest = Nest(loops, [_stmt(AluFunc.ADD, b, a, a),     # reads a, writes b
                        _stmt(AluFunc.MUL, a, b, b)])    # reads b, writes a
    kinds = {(d.kind, d.earlier, d.later) for d in nest_dependences(nest)}
    assert (DepKind.WAR, 0, 1) in kinds   # stmt0 reads a, stmt1 writes a
    assert (DepKind.RAW, 0, 1) in kinds   # stmt0 writes b, stmt1 reads b
    raw = next(d for d in nest_dependences(nest) if d.kind is DepKind.RAW)
    assert raw.same_point and raw.walk == ref_walk(b, loops)


def test_nest_dependences_ignore_disjoint_namespaces_and_imm():
    loops = [("i", 4)]
    x = TRef(NS, 0, {"i": 1})
    y = TRef(Namespace.IBUF2, 0, {"i": 1})   # same base, other scratchpad
    w = TRef(NS, 16, {"i": 1})               # disjoint from x's extent
    k = TRef(Namespace.IMM, 0, {})
    nest = Nest(loops, [_stmt(AluFunc.ADD, y, x, k),
                        _stmt(AluFunc.MUL, w, y, k)])
    kinds = {d.kind for d in nest_dependences(nest)}
    assert kinds == {DepKind.RAW}            # only the y forwarding chain


def test_deps_rejects_pr6_stride0_forwarding_reproducer():
    """PR 6 miscompile #1, rejected by the dependence analysis itself."""
    loops = [("c", 10)]
    x = TRef(NS, 0, {"c": 1})
    temp = TRef(NS, 32, {})                  # per-point stride-0 scratch
    out = TRef(NS, 64, {"c": 1})
    nest = Nest(loops, [_stmt(AluFunc.ADD, temp, x, x),
                        _stmt(AluFunc.MUL, out, temp, temp)])
    blockers = fission_blockers(nest)
    assert any("non-injective" in b for b in blockers)


def test_fission_blockers_empty_for_injective_forwarding():
    loops = [("i", 4), ("j", 8)]
    x = TRef(NS, 0, {"i": 8, "j": 1})
    temp = TRef(NS, 32, {"i": 8, "j": 1})
    out = TRef(NS, 64, {"i": 8, "j": 1})
    nest = Nest(loops, [_stmt(AluFunc.ADD, temp, x, x),
                        _stmt(AluFunc.MUL, out, temp, temp)])
    assert fission_blockers(nest) == []
    parts = [Nest(loops, [stmt]) for stmt in nest.body]
    # One claim per read of the temp (src1 and src2 both consume it).
    claims = forwarding_claims(nest, parts)
    assert claims
    for producer, consumer, walk in claims:
        assert producer is parts[0] and consumer is parts[1]
        assert walk == ref_walk(temp, loops) and walk.injective()


def test_interchange_blockers():
    loops = [("i", 4), ("j", 8)]
    x = TRef(NS, 0, {"i": 8, "j": 1})
    acc = TRef(NS, 64, {})
    parallel = Nest(loops, [_stmt(AluFunc.ADD, x, x, x)])
    reduction = Nest(loops, [_stmt(AluFunc.ADD, acc, acc, x)])
    assert interchange_blockers(parallel, [1, 0]) == []
    assert interchange_blockers(parallel, [0, 0])    # not a permutation
    assert is_pointwise_parallel(parallel)
    assert not is_pointwise_parallel(reduction)
    assert interchange_blockers(reduction, [1, 0])


# ---------------------------------------------------------------------------
# Compiled-model fixtures (deepcopied before any mutation: the compile
# cache shares LoweredTile objects between calls)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tinynet_model():
    return compile_model(build_model("tinynet"), verify=False)


@pytest.fixture(scope="module")
def decode_model():
    step = build_step(get_llm_config("tinyllm"), past_len=4, n_new=1)
    return compile_model(step.graph, verify=False)


def _mutable(model):
    return copy.deepcopy(model)


# ---------------------------------------------------------------------------
# Translation validation
# ---------------------------------------------------------------------------
def test_clean_compile_validates_exactly(tinynet_model):
    for cb in tinynet_model.blocks:
        if cb.tile is None:
            continue
        assert cb.tile.access_meta is not None
        assert validate_tile(cb.tile, interpret(cb.tile.program)) == []


def test_mutated_stride_claim_is_a_translation_mismatch(tinynet_model):
    model = _mutable(tinynet_model)
    tile = next(cb.tile for cb in model.blocks if cb.tile is not None)
    meta = tile.access_meta.to_dict()
    # Bump one operand stride: the IR now claims a walk the binary
    # does not perform.
    meta["nests"][0]["stmts"][0][0][3][0] += 1
    tile.access_meta = type(tile.access_meta).from_dict(meta)
    findings = validate_tile(tile, interpret(tile.program))
    assert findings and all(f.severity is Severity.ERROR for f in findings)
    assert findings[0].rule == "translation-mismatch"
    assert findings[0].rule_id == "DEP001"


def test_tampered_transfer_binding_is_flagged(tinynet_model):
    model = _mutable(tinynet_model)
    tile = next(cb.tile for cb in model.blocks if cb.tile is not None)
    slot = tile.transfers[0]
    tile.transfers[0] = dataclasses.replace(slot, tensor="somewhere_else")
    findings = validate_tile(tile, interpret(tile.program))
    assert any("transfer binding" in f.message and "tensor" in f.message
               for f in findings)


def test_forged_noninjective_claim_is_rejected(tinynet_model):
    model = _mutable(tinynet_model)
    tile = next(cb.tile for cb in model.blocks if cb.tile is not None)
    meta = tile.access_meta
    nest = meta.nests[0]
    meta.claims.append(ForwardClaim(
        producer=nest.event, consumer=nest.event, ns=NS.name, base=0,
        strides=(0,) * len(nest.counts), counts=tuple(nest.counts)))
    findings = validate_tile(tile, interpret(tile.program))
    assert any(f.rule == "claim-noninjective" and f.rule_id == "DEP002"
               for f in findings)


def test_transfer_elements_mirrors_lowering():
    from repro.compiler.ir import TransferSlot
    slot = TransferSlot(direction="ld", tensor="x", ns=NS, base=0,
                        elements=1152)
    assert transfer_elements(slot) == 1152
    # With a halo-padded pre_reshape the binary walks the padded box.
    padded = dataclasses.replace(slot, pre_reshape=(2, 28, 28))
    assert transfer_elements(padded) == 2 * 28 * 28


# ---------------------------------------------------------------------------
# Model-level races: static detector vs dynamic oracle
# ---------------------------------------------------------------------------
def test_zoo_and_decode_models_are_statically_and_dynamically_clean(
        tinynet_model, decode_model):
    for model in (tinynet_model, decode_model):
        assert check_model(model) == []
        assert run_oracle(model).clean


def test_alias_roots_resolve_cache_appends(decode_model):
    roots = alias_roots(decode_model.graph)
    assert roots            # every decode layer appends in place
    for alias, root in roots.items():
        assert root.startswith(("k_cache_", "v_cache_"))
        assert alias != root


def test_block_crossing_rename_is_rejected_without_adhoc_checks(
        tinynet_model):
    """PR 6 miscompile #2: a load of renamed, never-materialized DRAM."""
    model = _mutable(tinynet_model)
    # Retarget block 1's load to a tensor only block 2 produces: exactly
    # what a rename escaping its block without materialization looks like.
    victim = model.blocks[1].tile
    idx = next(i for i, s in enumerate(victim.transfers)
               if s.direction == "ld")
    later_store = model.blocks[2].tile.transfers[-1].tensor
    victim.transfers[idx] = dataclasses.replace(
        victim.transfers[idx], tensor=later_store)
    findings = check_model(model)
    assert any(f.rule == "dram-undef-read" and f.rule_id == "DEP003"
               for f in findings)
    verdict = run_oracle(model)
    assert verdict.undef_reads and not verdict.clean


def test_seeded_overlapping_cache_append_is_flagged_by_both(decode_model):
    model = _mutable(decode_model)
    for cb in model.blocks:
        if cb.tile is None:
            continue
        appends = [s for s in cb.tile.transfers
                   if s.direction == "st" and s.region is not None]
        if appends:
            # A second store claiming the same slice of the same cache.
            cb.tile.transfers.append(dataclasses.replace(appends[0]))
            break
    else:
        pytest.fail("decode model has no in-place append store")
    findings = check_model(model)
    assert any(f.rule == "cache-alias-overlap" and f.rule_id == "DEP004"
               for f in findings)
    assert run_oracle(model).alias_overlaps


def test_seeded_out_of_bounds_append_is_flagged_by_both(decode_model):
    model = _mutable(decode_model)
    for cb in model.blocks:
        if cb.tile is None:
            continue
        for i, slot in enumerate(cb.tile.transfers):
            if slot.direction == "st" and slot.region is not None:
                shape = model.graph.tensor(slot.tensor).shape
                region = list(slot.region)
                dim, (start, _stop) = next(
                    (d, r) for d, r in enumerate(region))
                region[dim] = (start, shape[dim] + 7)
                cb.tile.transfers[i] = dataclasses.replace(
                    slot, region=tuple(region))
                findings = check_model(model)
                assert any(f.rule == "cache-append-oob"
                           and f.rule_id == "DEP005" for f in findings)
                assert run_oracle(model).alias_overlaps
                return
    pytest.fail("decode model has no in-place append store")


def test_stale_read_before_append_is_flagged_by_both(decode_model):
    model = _mutable(decode_model)
    for cb in model.blocks:
        if cb.tile is None:
            continue
        transfers = cb.tile.transfers
        st_idx = next((i for i, s in enumerate(transfers)
                       if s.direction == "st" and s.region is not None),
                      None)
        if st_idx is None:
            continue
        root = alias_roots(model.graph).get(transfers[st_idx].tensor,
                                            transfers[st_idx].tensor)
        ld_idx = next((i for i, s in enumerate(transfers)
                       if i > st_idx and s.direction == "ld"
                       and alias_roots(model.graph).get(s.tensor, s.tensor)
                       == root), None)
        if ld_idx is None:
            continue
        # The DAE queue is in-order: move the append store *after* the
        # load that consumes the updated cache — the load now observes
        # the stale slice.
        slot = transfers.pop(st_idx)
        transfers.insert(ld_idx, slot)
        findings = check_model(model)
        assert any(f.rule == "cache-alias-overlap"
                   and "queued before" in f.message for f in findings)
        assert run_oracle(model).alias_overlaps
        return
    pytest.fail("no append store followed by a same-root load")


# ---------------------------------------------------------------------------
# Verifier pipeline + rule registry
# ---------------------------------------------------------------------------
def test_verify_model_runs_deps_pass_and_model_report(tinynet_model):
    report = verify_model(tinynet_model, deps="strict")
    assert report.errors == 0
    tile_reports = [r for r in report.reports
                    if not r.program.endswith("::model")]
    assert all("deps" in r.passes for r in tile_reports)
    model_report = next(r for r in report.reports
                        if r.program.endswith("::model"))
    assert model_report.passes == ["deps"]


def test_deps_mode_env_override(monkeypatch):
    # Spellings are the knob registry's (tests/test_knobs.py); this is
    # the policy: the environment decides unless an override is given.
    monkeypatch.setenv("REPRO_DEPS", "off")
    assert deps_mode() == "off"
    # An explicit override out-ranks the environment.
    assert deps_mode("strict") == "strict"
    with pytest.raises(KnobError, match="REPRO_DEPS"):
        deps_mode("stirct")


def test_rule_registry_is_stable_and_complete():
    rules = all_rules()
    ids = [r.id for r in rules]
    names = [r.name for r in rules]
    assert len(set(ids)) == len(ids)
    assert len(set(names)) == len(names)
    for expected in ("DEP001", "DEP002", "DEP003", "DEP004", "DEP005",
                     "DEP006"):
        assert expected in ids
    assert rule_id("translation-mismatch") == "DEP001"
    assert rule_id("dram-undef-read") == "DEP003"
    assert rule_id("not-a-rule") is None


def test_normalize_and_resolve_ignores():
    assert normalize_rule("dep003") == "dram-undef-read"
    assert normalize_rule("DEP003") == "dram-undef-read"
    assert normalize_rule("dead-store") == "dead-store"
    assert normalize_rule("nope") is None
    assert resolve_ignores(["DEP004", "dead-store"]) == [
        "cache-alias-overlap", "dead-store"]
    with pytest.raises(ValueError, match="unknown rule"):
        resolve_ignores(["BOGUS999"])


def test_report_suppress_drops_by_rule():
    report = VerifyReport(program="p", passes=["deps"], findings=[
        Finding(severity=Severity.ERROR, rule="dram-undef-read",
                message="a"),
        Finding(severity=Severity.INFO, rule="dead-store", message="b"),
    ])
    assert report.errors == 1
    assert report.suppress(["dram-undef-read"]) == 1
    assert report.errors == 0 and report.infos == 1


def test_rules_table_lists_every_rule():
    table = rules_table()
    for rule in all_rules():
        assert rule.id in table and f"`{rule.name}`" in table


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
def test_cli_verify_decode_target_with_deps(capsys):
    from repro.cli import main
    assert main(["verify", "tinyllm:decode", "--deps", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_ignore_unknown_rule_is_an_error(capsys):
    from repro.cli import main
    assert main(["lint", "tinynet", "--ignore", "NOPE123"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_ignore_suppresses_findings(capsys):
    from repro.cli import main
    # gpt2 lint reports dead-store infos; --ignore must remove them.
    assert main(["lint", "gpt2", "--ignore", "LNT001",
                 "--ignore", "LNT003"]) == 0
    out = capsys.readouterr().out
    assert "dead-store" not in out


def test_cli_docs_rules_stdout(capsys):
    from repro.cli import main
    assert main(["docs", "--rules", "--stdout"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Verifier rule reference")
    assert "DEP001" in out
