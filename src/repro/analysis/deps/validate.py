"""Translation validation: IR-level access claims vs the lowered binary.

The compiler attaches :class:`~repro.analysis.deps.access.TileAccessMeta`
to every lowered tile — its claim of which affine walks the program
performs. The verifier's abstract interpreter
(:mod:`repro.analysis.verifier.state`) independently reconstructs the
same walks from the packed instruction words alone. This module is the
judge: :func:`validate_tile` compares the two reconstructions event by
event, operand by operand, and any disagreement is an error finding —
so a transform, lowering, encoding, or serialization bug that moves an
access is rejected at verify time, on every fresh compile and every
autotune candidate.

Three comparison surfaces:

* **nests** — per body statement, each operand's (namespace, base,
  per-level strides) and the nest's trip counts;
* **transfers / permutes** — count, order, direction, namespace, base
  and element/word totals, both against the decoded DAE configuration
  words and against the runtime transfer bindings the functional
  machine will execute;
* **forwarding claims** — each fission-recorded per-point forwarding
  walk must still be injective *and* must still be the walk the
  producer nest writes in the binary (re-deriving, not trusting, the
  legality decision the transform pass made).
"""

from __future__ import annotations

from typing import List, Optional

from ..verifier.findings import Finding, Severity, snippet_at
from .access import TileAccessMeta, transfer_elements

#: The DAE/permute base-address fields are 16-bit immediates; the IR
#: side must be masked the same way before comparison.
_ADDR_MASK = 0xFFFF


def _finding(program, rule: str, message: str,
             pc: Optional[int] = None) -> Finding:
    """An error-severity deps finding anchored at ``pc``."""
    snippet = snippet_at(program, pc) if pc is not None else ""
    return Finding(severity=Severity.ERROR, rule=rule, message=message,
                   pc=pc, snippet=snippet)


def validate_tile(tile, trace) -> List[Finding]:
    """Cross-check one tile's access metadata against its binary trace.

    ``tile`` is a :class:`~repro.compiler.lowering.LoweredTile` whose
    ``access_meta`` the compiler populated; ``trace`` is the
    :class:`~repro.analysis.verifier.state.ProgramTrace` of its program.
    Returns error findings for every disagreement; an empty list means
    the IR-level and binary-level dependence structures coincide.
    """
    meta: TileAccessMeta = tile.access_meta
    program = trace.program
    findings: List[Finding] = []

    findings.extend(_validate_nests(program, meta, trace))
    findings.extend(_validate_transfers(program, tile, meta, trace))
    findings.extend(_validate_permutes(program, meta, trace))
    findings.extend(_validate_claims(program, meta))
    return findings


def _validate_nests(program, meta: TileAccessMeta, trace) -> List[Finding]:
    findings: List[Finding] = []
    if len(meta.nests) != len(trace.nests):
        findings.append(_finding(
            program, "translation-mismatch",
            f"IR claims {len(meta.nests)} loop nest(s) but the binary "
            f"executes {len(trace.nests)}"))
        return findings
    for claimed, actual in zip(meta.nests, trace.nests):
        counts = tuple(actual.counts)
        if tuple(claimed.counts) != counts:
            findings.append(_finding(
                program, "translation-mismatch",
                f"nest at event {claimed.event}: IR trip counts "
                f"{tuple(claimed.counts)} vs binary {counts}",
                pc=actual.header_pc))
            continue
        # Group the binary's resolved operand uses per body word.
        uses_by_pc = {}
        for use in actual.uses:
            uses_by_pc.setdefault(use.pc, []).append(use)
        body_pcs = [pc for pc, _ in actual.body]
        if len(claimed.stmts) != len(body_pcs):
            findings.append(_finding(
                program, "translation-mismatch",
                f"nest at event {claimed.event}: IR body has "
                f"{len(claimed.stmts)} statement(s) but the binary body "
                f"has {len(body_pcs)}", pc=actual.header_pc))
            continue
        for stmt_walks, pc in zip(claimed.stmts, body_pcs):
            uses = uses_by_pc.get(pc, [])
            if len(stmt_walks) != len(uses):
                findings.append(_finding(
                    program, "translation-mismatch",
                    f"statement at pc {pc}: IR claims "
                    f"{len(stmt_walks)} operand(s), binary resolves "
                    f"{len(uses)}", pc=pc))
                continue
            for walk, use in zip(stmt_walks, uses):
                if use.entry is None:
                    continue  # dataflow pass reports iter-unconfigured
                entry_strides = tuple(use.entry.strides[:len(counts)])
                claim_strides = tuple(walk.strides)
                if (walk.role != use.role or walk.ns != use.ns.name
                        or walk.base != use.entry.base
                        or claim_strides != entry_strides):
                    findings.append(_finding(
                        program, "translation-mismatch",
                        f"{use.role} operand at pc {pc}: IR walk "
                        f"{walk.ns}[{walk.base}]+{claim_strides} vs "
                        f"binary {use.ns.name}[{use.entry.base}]"
                        f"+{entry_strides}", pc=pc))
    return findings


def _validate_transfers(program, tile, meta: TileAccessMeta,
                        trace) -> List[Finding]:
    findings: List[Finding] = []
    if len(meta.transfers) != len(trace.transfers):
        findings.append(_finding(
            program, "translation-mismatch",
            f"IR claims {len(meta.transfers)} DAE transfer(s) but the "
            f"binary starts {len(trace.transfers)}"))
    else:
        for claimed, actual in zip(meta.transfers, trace.transfers):
            problems = []
            if claimed.direction != actual.direction:
                problems.append(
                    f"direction {claimed.direction} vs {actual.direction}")
            if claimed.ns != actual.ns.name:
                problems.append(f"namespace {claimed.ns} vs {actual.ns.name}")
            if claimed.base & _ADDR_MASK != actual.base:
                problems.append(
                    f"base {claimed.base & _ADDR_MASK} vs {actual.base}")
            if actual.elements is not None \
                    and claimed.elements != actual.elements:
                problems.append(
                    f"elements {claimed.elements} vs {actual.elements}")
            if problems:
                findings.append(_finding(
                    program, "translation-mismatch",
                    f"transfer at event {claimed.event} "
                    f"({claimed.tensor}): " + "; ".join(problems),
                    pc=actual.start_pc))
    # The runtime bindings (what the functional machine will actually
    # execute) must match the same claims: tensor name, region box,
    # direction, footprint. This is what catches a serialized artifact
    # whose TransferSlot was tampered with while its words stayed intact.
    slots = getattr(tile, "transfers", [])
    if len(slots) != len(meta.transfers):
        findings.append(_finding(
            program, "translation-mismatch",
            f"IR claims {len(meta.transfers)} DAE transfer(s) but the "
            f"tile binds {len(slots)}"))
        return findings
    for claimed, slot in zip(meta.transfers, slots):
        problems = []
        if claimed.tensor != slot.tensor:
            problems.append(f"tensor {claimed.tensor!r} vs {slot.tensor!r}")
        if claimed.direction != slot.direction:
            problems.append(
                f"direction {claimed.direction} vs {slot.direction}")
        if claimed.ns != slot.ns.name or claimed.base != slot.base:
            problems.append(
                f"footprint {claimed.ns}[{claimed.base}] vs "
                f"{slot.ns.name}[{slot.base}]")
        slot_elements = transfer_elements(slot)
        if claimed.elements != slot_elements:
            problems.append(
                f"elements {claimed.elements} vs {slot_elements}")
        if claimed.region != slot.region:
            problems.append(f"region {claimed.region} vs {slot.region}")
        if problems:
            findings.append(_finding(
                program, "translation-mismatch",
                f"transfer binding at event {claimed.event}: "
                + "; ".join(problems)))
    return findings


def _validate_permutes(program, meta: TileAccessMeta, trace) -> List[Finding]:
    findings: List[Finding] = []
    if len(meta.permutes) != len(trace.permutes):
        findings.append(_finding(
            program, "translation-mismatch",
            f"IR claims {len(meta.permutes)} permute(s) but the binary "
            f"starts {len(trace.permutes)}"))
        return findings
    for claimed, actual in zip(meta.permutes, trace.permutes):
        problems = []
        if claimed.src_base & _ADDR_MASK != actual.src_base:
            problems.append(f"src base {claimed.src_base & _ADDR_MASK} "
                            f"vs {actual.src_base}")
        if claimed.dst_base & _ADDR_MASK != actual.dst_base:
            problems.append(f"dst base {claimed.dst_base & _ADDR_MASK} "
                            f"vs {actual.dst_base}")
        if actual.words is not None and claimed.words != actual.words:
            problems.append(f"words {claimed.words} vs {actual.words}")
        if problems:
            findings.append(_finding(
                program, "translation-mismatch",
                f"permute at event {claimed.event}: " + "; ".join(problems),
                pc=actual.start_pc))
    return findings


def _validate_claims(program, meta: TileAccessMeta) -> List[Finding]:
    findings: List[Finding] = []
    nest_by_event = {n.event: n for n in meta.nests}
    for claim in meta.claims:
        walk = claim.walk()
        if not walk.injective():
            findings.append(_finding(
                program, "claim-noninjective",
                f"fission forwarded a value through a non-injective walk "
                f"{claim.ns}[{claim.base}]+{tuple(claim.strides)} over "
                f"{tuple(claim.counts)} — instruction-major replay keeps "
                f"only the last point's value"))
            continue
        producer = nest_by_event.get(claim.producer)
        if producer is None or not producer.stmts:
            findings.append(_finding(
                program, "claim-noninjective",
                f"fission claim references event {claim.producer}, which "
                f"is not a nest in this tile"))
            continue
        dst = producer.stmts[0][0]
        if (dst.ns != claim.ns or dst.base != claim.base
                or tuple(dst.strides) != tuple(claim.strides)
                or tuple(producer.counts) != tuple(claim.counts)):
            findings.append(_finding(
                program, "claim-noninjective",
                f"fission claim at event {claim.producer} no longer "
                f"matches the producer's destination walk "
                f"({dst.ns}[{dst.base}]+{tuple(dst.strides)} over "
                f"{tuple(producer.counts)})"))
    return findings
