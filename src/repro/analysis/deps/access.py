"""IR-level access metadata attached to every lowered tile.

The compiler's claim surface for translation validation: for each event
of a tile (loop nest, DAE transfer, permute), the exact affine access
footprints the IR says the lowered program performs. The verifier's
abstract interpreter independently reconstructs the same footprints
from the binary words alone, and :mod:`.validate` requires the two to
agree — so any transform, lowering, or serialization bug that moves an
access surfaces as a verifier error instead of a silent wrong answer.

The records are plain serializable dataclasses; :func:`collect_access_meta`
builds them from a :class:`~repro.compiler.ir.TileContext` after all
pipeline passes have run (so the metadata describes the program as
lowered, not as first emitted), and
:mod:`repro.compiler.serialize` round-trips them with the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...isa import is_unary
from .footprint import Walk

@dataclass(frozen=True)
class OperandWalk:
    """One operand's footprint in one body statement."""

    role: str                    # "dst" | "src1" | "src2"
    ns: str                      # Namespace name
    base: int
    strides: Tuple[int, ...]     # one per nest loop level, outermost first

    def walk(self, counts: Tuple[int, ...]) -> Walk:
        """The operand's :class:`Walk` under the nest's trip counts."""
        return Walk(self.base, self.strides, counts)


@dataclass(frozen=True)
class NestAccess:
    """One Code Repeater activation's claimed footprints."""

    event: int                               # index into the event stream
    counts: Tuple[int, ...]                  # trip count per level
    stmts: Tuple[Tuple[OperandWalk, ...], ...]   # per body statement


@dataclass(frozen=True)
class TransferAccess:
    """One DAE activation's claimed binding (tensor, region, footprint)."""

    event: int
    direction: str               # "ld" | "st"
    tensor: str                  # DRAM tensor name (alias-resolved)
    ns: str                      # scratchpad namespace name
    base: int
    elements: int
    region: Optional[Tuple[Tuple[int, int], ...]]  # DRAM box, None = whole


@dataclass(frozen=True)
class PermuteAccess:
    """One permute-engine activation's claimed bases and word count."""

    event: int
    src_ns: str
    src_base: int
    dst_ns: str
    dst_base: int
    words: int


@dataclass(frozen=True)
class ForwardClaim:
    """A fission pass's assertion that per-point forwarding is legal.

    Splitting a nest whose later statement reads what an earlier one
    wrote *at the same point* is only legal through an injective walk.
    The pass that performed the split records the walk it relied on;
    translation validation re-derives injectivity and re-checks that
    the producer nest in the binary still writes exactly this walk.
    """

    producer: int                # event index of the producer nest
    consumer: int                # event index of the consumer nest
    ns: str
    base: int
    strides: Tuple[int, ...]
    counts: Tuple[int, ...]

    def walk(self) -> Walk:
        """The claimed forwarding footprint as a :class:`Walk`."""
        return Walk(self.base, self.strides, self.counts)


@dataclass
class TileAccessMeta:
    """All IR-level access claims for one lowered tile."""

    nests: List[NestAccess] = field(default_factory=list)
    transfers: List[TransferAccess] = field(default_factory=list)
    permutes: List[PermuteAccess] = field(default_factory=list)
    #: Zero-copy DRAM renames active in this tile (reshape of off-chip
    #: data): alias name → storage root.
    dram_alias: Dict[str, str] = field(default_factory=dict)
    claims: List[ForwardClaim] = field(default_factory=list)

    def to_dict(self) -> Dict:
        """JSON-ready form (round-trips via :meth:`from_dict`)."""
        return {
            "nests": [
                {"event": n.event, "counts": list(n.counts),
                 "stmts": [[[w.role, w.ns, w.base, list(w.strides)]
                            for w in stmt] for stmt in n.stmts]}
                for n in self.nests],
            "transfers": [
                {"event": t.event, "direction": t.direction,
                 "tensor": t.tensor, "ns": t.ns, "base": t.base,
                 "elements": t.elements,
                 "region": (None if t.region is None
                            else [list(r) for r in t.region])}
                for t in self.transfers],
            "permutes": [
                {"event": p.event, "src_ns": p.src_ns,
                 "src_base": p.src_base, "dst_ns": p.dst_ns,
                 "dst_base": p.dst_base, "words": p.words}
                for p in self.permutes],
            "dram_alias": dict(self.dram_alias),
            "claims": [
                {"producer": c.producer, "consumer": c.consumer,
                 "ns": c.ns, "base": c.base, "strides": list(c.strides),
                 "counts": list(c.counts)}
                for c in self.claims],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TileAccessMeta":
        """Rebuild the metadata from its :meth:`to_dict` form."""
        return cls(
            nests=[NestAccess(
                event=n["event"], counts=tuple(n["counts"]),
                stmts=tuple(
                    tuple(OperandWalk(role=w[0], ns=w[1], base=w[2],
                                      strides=tuple(w[3])) for w in stmt)
                    for stmt in n["stmts"]))
                for n in data["nests"]],
            transfers=[TransferAccess(
                event=t["event"], direction=t["direction"],
                tensor=t["tensor"], ns=t["ns"], base=t["base"],
                elements=t["elements"],
                region=(None if t["region"] is None
                        else tuple(tuple(r) for r in t["region"])))
                for t in data["transfers"]],
            permutes=[PermuteAccess(
                event=p["event"], src_ns=p["src_ns"],
                src_base=p["src_base"], dst_ns=p["dst_ns"],
                dst_base=p["dst_base"], words=p["words"])
                for p in data["permutes"]],
            dram_alias=dict(data.get("dram_alias", {})),
            claims=[ForwardClaim(
                producer=c["producer"], consumer=c["consumer"], ns=c["ns"],
                base=c["base"], strides=tuple(c["strides"]),
                counts=tuple(c["counts"]))
                for c in data.get("claims", [])],
        )


def transfer_elements(slot) -> int:
    """The scratchpad-side element count a transfer's config words encode.

    Mirrors ``lowering._lower_transfer``: the DAE walks
    ``pre_reshape`` when set (which includes any halo padding), else the
    flat ``elements`` count — so this, not ``slot.elements``, is what
    the binary-level trace reconstructs.
    """
    from math import prod
    if slot.pre_reshape:
        return prod(slot.pre_reshape)
    return slot.elements


def collect_access_meta(ctx) -> TileAccessMeta:
    """Build the access metadata for one tile's post-pipeline event list.

    Mirrors the lowering walk one-to-one: the same events in the same
    order, each nest's operands resolved with the same unary/src2
    duplication rule, so a clean compile validates exactly.
    """
    # Imported here: repro.compiler.ir must stay importable without the
    # analysis package (the compiler lazily imports *us*).
    from ...compiler.ir import Nest, PermuteSlot, TransferSlot

    meta = TileAccessMeta(dram_alias=dict(ctx.dram_alias))
    nest_index: Dict[int, int] = {}   # id(nest) -> event index
    for index, event in enumerate(ctx.events):
        if isinstance(event, Nest):
            nest_index[id(event)] = index
            counts = tuple(count for _, count in event.loops)
            stmts = []
            for stmt in event.body:
                operands = [("dst", stmt.dst), ("src1", stmt.src1)]
                # Lowering fills a unary statement's src2 slot with src1;
                # the binary readers skip that slot, so the claims do too.
                if not is_unary(stmt.opcode, stmt.func):
                    operands.append(
                        ("src2", stmt.src2 if stmt.src2 is not None
                         else stmt.src1))
                stmts.append(tuple(
                    OperandWalk(role=role, ns=ref.ns.name, base=ref.base,
                                strides=tuple(ref.stride(var)
                                              for var, _ in event.loops))
                    for role, ref in operands))
            meta.nests.append(NestAccess(event=index, counts=counts,
                                         stmts=tuple(stmts)))
        elif isinstance(event, TransferSlot):
            meta.transfers.append(TransferAccess(
                event=index, direction=event.direction, tensor=event.tensor,
                ns=event.ns.name, base=event.base,
                elements=transfer_elements(event), region=event.region))
        elif isinstance(event, PermuteSlot):
            meta.permutes.append(PermuteAccess(
                event=index, src_ns=event.src_ns.name,
                src_base=event.src_base, dst_ns=event.dst_ns.name,
                dst_base=event.dst_base, words=event.words))
    for producer, consumer, walk in getattr(ctx, "dep_claims", []):
        p_idx = nest_index.get(id(producer))
        c_idx = nest_index.get(id(consumer))
        if p_idx is None or c_idx is None:
            continue  # the claimed nests were rewritten away downstream
        ns = producer.body[0].dst.ns.name
        meta.claims.append(ForwardClaim(
            producer=p_idx, consumer=c_idx, ns=ns, base=walk.base,
            strides=walk.strides, counts=walk.counts))
    return meta
