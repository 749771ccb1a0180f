"""Dynamic hazard oracle: exact address-set replay of a compiled model.

The static detectors (:mod:`.races`, the verifier's ownership pass)
work from IR metadata and interval extents. Because the Tandem ISA has
no data-dependent addressing, *exact* ground truth is also computable:
every DRAM region is an explicit box and every scratchpad footprint is
a finite affine walk, so this module replays the whole model with
boolean definedness bitmaps per DRAM storage root and exact OBUF
address sets reconstructed from the binary (via the verifier's abstract
interpreter — deliberately *not* from the compiler's own metadata, so
the oracle cannot inherit a compiler bug).

Used by the test suite to prove the static verdicts exact on the model
zoo and decode-step programs: clean models must replay hazard-free, and
every seeded mutation the static pass flags must also trip here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...isa import Namespace
from .footprint import Walk
from .races import alias_roots

if TYPE_CHECKING:
    import numpy as np

Region = Optional[Tuple[Tuple[int, int], ...]]


@dataclass
class OracleVerdict:
    """Every hazard one exact replay of a compiled model observed."""

    undef_reads: List[str] = field(default_factory=list)
    alias_overlaps: List[str] = field(default_factory=list)
    obuf_overruns: List[str] = field(default_factory=list)

    @property
    def hazards(self) -> List[str]:
        """All observed hazards, in replay order per category."""
        return self.undef_reads + self.alias_overlaps + self.obuf_overruns

    @property
    def clean(self) -> bool:
        """True when the replay observed no hazard of any kind."""
        return not self.hazards


def _region_index(region: Region) -> Tuple:
    """numpy index selecting a DRAM region box (``None`` = everything)."""
    if region is None:
        return (Ellipsis,)
    return tuple(slice(start, stop) for start, stop in region)


def _mask(shape: Tuple[int, ...], region: Region) -> np.ndarray:
    import numpy as np
    mask = np.zeros(shape, dtype=bool)
    mask[_region_index(region)] = True
    return mask


class _DramReplay:
    """Definedness bitmaps per storage root, updated store by store."""

    def __init__(self, graph, roots: Dict[str, str]):
        self.graph = graph
        self.roots = roots
        self.defined: Dict[str, np.ndarray] = {}
        for name in list(graph.graph_inputs) + [
                p for node in graph.nodes for p in node.params]:
            self._bitmap(name)[...] = True

    def root(self, name: str) -> str:
        return self.roots.get(name, name)

    def _bitmap(self, name: str) -> np.ndarray:
        import numpy as np
        storage = self.root(name)
        if storage not in self.defined:
            shape = self.graph.tensor(storage).shape
            self.defined[storage] = np.zeros(shape, dtype=bool)
        return self.defined[storage]

    def _view(self, name: str, region: Region) -> np.ndarray:
        bitmap = self._bitmap(name)
        if self.graph.tensor(name).shape != bitmap.shape:
            # An alias viewed under a different shape: degrade to the
            # whole storage (exact boxes need matching coordinates).
            return bitmap
        return bitmap[_region_index(region)]

    def is_defined(self, name: str, region: Region) -> bool:
        view = self._view(name, region)
        return bool(view.size == 0 or view.all())

    def define(self, name: str, region: Region) -> None:
        self._view(name, region)[...] = True


def _obuf_addresses(tile) -> List[Tuple[int, int]]:
    """Exact (base, max address) per OBUF operand walk in the binary."""
    from ..verifier.state import interpret

    trace = interpret(tile.program)
    spans = []
    for nest in trace.nests:
        counts = tuple(nest.counts)
        for use in nest.uses:
            if use.entry is None or use.ns is not Namespace.OBUF:
                continue
            walk = Walk(use.entry.base,
                        tuple(use.entry.strides[:len(counts)]), counts)
            addrs = walk.addresses()
            if addrs is None:        # beyond enumeration cap
                spans.append((use.entry.base, walk.extent[1]))
            else:
                spans.append((use.entry.base, int(addrs.max())))
    return spans


def run_oracle(model) -> OracleVerdict:
    """Replay ``model`` exactly and report every hazard observed.

    Mirrors the machine's semantics, not the static analysis: DRAM
    definedness advances store by store through the blocks in dispatch
    order, in-place appends intersect exact region masks, and OBUF
    reads are enumerated from the decoded binary words.
    """
    graph = model.graph
    roots = alias_roots(graph)
    replay = _DramReplay(graph, roots)
    verdict = OracleVerdict()
    append_outs = {n.outputs[0] for n in graph.nodes
                   if n.op_type == "CacheAppend"}
    # (queue idx, root, name, mask) per append slice store, model-wide.
    append_masks: List[Tuple[int, str, str, np.ndarray]] = []

    for cb in model.blocks:
        local = {replay.root(out)
                 for node in cb.block.nodes for out in node.outputs}
        if cb.block.gemm is not None:
            for name in cb.block.gemm.inputs:
                if not replay.is_defined(name, None):
                    verdict.undef_reads.append(
                        f"block {cb.name}: GEMM reads undefined "
                        f"element(s) of {name!r}")
            replay.define(cb.block.gemm.outputs[0], None)
        if cb.tile is None:
            continue

        # In-place append *slice* stores (a region-less store of an
        # append output is the ordered full-tensor materialization):
        # exact masks, with their DAE queue position — the queue is
        # in-order, so only a load queued *earlier* can observe the
        # stale slice an append is about to rewrite.
        tile_appends: List[Tuple[int, str, str, np.ndarray]] = []
        for t, slot in enumerate(cb.tile.transfers):
            if slot.direction != "st" or slot.tensor not in append_outs \
                    or slot.region is None:
                continue
            shape = graph.tensor(slot.tensor).shape
            in_bounds = all(
                0 <= start < stop <= shape[dim]
                for dim, (start, stop) in enumerate(slot.region))
            if not in_bounds:
                verdict.alias_overlaps.append(
                    f"block {cb.name}: CacheAppend store to "
                    f"{slot.tensor!r} leaves the bounds of {shape}")
                continue
            mask = _mask(shape, slot.region)
            tile_appends.append((t, replay.root(slot.tensor),
                                 slot.tensor, mask))

        for t, slot in enumerate(cb.tile.transfers):
            if slot.direction == "ld":
                storage = replay.root(slot.tensor)
                for app_t, app_root, app_name, app_mask in tile_appends:
                    if app_root != storage or app_t <= t:
                        continue
                    ld_mask = _mask(graph.tensor(slot.tensor).shape,
                                    slot.region)
                    if ld_mask.shape == app_mask.shape \
                            and bool((ld_mask & app_mask).any()):
                        verdict.alias_overlaps.append(
                            f"block {cb.name}: load of {slot.tensor!r} "
                            f"observes the stale slice {app_name!r} "
                            f"appends after it")
                if storage not in local \
                        and not replay.is_defined(slot.tensor, slot.region):
                    verdict.undef_reads.append(
                        f"block {cb.name}: load of {slot.tensor!r} reads "
                        f"undefined DRAM")
            else:
                replay.define(slot.tensor, slot.region)

        for app in tile_appends:
            for _pt, prev_root, prev_name, prev_mask in append_masks:
                if prev_root == app[1] and prev_mask.shape == app[3].shape \
                        and bool((prev_mask & app[3]).any()):
                    verdict.alias_overlaps.append(
                        f"appends {prev_name!r} and {app[2]!r} rewrite "
                        f"overlapping slices of {app[1]!r}")
            append_masks.append(app)

        # OBUF handoff is checked only for executable single-tile
        # programs (multi-tile representatives are cost models whose
        # ceil-divided walks over-cover the handoff by construction).
        if cb.block.gemm is not None and cb.tiles == 1:
            out_elems = graph.tensor(cb.block.gemm.outputs[0]).numel
            tile_elems = max(1, ceil(out_elems / cb.tiles))
            for base, top in _obuf_addresses(cb.tile):
                if top >= tile_elems:
                    verdict.obuf_overruns.append(
                        f"block {cb.name}: OBUF walk from {base} reaches "
                        f"{top}, past the {tile_elems}-element GEMM tile")
    return verdict
