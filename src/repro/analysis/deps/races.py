"""Model-level race detection across the machine's concurrency seams.

The simulator runs blocks sequentially, but the *machine* the compiler
targets has three places where accesses overlap in time and no hardware
interlock exists to order them (the paper's core premise — the compiler
alone must prove hazard freedom):

* **DRAM dataflow** — a DAE load consumes whatever the named tensor
  holds; nothing stalls it until a producer has stored. A load of a
  tensor no earlier block materialized reads undefined data
  (``dram-undef-read``) — the block-crossing-rename miscompile class.
* **In-place cache appends** — ``CacheAppend`` outputs alias their
  cache input's storage (:meth:`repro.simulator.DramStore.alias`), so
  the appended slice is an in-place DRAM write. Within one tile the DAE
  engine runs transfers decoupled from compute, so a load of the same
  storage whose region meets the appended slice is a read/write race
  (``cache-alias-overlap``); two appends claiming overlapping slices of
  one cache are a write/write race; a slice outside the cache's bounds
  corrupts a neighbour (``cache-append-oob``).
* **OBUF handoff** — in a GEMM+Tandem block the systolic array owns the
  Output BUF until SYNC hands it over, and it fills exactly one tile's
  worth of elements. A Tandem walk reaching past ``ceil(out/tiles)``
  reads addresses the GEMM never wrote this tile
  (``obuf-tile-overrun``).

:func:`check_model` runs all three checks statically from the compiled
blocks' access metadata; :mod:`.oracle` is the exact dynamic replay the
tests use to ground-truth these verdicts.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional, Set, Tuple

from ..verifier.findings import Finding, Severity
from .footprint import boxes_overlap

Region = Optional[Tuple[Tuple[int, int], ...]]


def _finding(rule: str, message: str) -> Finding:
    """Model-level race findings have no pc: they span blocks."""
    return Finding(severity=Severity.ERROR, rule=rule, message=message)


def alias_roots(graph) -> Dict[str, str]:
    """Storage root of every tensor that shares DRAM with another.

    ``CacheAppend`` outputs alias their cache input (transitively, for
    chained appends); every other tensor is its own root. Only aliased
    names appear in the mapping.
    """
    parent: Dict[str, str] = {}
    for node in graph.topological_order():
        if node.op_type == "CacheAppend":
            parent[node.outputs[0]] = node.inputs[0]

    def resolve(name: str) -> str:
        seen = set()
        while name in parent and name not in seen:
            seen.add(name)
            name = parent[name]
        return name

    return {name: resolve(name) for name in parent}


def check_model(model) -> List[Finding]:
    """All statically detectable races in one compiled model.

    ``model`` is a :class:`~repro.compiler.compiler.CompiledModel`.
    Returns error findings; an empty list means every DAE load has a
    materialized producer, every in-place append is exclusive, and every
    OBUF read stays inside the GEMM tile's handoff footprint.
    """
    graph = model.graph
    roots = alias_roots(graph)

    def root(name: str) -> str:
        return roots.get(name, name)

    findings: List[Finding] = []
    findings.extend(_check_dataflow(model, root))
    findings.extend(_check_cache_appends(model, root))
    findings.extend(_check_obuf_handoff(model))
    return findings


def _check_dataflow(model, root) -> List[Finding]:
    """Every DAE load must read storage some earlier event materialized."""
    graph = model.graph
    findings: List[Finding] = []
    defined: Set[str] = {root(name) for name in graph.graph_inputs}
    for node in graph.nodes:
        defined.update(root(p) for p in node.params)

    for cb in model.blocks:
        # Same-block producers: a tile may round-trip its own outputs
        # through DRAM (halo re-fetch under cost-mode tiling) before the
        # store that publishes them is sequenced — exempt, not a race.
        local = {root(out) for node in cb.block.nodes for out in node.outputs}
        if cb.block.gemm is not None:
            for name in cb.block.gemm.inputs:
                if root(name) not in defined:
                    findings.append(_finding(
                        "dram-undef-read",
                        f"block {cb.name}: GEMM input {name!r} is read "
                        f"before any producer stores it"))
            defined.add(root(cb.block.gemm.outputs[0]))
        if cb.tile is None:
            continue
        for slot in cb.tile.transfers:
            tensor_root = root(slot.tensor)
            if slot.direction == "ld":
                if tensor_root not in defined and tensor_root not in local:
                    findings.append(_finding(
                        "dram-undef-read",
                        f"block {cb.name}: DAE load of {slot.tensor!r} "
                        f"reads DRAM no earlier block materialized "
                        f"(renamed tensors must be materialized before "
                        f"they cross a block boundary)"))
            else:
                defined.add(tensor_root)
    return findings


def _append_writes(model, root):
    """Every in-place append *slice* store: (block, queue idx, root, slot).

    A region-less store of an append output is the full-tensor
    materialization of an external output — sequenced after the append
    in the same in-order DAE queue, not an in-place slice write.
    """
    append_outs = {n.outputs[0] for n in model.graph.nodes
                   if n.op_type == "CacheAppend"}
    writes = []
    for b, cb in enumerate(model.blocks):
        if cb.tile is None:
            continue
        for t, slot in enumerate(cb.tile.transfers):
            if slot.direction == "st" and slot.tensor in append_outs \
                    and slot.region is not None:
                writes.append((b, t, root(slot.tensor), slot))
    return writes


def _check_cache_appends(model, root) -> List[Finding]:
    findings: List[Finding] = []
    graph = model.graph
    writes = _append_writes(model, root)
    if not writes:
        return findings

    # Bounds: the appended slice must stay inside the cache tensor.
    for _b, _t, _r, slot in writes:
        shape = graph.tensor(slot.tensor).shape
        region = slot.region
        if region is None:
            continue
        for dim, (start, stop) in enumerate(region):
            if start < 0 or stop > shape[dim] or start >= stop:
                findings.append(_finding(
                    "cache-append-oob",
                    f"CacheAppend store to {slot.tensor!r} writes slice "
                    f"{start}:{stop} outside dim {dim} of shape "
                    f"{tuple(shape)}"))
                break

    # Write/write: two appends claiming overlapping slices of one cache.
    for i, (_, _, r_a, slot_a) in enumerate(writes):
        for _, _, r_b, slot_b in writes[i + 1:]:
            if r_a != r_b:
                continue
            if boxes_overlap(slot_a.region, slot_b.region):
                findings.append(_finding(
                    "cache-alias-overlap",
                    f"two CacheAppend stores ({slot_a.tensor!r} and "
                    f"{slot_b.tensor!r}) write overlapping slices of "
                    f"cache {r_a!r}"))

    # Read/write: the DAE queue is in-order, so a load sequenced *after*
    # the append store reads the updated cache — that is exactly how the
    # attention consumers work. A load of the same storage queued
    # *before* an overlapping append store observes the stale slice the
    # append is about to rewrite in place.
    for b, t, r, slot in writes:
        cb = model.blocks[b]
        for u, other in enumerate(cb.tile.transfers):
            if u >= t or other.direction != "ld":
                continue
            if root(other.tensor) != r:
                continue
            if boxes_overlap(slot.region, other.region):
                findings.append(_finding(
                    "cache-alias-overlap",
                    f"block {cb.name}: DAE load of {other.tensor!r} is "
                    f"queued before the CacheAppend store to "
                    f"{slot.tensor!r} that rewrites the overlapping "
                    f"slice in place"))
    return findings


def _check_obuf_handoff(model) -> List[Finding]:
    """Tandem OBUF reads must stay inside the GEMM tile's footprint.

    Checked only for single-tile (executable) compilations: a multi-tile
    block's representative program is a *cost model* whose per-dimension
    ceil-divided walks legitimately over-cover the evenly-divided OBUF
    handoff, and the functional machine refuses to run it anyway.
    """
    findings: List[Finding] = []
    for cb in model.blocks:
        if cb.block.gemm is None or cb.tile is None or cb.tiles != 1:
            continue
        meta = cb.tile.access_meta
        out_elems = model.graph.tensor(cb.block.gemm.outputs[0]).numel
        tile_elems = max(1, ceil(out_elems / cb.tiles))
        for nest in meta.nests:
            for stmt in nest.stmts:
                for operand in stmt:
                    if operand.ns != "OBUF":
                        continue
                    _lo, hi = operand.walk(tuple(nest.counts)).extent
                    if hi >= tile_elems:
                        findings.append(_finding(
                            "obuf-tile-overrun",
                            f"block {cb.name}: {operand.role} walk "
                            f"OBUF[{operand.base}] reaches address {hi} "
                            f"but the GEMM hands over only {tile_elems} "
                            f"element(s) per tile"))
    return findings
