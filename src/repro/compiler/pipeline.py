"""The compiler's pass pipeline, described by one declarative config.

Every compile runs the same flow (Figure 13), parameterized by a
:class:`PipelineConfig` — a small, hashable record of optimization
knobs:

* :func:`fuse_blocks` — GEMM→non-GEMM fusion depth and block splitting
  (:mod:`repro.compiler.fusion`),
* tile-shape choice — the ``tile_search`` knob selects the
  :func:`repro.compiler.tiling.search_tiles` strategy (``"pow2"``
  doubling vs ``"exact"`` binary refinement),
* :func:`nest_passes` — per tile, ``loop_fission`` splits
  multi-instruction nest bodies where the hazard checker proves it legal
  (:func:`repro.compiler.transforms.fission`), then ``loop_interchange``
  reorders nest levels so a unit-stride loop runs innermost and
  vectorizes across the SIMD lanes, guarded by
  :func:`repro.compiler.transforms.is_pointwise_parallel`.

The default config is the fixed flow: greedy maximal fusion,
power-of-two tile doubling and no loop transformations. Other configs
are searched per model by :mod:`repro.compiler.autotune` and scored with
the cycle model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from .fusion import Block, split_at_depth
from .ir import CompileError, Nest, TileContext
from .tiling import STRATEGIES
from .transforms import fissionable, fission, interchange

#: Bump when knob semantics change so cached autotune verdicts and
#: compile artifacts (every compile key carries it) from older code
#: versions miss.
PIPELINE_VERSION = 1

#: Legal values per knob, in deterministic search order. This is the
#: domain :mod:`repro.compiler.autotune` explores; the first value of
#: each knob is the default config's (the fixed flow's) choice.
KNOB_SPACE: Dict[str, Tuple] = {
    "fusion_depth": (None, 1, 2, 4),
    "tile_search": STRATEGIES,
    "fission": (False, True),
    "interchange": (False, True),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one compile pipeline.

    Field semantics:

    * ``fusion_depth`` — maximum non-GEMM operators bundled behind their
      producing GEMM; remaining operators form depth-sized Tandem-only
      blocks. ``None`` fuses everything up to the next GEMM (the
      default).
    * ``tile_search`` — ``"pow2"`` doubles the tile count until the
      block fits on-chip (the default); ``"exact"`` additionally
      binary-refines down to the smallest feasible count, trading a few
      extra compile attempts for fewer per-tile overheads.
    * ``fission`` — split multi-instruction nest bodies into
      single-instruction nests where the write-after-read hazard check
      proves instruction-major order safe.
    * ``interchange`` — move a unit-stride loop level innermost when the
      current innermost level defeats SIMD vectorization, guarded by the
      point-wise-parallelism legality check.
    """

    fusion_depth: Optional[int] = None
    tile_search: str = "pow2"
    fission: bool = False
    interchange: bool = False

    def __post_init__(self):
        if self.tile_search not in KNOB_SPACE["tile_search"]:
            raise ValueError(f"unknown tile_search {self.tile_search!r}")
        if self.fusion_depth is not None and self.fusion_depth < 1:
            raise ValueError("fusion_depth must be None or >= 1")

    def as_dict(self) -> Dict:
        """JSON-ready knob dict (round-trips via :meth:`from_dict`)."""
        return {
            "fusion_depth": self.fusion_depth,
            "tile_search": self.tile_search,
            "fission": self.fission,
            "interchange": self.interchange,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PipelineConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def label(self) -> str:
        """Compact one-line rendering, e.g. ``depth=2/tiles=exact``."""
        depth = "max" if self.fusion_depth is None else str(self.fusion_depth)
        parts = [f"depth={depth}", f"tiles={self.tile_search}"]
        if self.fission:
            parts.append("fission")
        if self.interchange:
            parts.append("interchange")
        return "/".join(parts)

    def describe(self) -> List[str]:
        """Human-readable stage list for ``repro compile --explain``."""
        depth = ("unbounded (fuse to the next GEMM)"
                 if self.fusion_depth is None
                 else f"at most {self.fusion_depth} ops per GEMM")
        return [
            f"fuse_blocks:      GEMM→non-GEMM fusion depth {depth}",
            f"tile_search:      {self.tile_search} "
            + ("(doubling only)" if self.tile_search == "pow2"
               else "(doubling + binary refinement to the minimum)"),
            f"loop_fission:     {'on (where hazard-free)' if self.fission else 'off'}",
            f"loop_interchange: {'on (where point-wise parallel)' if self.interchange else 'off'}",
        ]


def knob_space_size() -> int:
    """Number of distinct :class:`PipelineConfig` points in the domain."""
    size = 1
    for values in KNOB_SPACE.values():
        size *= len(values)
    return size


def all_configs() -> List[PipelineConfig]:
    """Every config in :data:`KNOB_SPACE`, in deterministic order."""
    out: List[PipelineConfig] = []
    for depth in KNOB_SPACE["fusion_depth"]:
        for tile_search in KNOB_SPACE["tile_search"]:
            for fiss in KNOB_SPACE["fission"]:
                for ichg in KNOB_SPACE["interchange"]:
                    out.append(PipelineConfig(
                        fusion_depth=depth, tile_search=tile_search,
                        fission=fiss, interchange=ichg))
    return out


def _record(log: Dict[str, int], stage: str, applied: int) -> None:
    """Add one stage's application count to ``log`` and the telemetry.

    ``log`` maps stage name to applications, the tally ``--explain``
    prints; every application also bumps a ``compiler.pipeline.<stage>``
    counter, so traces show what each stage did to the program.
    """
    from ..telemetry import get_telemetry
    log[stage] = log.get(stage, 0) + applied
    tel = get_telemetry()
    if tel.enabled and applied:
        tel.count(f"compiler.pipeline.{stage}", applied)


def fuse_blocks(blocks: List[Block], config: PipelineConfig,
                log: Dict[str, int]) -> List[Block]:
    """Cap GEMM→non-GEMM fusion depth, splitting over-deep bundles."""
    depth = config.fusion_depth
    fused = blocks if depth is None else [
        part for block in blocks for part in split_at_depth(block, depth)]
    _record(log, "fuse_blocks", len(fused) - len(blocks))
    return fused


def nest_passes(ctx: TileContext, op_ranges: List[Tuple[str, int, int]],
                config: PipelineConfig, log: Dict[str, int]
                ) -> List[Tuple[str, int, int]]:
    """Apply the configured nest passes to one tile's IR in place.

    Returns ``op_ranges`` (the operator-attribution event ranges)
    remapped through every event the passes inserted or split.
    """
    if config.fission:
        op_ranges, applied = _rewrite_events(
            ctx, op_ranges, lambda event: _fission(ctx, event))
        _record(log, "loop_fission", applied)
    if config.interchange:
        op_ranges, applied = _rewrite_events(ctx, op_ranges, _interchange)
        _record(log, "loop_interchange", applied)
    return op_ranges


def _fission(ctx: TileContext, event) -> Optional[List]:
    """Split a legal multi-instruction nest into per-instruction nests."""
    if not (isinstance(event, Nest) and len(event.body) > 1
            and fissionable(event)):
        return None
    parts = fission(event)
    # Record the per-point forwarding walks this split relies on;
    # translation validation re-derives their injectivity against the
    # lowered binary. Lazy import: the analysis package pulls the
    # compiler in.
    from ..analysis.deps import forwarding_claims
    ctx.dep_claims.extend(forwarding_claims(event, parts))
    return parts


def _interchange(event) -> Optional[List]:
    """Move a unit-stride level innermost where legal and profitable."""
    if not isinstance(event, Nest):
        return None
    order = vector_order(event)
    if order is None:
        return None
    try:
        return [interchange(event, order)]
    except CompileError:
        return None  # legality check rejected the reorder


def vector_order(nest: Nest) -> Optional[Sequence[int]]:
    """A loop order that lets the nest body vectorize, if one exists.

    The pipeline model (Section 4.1) vectorizes the innermost level only
    when every operand walks it with stride 0 or 1. When the current
    innermost level defeats that and another level satisfies it for
    every reference, return the permutation moving that level (the
    largest such, for the fewest issue chunks) innermost; otherwise
    return ``None``.
    """
    if len(nest.loops) < 2:
        return None
    refs = []
    for stmt in nest.body:
        refs.append(stmt.dst)
        refs.append(stmt.src1)
        if stmt.src2 is not None:
            refs.append(stmt.src2)

    def unit_stride(var: str) -> bool:
        return all(ref.stride(var) in (0, 1) for ref in refs)

    inner_var = nest.loops[-1][0]
    if unit_stride(inner_var):
        return None
    best = None
    for i, (var, count) in enumerate(nest.loops[:-1]):
        if count > 1 and unit_stride(var):
            if best is None or count > nest.loops[best][1]:
                best = i
    if best is None:
        return None
    return [j for j in range(len(nest.loops)) if j != best] + [best]


def _rewrite_events(ctx: TileContext,
                    op_ranges: List[Tuple[str, int, int]], rewrite
                    ) -> Tuple[List[Tuple[str, int, int]], int]:
    """Map ``rewrite`` over the tile's event list, remapping op ranges.

    ``rewrite(event)`` returns the replacement event list, or ``None`` to
    keep the event. Operator attribution ranges are half-open
    event-index ranges, so they are translated through the old-index →
    new-index prefix map. Returns the remapped ranges and the number of
    events rewritten.
    """
    new_events: List[object] = []
    prefix: List[int] = []  # prefix[i] = new index of old event i
    applied = 0
    for event in ctx.events:
        prefix.append(len(new_events))
        replacement = rewrite(event)
        if replacement is None:
            new_events.append(event)
        else:
            applied += 1
            new_events.extend(replacement)
    prefix.append(len(new_events))
    ctx.events = new_events
    ctx.nests = [e for e in new_events if isinstance(e, Nest)]
    return [(label, prefix[start], prefix[end])
            for label, start, end in op_ranges], applied
