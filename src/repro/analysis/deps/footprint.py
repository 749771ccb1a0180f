"""Affine access footprints: strided walks and their overlap algebra.

Every scratchpad operand on the Tandem Processor is one Iterator Table
entry — a base address plus one stride per Code Repeater loop level —
so every access footprint in the machine is an affine *walk*:

    addr(i_0..i_{n-1}) = base + Σ stride_l · i_l,   0 ≤ i_l < count_l

:class:`Walk` is that footprint made first-class. The legality queries
in :mod:`.nest` and the race checks in :mod:`.races` reduce to three
questions about walks: do two walks address the *same element at every
iteration point* (:meth:`Walk.same_walk`), can they touch a *common
address at all* (:func:`walks_overlap`), and does a walk map *distinct
points to distinct addresses* (:meth:`Walk.injective`).

Overlap is decided on inclusive address extents — exact at the extremes
of any strided walk and conservatively dense in between. That matches
the PR 6 legality semantics bit-for-bit (so autotune verdicts do not
shift under this refactor); the dynamic oracle (:mod:`.oracle`) is the
exact-address-set counterpart used to ground-truth the approximation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np


class DepKind(enum.Enum):
    """Classic dependence classes between an earlier and a later access."""

    RAW = "raw"   # earlier writes, later reads (flow / forwarding)
    WAR = "war"   # earlier reads, later writes (anti)
    WAW = "waw"   # both write (output)


@dataclass(frozen=True)
class Walk:
    """One affine access footprint: ``base + Σ stride_l · i_l``."""

    base: int
    strides: Tuple[int, ...]
    counts: Tuple[int, ...]

    @property
    def points(self) -> int:
        """Number of iteration points the walk is evaluated at."""
        return prod(self.counts) if self.counts else 1

    @property
    def extent(self) -> Tuple[int, int]:
        """Inclusive ``[lo, hi]`` address interval the walk can touch.

        Handles scalar walks (no levels → a single address) and
        reversed walks (negative strides reach *below* the base), which
        is why overlap tests use extents rather than comparing bases.
        """
        lo = hi = self.base
        for stride, count in zip(self.strides, self.counts):
            reach = stride * (count - 1)
            lo += min(0, reach)
            hi += max(0, reach)
        return lo, hi

    def trimmed(self) -> "Walk":
        """The walk with degenerate (count ≤ 1) levels dropped.

        A level iterated once contributes nothing to the footprint, so
        two walks that differ only in degenerate levels are identical.
        """
        kept = [(s, c) for s, c in zip(self.strides, self.counts) if c > 1]
        return Walk(self.base,
                    tuple(s for s, _ in kept), tuple(c for _, c in kept))

    def same_walk(self, other: "Walk") -> bool:
        """True when both walks address the same element at every point.

        Requires the walks to run under the same loop nest (level-by-
        level identical strides over identical trip counts from the
        same base), which is exactly the per-point forwarding discipline
        the operator templates follow.
        """
        a, b = self.trimmed(), other.trimmed()
        return a.base == b.base and a.strides == b.strides \
            and a.counts == b.counts

    def injective(self) -> bool:
        """Whether distinct iteration points address distinct elements.

        Sufficient condition: every level with trip count > 1 has a
        nonzero stride, and sorted by magnitude each stride clears the
        span of all smaller-stride levels (a mixed-radix layout). A
        stride-0 per-point temp — the PR 6 fission miscompile — fails
        immediately.
        """
        levels = sorted(((abs(s), c) for s, c
                         in zip(self.strides, self.counts) if c > 1),
                        reverse=True)
        if any(stride == 0 for stride, _ in levels):
            return False
        for i, (stride, _count) in enumerate(levels):
            span = sum(s * (c - 1) for s, c in levels[i + 1:])
            if stride <= span:
                return False
        return True

    def addresses(self, cap: int = 1 << 20) -> Optional[np.ndarray]:
        """The exact sorted, deduplicated address set, or ``None``.

        Tandem programs have no data-dependent addressing, so the full
        address set is statically enumerable; ``None`` is returned only
        when the walk has more than ``cap`` points (callers fall back
        to the interval). Used by the dynamic oracle, not by legality.
        """
        import numpy as np
        if self.points > cap:
            return None
        addrs = np.array([self.base], dtype=np.int64)
        for stride, count in zip(self.strides, self.counts):
            if count <= 1:
                continue
            step = np.arange(count, dtype=np.int64) * stride
            addrs = (addrs[:, None] + step[None, :]).ravel()
        return np.unique(addrs)


def ref_walk(ref, loops: Sequence[Tuple[str, int]]) -> Walk:
    """The :class:`Walk` of a compiler-IR :class:`~repro.compiler.ir.TRef`
    evaluated under ``loops`` (the enclosing nest's ``(var, count)``
    levels, outermost first)."""
    return Walk(base=ref.base,
                strides=tuple(ref.stride(var) for var, _ in loops),
                counts=tuple(count for _, count in loops))


def walks_overlap(a: Walk, b: Walk) -> bool:
    """Whether two walks can touch a common address (extent test).

    Deliberately interval-conservative — identical to the PR 6 legality
    semantics — so transform verdicts are stable; the oracle provides
    the exact comparison where ground truth is needed.
    """
    a_lo, a_hi = a.extent
    b_lo, b_hi = b.extent
    return a_lo <= b_hi and b_lo <= a_hi


def boxes_overlap(a: Optional[Sequence[Tuple[int, int]]],
                  b: Optional[Sequence[Tuple[int, int]]]) -> bool:
    """Whether two DRAM region boxes (half-open per-dim ranges) intersect.

    ``None`` means "the whole tensor" (a region-less DAE transfer), so
    it overlaps everything; mismatched ranks degrade conservatively.
    """
    if a is None or b is None:
        return True
    if len(a) != len(b):
        return True
    for (a_start, a_stop), (b_start, b_stop) in zip(a, b):
        if a_start >= b_stop or b_start >= a_stop:
            return False
    return True
