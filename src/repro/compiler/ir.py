"""Compiler intermediate representation: loop nests over scratchpad views.

Operation templates (``templates.py``) emit this IR; the lowering pass
turns it into Figure 12 instruction words plus the analytic metadata.

The IR is deliberately close to the hardware: a :class:`TRef` is exactly
one Iterator Table entry (base offset + stride per loop level), a
:class:`Stmt` is one 32-bit compute instruction, and a :class:`Nest` is
one Code Repeater configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..isa import (
    AluFunc,
    CalculusFunc,
    ComparisonFunc,
    Namespace,
    Opcode,
)
from ..simulator.params import TandemParams
from .integer_ops import Step


class CompileError(RuntimeError):
    """Raised when an operator cannot be lowered (capacity, shape, ...)."""


@dataclass(frozen=True)
class TRef:
    """A strided view over one namespace: one Iterator Table entry."""

    ns: Namespace
    base: int
    strides: Mapping[str, int] = field(default_factory=dict)

    def stride(self, var: str) -> int:
        return self.strides.get(var, 0)

    def key(self, loop_vars: Sequence[str]) -> Tuple:
        return (self.ns, self.base, tuple(self.stride(v) for v in loop_vars))


@dataclass(frozen=True)
class Stmt:
    """One primitive compute instruction in a loop body."""

    opcode: Opcode
    func: int
    dst: TRef
    src1: TRef
    src2: Optional[TRef] = None


@dataclass
class Nest:
    """One Code Repeater activation: ordered loops + straight-line body.

    ``cast_to`` marks a nest whose write-back saturates into a narrower
    fixed-point type (lowered with a bracketing DATATYPE_CAST pair).
    """

    loops: List[Tuple[str, int]]
    body: List[Stmt]
    cast_to: Optional[str] = None

    @property
    def points(self) -> int:
        return prod(count for _, count in self.loops) if self.loops else 1


@dataclass(frozen=True)
class TransferSlot:
    """A Data Access Engine transfer the lowered program will trigger.

    The functional runner resolves it into a
    :class:`~repro.simulator.dae.TileTransfer`; the analytic model only
    needs ``nbytes``. ``pre_reshape``/``perm``/``pad`` describe the
    strided gather/scatter pattern the DAE is configured with.
    """

    direction: str                 # "ld" | "st"
    tensor: str                    # DRAM tensor name
    ns: Namespace
    base: int
    elements: int
    element_bytes: int = 4
    pre_reshape: Optional[Tuple[int, ...]] = None
    perm: Optional[Tuple[int, ...]] = None
    pad: Optional[Tuple[Tuple[int, int], ...]] = None
    pad_value: int = 0
    #: Optional (start, stop) per DRAM-tensor dimension selecting the tile.
    region: Optional[Tuple[Tuple[int, int], ...]] = None
    #: Real DRAM elements moved (padding is generated on-chip, not
    #: fetched); defaults to ``elements`` for unpadded transfers.
    data_elements: Optional[int] = None

    @property
    def nbytes(self) -> int:
        moved = self.data_elements if self.data_elements is not None             else self.elements
        return moved * self.element_bytes


@dataclass(frozen=True)
class PermuteSlot:
    """One permute-engine activation (on-chip layout transformation)."""

    src_ns: Namespace
    src_base: int
    dst_ns: Namespace
    dst_base: int
    shape: Tuple[int, ...]
    perm: Tuple[int, ...]
    cross_lane: bool = True

    @property
    def words(self) -> int:
        return prod(self.shape)


@dataclass(frozen=True)
class Resident:
    """An on-chip value: where a tensor (tile) currently lives."""

    ns: Namespace
    base: int
    shape: Tuple[int, ...]   # logical shape of the resident tile
    layout: Tuple[int, ...]  # permutation applied relative to logical shape

    @property
    def elements(self) -> int:
        return prod(self.shape)


class TileContext:
    """Per-tile compilation state: allocation, residency, emitted IR."""

    def __init__(self, params: TandemParams, strict: bool = True,
                 special_functions: bool = False):
        self.params = params
        #: VPU emulation: complex math executes as one special-function
        #: instruction instead of an integer-primitive sequence
        #: (cost-model only; the Tandem Processor has no such hardware).
        self.special_functions = special_functions
        #: strict=True (functional, tiles == 1) requires exact residency
        #: chaining; strict=False (cost mode, tiles > 1) lets consumers
        #: whose tile shape disagrees with the producer's re-fetch the
        #: tile through the DAE (the halo/layout re-fetch that uniform
        #: tiling across a fused block costs in practice).
        self.strict = strict
        self._free = {
            Namespace.IBUF1: 0,
            Namespace.IBUF2: 0,
        }
        self._capacity = {
            Namespace.IBUF1: params.interim_buf_words,
            Namespace.IBUF2: params.interim_buf_words,
        }
        self.imm_values: List[int] = []
        self._imm_slots: Dict[int, int] = {}
        self.nests: List[Nest] = []
        self.transfers: List[TransferSlot] = []
        self.permutes: List[PermuteSlot] = []
        #: Nests, transfers and permutes in emission order — the order
        #: the lowered instruction stream must trigger them.
        self.events: List[object] = []
        self.uses_cast: bool = False
        self._residency: Dict[str, Resident] = {}
        #: Zero-copy renames (Reshape/Flatten of off-chip tensors).
        self.dram_alias: Dict[str, str] = {}
        # Forwarding assertions recorded by the fission pass:
        # (producer nest, consumer nest, Walk) triples that translation
        # validation re-checks against the lowered binary.
        self.dep_claims: List[Tuple[object, object, object]] = []
        self.peak_words = 0

    # -- allocation -------------------------------------------------------------
    def alloc(self, words: int) -> Tuple[Namespace, int]:
        """First-fit allocation across the two Interim BUFs."""
        for ns in (Namespace.IBUF1, Namespace.IBUF2):
            if self._free[ns] + words <= self._capacity[ns]:
                base = self._free[ns]
                self._free[ns] += words
                self.peak_words = max(
                    self.peak_words,
                    self._free[Namespace.IBUF1] + self._free[Namespace.IBUF2])
                return ns, base
        raise CompileError(
            f"tile needs {words} more words; Interim BUFs exhausted "
            f"({self._free[Namespace.IBUF1]}/{self._capacity[Namespace.IBUF1]} + "
            f"{self._free[Namespace.IBUF2]}/{self._capacity[Namespace.IBUF2]})"
        )

    def imm(self, value: int) -> TRef:
        """Intern a 32-bit constant into an IMM BUF slot."""
        value = int(value)
        if value not in self._imm_slots:
            if len(self.imm_values) >= self.params.imm_slots:
                raise CompileError("IMM BUF exhausted (32 slots)")
            self._imm_slots[value] = len(self.imm_values)
            self.imm_values.append(value)
        return TRef(Namespace.IMM, self._imm_slots[value], {})

    # -- residency --------------------------------------------------------------
    def resident(self, name: str) -> Optional[Resident]:
        return self._residency.get(name)

    def set_resident(self, name: str, res: Resident) -> None:
        self._residency[name] = res

    def alias(self, new_name: str, old_name: str,
              shape: Optional[Tuple[int, ...]] = None) -> None:
        old = self._residency.get(old_name)
        if old is not None:
            self._residency[new_name] = Resident(
                old.ns, old.base, shape or old.shape, old.layout)

    def source(self, name: str, shape: Tuple[int, ...],
               layout: Optional[Tuple[int, ...]] = None,
               pad: Optional[Tuple[Tuple[int, int], ...]] = None,
               pad_value: int = 0,
               element_bytes: int = 4) -> Resident:
        """Make ``name`` resident in ``layout`` (a permutation of shape).

        If the tensor is already on-chip in the right layout this is
        free; in the wrong layout, the permute engine relayouts it; if
        off-chip, the Data Access Engine loads it (with the strided
        gather pattern folded into the transfer).
        """
        shape = tuple(shape)
        layout = tuple(layout) if layout is not None else tuple(range(len(shape)))
        if pad is not None and all(lo == 0 and hi == 0 for lo, hi in pad):
            pad = None
        existing = self._residency.get(name)
        if existing is not None and prod(existing.shape) != prod(shape):
            if self.strict:
                raise CompileError(
                    f"resident tensor {name!r} has {prod(existing.shape)} "
                    f"elements but the consumer expects {prod(shape)}")
            if prod(existing.shape) >= prod(shape):
                # Cost mode: the producer's tile covers the consumer's;
                # reinterpret in place (uniform tiling would make the
                # shapes agree exactly).
                existing = Resident(existing.ns, existing.base, shape,
                                    tuple(range(len(shape))))
                self._residency[name] = existing
            else:
                existing = None  # consumer needs a larger halo: re-fetch
        if existing is not None and pad is not None:
            return self._pad_resident(name, existing, shape, layout, pad,
                                      pad_value)
        if existing is not None and pad is None:
            if len(existing.shape) == len(shape) and existing.layout == layout:
                return existing
            # Normalize to C-contiguous, reinterpret to the consumer's
            # logical shape (free), then relayout if a permutation is
            # still required.
            ident_existing = tuple(range(len(existing.shape)))
            if existing.layout != ident_existing:
                existing = self._relayout(name, existing, ident_existing)
            existing = Resident(existing.ns, existing.base, shape,
                                tuple(range(len(shape))))
            self._residency[name] = existing
            if layout == tuple(range(len(shape))):
                return existing
            return self._relayout(name, existing, layout)
        laid_shape = _permute_shape(shape, layout, pad)
        words = prod(laid_shape)
        ns, base = self.alloc(words)
        perm = layout if layout != tuple(range(len(shape))) else None
        self.add_transfer(TransferSlot(
            direction="ld", tensor=self.dram_alias.get(name, name),
            ns=ns, base=base, elements=words,
            element_bytes=element_bytes,
            pre_reshape=shape, perm=perm, pad=pad, pad_value=pad_value,
            data_elements=prod(shape)))
        if pad is not None:
            # A padded copy is private to the requesting operator: it is
            # returned in its laid-out (already-permuted, padded) shape
            # and never registered as the tensor's residency.
            return Resident(ns, base, laid_shape, tuple(range(len(laid_shape))))
        res = Resident(ns, base, shape, layout)
        self._residency[name] = res
        return res

    def _pad_resident(self, name: str, existing: Resident,
                      shape: Tuple[int, ...], layout: Tuple[int, ...],
                      pad: Tuple[Tuple[int, int], ...],
                      pad_value: int) -> Resident:
        """Materialize a padded, relaid copy of an on-chip tensor.

        The Tandem Processor does this with two nests: a fill of the
        padded buffer with ``pad_value``, then a strided interior copy —
        the on-chip equivalent of the DAE's fill-on-load feature.
        """
        ident = tuple(range(len(existing.shape)))
        if existing.layout != ident:
            existing = self._relayout(name, existing, ident)
        existing = Resident(existing.ns, existing.base, shape, ident)

        padded_dims = [d + lo + hi for d, (lo, hi) in zip(shape, pad)]
        laid_shape = tuple(padded_dims[p] for p in layout)
        words = prod(laid_shape)
        ns, base = self.alloc(words)
        # 1. Fill with the pad value.
        self.nest([("i", words)], [Stmt(
            Opcode.ALU, int(AluFunc.MOVE),
            TRef(ns, base, {"i": 1}), self.imm(pad_value))])
        # 2. Strided interior copy.
        laid_strides = c_strides(laid_shape)
        dim_stride = {layout[j]: laid_strides[j] for j in range(len(layout))}
        base_off = sum(pad[d][0] * dim_stride[d] for d in range(len(shape)))
        src_strides = c_strides(existing.shape)
        loop_vars = [f"p{d}" for d in range(len(shape))]
        loops = list(zip(loop_vars, shape))
        dst = TRef(ns, base + base_off,
                   {loop_vars[d]: dim_stride[d] for d in range(len(shape))})
        src = TRef(existing.ns, existing.base,
                   {loop_vars[d]: src_strides[d] for d in range(len(shape))})
        self.nest(loops, [Stmt(Opcode.ALU, int(AluFunc.MOVE), dst, src)])
        return Resident(ns, base, laid_shape, tuple(range(len(laid_shape))))

    def _relayout(self, name: str, existing: Resident,
                  layout: Tuple[int, ...]) -> Resident:
        # Compose: data currently holds existing.layout; we want layout.
        # Permute engine moves it to a fresh buffer.
        current_shape = _permute_shape(existing.shape, existing.layout, None)
        inverse = _invert(existing.layout)
        rel_perm = tuple(inverse[p] for p in layout)
        words = prod(existing.shape)
        ns, base = self.alloc(words)
        self.add_permute(PermuteSlot(
            src_ns=existing.ns, src_base=existing.base,
            dst_ns=ns, dst_base=base,
            shape=current_shape, perm=rel_perm))
        res = Resident(ns, base, existing.shape, layout)
        self._residency[name] = res
        return res

    def dest(self, name: str, shape: Tuple[int, ...],
             layout: Optional[Tuple[int, ...]] = None) -> Resident:
        shape = tuple(shape)
        layout = tuple(layout) if layout is not None else tuple(range(len(shape)))
        words = prod(shape)
        ns, base = self.alloc(words)
        res = Resident(ns, base, shape, layout)
        self._residency[name] = res
        return res

    def store(self, name: str, element_bytes: int = 4) -> None:
        """Schedule the DAE to drain a resident tensor back to DRAM."""
        res = self._residency.get(name)
        if res is None:
            raise CompileError(f"cannot store non-resident tensor {name!r}")
        laid_shape = _permute_shape(res.shape, res.layout, None)
        perm = res.layout if res.layout != tuple(range(len(res.shape))) else None
        self.add_transfer(TransferSlot(
            direction="st", tensor=name, ns=res.ns, base=res.base,
            elements=res.elements, element_bytes=element_bytes,
            pre_reshape=tuple(res.shape), perm=perm))

    def add_transfer(self, slot: TransferSlot) -> None:
        self.transfers.append(slot)
        self.events.append(slot)

    def add_permute(self, slot: PermuteSlot) -> None:
        self.permutes.append(slot)
        self.events.append(slot)

    # -- IR emission -------------------------------------------------------------
    def nest(self, loops: Sequence[Tuple[str, int]], body: Sequence[Stmt]) -> Nest:
        # Degenerate single-iteration levels carry no information; drop
        # them (keeping at least one level so the Code Repeater always
        # has a configuration).
        loops = [(var, int(count)) for var, count in loops if count > 1]
        if not loops:
            loops = [("i", 1)]
        if len(loops) > self.params.max_loop_levels:
            raise CompileError(
                f"loop nest of depth {len(loops)} exceeds the 8-level Code Repeater")
        nest = Nest(list(loops), list(body))
        self.nests.append(nest)
        self.events.append(nest)
        return nest

    def temp(self, elements: int) -> Resident:
        ns, base = self.alloc(elements)
        return Resident(ns, base, (elements,), (0,))


def _permute_shape(shape: Tuple[int, ...], layout: Tuple[int, ...],
                   pad: Optional[Tuple[Tuple[int, int], ...]]) -> Tuple[int, ...]:
    padded = list(shape)
    if pad is not None:
        padded = [d + lo + hi for d, (lo, hi) in zip(shape, pad)]
    return tuple(padded[p] for p in layout)


def _invert(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    return tuple(inverse)


def c_strides(shape: Sequence[int]) -> List[int]:
    """C-order strides in elements."""
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides


def view_ref(res: Resident, loop_vars: Sequence[str],
             var_strides: Mapping[str, int], base_offset: int = 0) -> TRef:
    """Build a TRef into a resident buffer with explicit strides."""
    return TRef(res.ns, res.base + base_offset,
                {v: var_strides.get(v, 0) for v in loop_vars})


def broadcast_views(out_shape: Sequence[int],
                    in_shapes: Sequence[Sequence[int]],
                    prefix: str = "d") -> Tuple[List[Tuple[str, int]],
                                                List[Dict[str, int]],
                                                Dict[str, int]]:
    """Derive a fused loop nest for a broadcast element-wise operation.

    Returns ``(loops, per-input stride maps, output stride map)``. Axes
    are collapsed wherever every operand is contiguous across the axis
    boundary, so e.g. two same-shape tensors collapse to a single loop.
    """
    out_shape = list(out_shape)
    rank = len(out_shape)
    padded = []
    for shape in in_shapes:
        shape = list(shape)
        shape = [1] * (rank - len(shape)) + shape
        padded.append(shape)

    def strides_for(shape: List[int]) -> List[int]:
        strides = c_strides(shape)
        return [0 if dim == 1 else stride for dim, stride in zip(shape, strides)]

    out_strides = c_strides(out_shape)
    in_strides = [strides_for(s) for s in padded]

    # Collapse adjacent axes d, d+1 when every operand satisfies
    # stride[d] == shape[d+1] * stride[d+1] (including the 0/0 broadcast
    # case).
    dims = list(range(rank))
    groups: List[List[int]] = []
    for d in dims:
        if groups and _mergeable(groups[-1][-1], d, out_shape,
                                 [out_strides] + in_strides):
            groups[-1].append(d)
        else:
            groups.append([d])

    loops: List[Tuple[str, int]] = []
    out_map: Dict[str, int] = {}
    in_maps: List[Dict[str, int]] = [dict() for _ in in_shapes]
    for gi, group in enumerate(groups):
        count = prod(out_shape[d] for d in group)
        if count == 1 and len(groups) > 1:
            continue  # degenerate axis (e.g. the batch-1 dimension)
        var = f"{prefix}{gi}"
        loops.append((var, count))
        last = group[-1]
        out_map[var] = out_strides[last]
        for mi, strides in enumerate(in_strides):
            in_maps[mi][var] = strides[last]
    return loops, in_maps, out_map


def _mergeable(d: int, d_next: int, out_shape: List[int],
               stride_sets: List[List[int]]) -> bool:
    size_next = out_shape[d_next]
    for strides in stride_sets:
        a, b = strides[d], strides[d_next]
        if a == 0 and b == 0:
            continue
        if a == size_next * b and b != 0:
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# Recipe -> loop-body translation with temp-buffer reuse
# ---------------------------------------------------------------------------
_ALU_BY_NAME = {f.name.lower(): f for f in AluFunc}
_CALC_BY_NAME = {f.name.lower(): f for f in CalculusFunc}


def recipe_body(ctx: TileContext, steps: Sequence[Step], src: TRef, dst: TRef,
                loops: Sequence[Tuple[str, int]],
                tile_elements: int,
                temp_strides: Optional[Mapping[str, int]] = None,
                temp_elements: Optional[int] = None) -> List[Stmt]:
    """Translate a straight-line integer recipe into body statements.

    Intermediates become tile-sized scratch buffers with the same strides
    as ``dst``; buffers are reused after an intermediate's last use
    (classic linear-scan), which bounds scratch demand to the recipe's
    maximum liveness (3-5 buffers for I-BERT kernels).
    """
    loop_vars = [v for v, _ in loops]
    last_use: Dict[str, int] = {}
    for i, step in enumerate(steps):
        for ref in (step.a, step.b):
            if isinstance(ref, str):
                last_use[ref] = i

    free_slots: List[TRef] = []
    values: Dict[str, TRef] = {"x": src}
    out_name = steps[-1].out

    strides = dict(temp_strides) if temp_strides is not None else {
        v: dst.stride(v) for v in loop_vars}
    words = temp_elements if temp_elements is not None else tile_elements

    def make_temp() -> TRef:
        if free_slots:
            return free_slots.pop()
        ns, base = ctx.alloc(words)
        return TRef(ns, base, strides)

    def resolve(ref) -> TRef:
        if isinstance(ref, str):
            return values[ref]
        return ctx.imm(ref)

    body: List[Stmt] = []
    temp_of: Dict[str, TRef] = {}
    for i, step in enumerate(steps):
        a = resolve(step.a)
        b = resolve(step.b) if step.b is not None else None
        target = dst if step.out == out_name and i == len(steps) - 1 else None
        if target is None:
            target = make_temp()
            temp_of[step.out] = target
        if step.func in _CALC_BY_NAME and step.func in ("abs", "sign", "neg"):
            body.append(Stmt(Opcode.CALCULUS, int(_CALC_BY_NAME[step.func]),
                             target, a))
        else:
            body.append(Stmt(Opcode.ALU, int(_ALU_BY_NAME[step.func]),
                             target, a, b if b is not None else None))
        values[step.out] = target
        # Release temps whose value is dead after this step.
        for ref in (step.a, step.b):
            if (isinstance(ref, str) and last_use.get(ref) == i
                    and ref in temp_of and ref != step.out):
                free_slots.append(temp_of.pop(ref))
    return body
