"""Vectorized (instruction-major) nest execution for the machine.

The detailed machine replays loop bodies point-major, exactly like the
Code Repeater — bit-exact but slow in Python. Because the compiler's
dependency relaxation (Section 6) makes body instructions point-wise
independent, a nest can instead be executed *instruction-major* with
numpy over the whole iteration grid. This module implements that fast
path with a hazard check that falls back to the scalar interpreter when
independence cannot be proven, so results are always identical.

Three writer classes are proven safe (``supported``):

* **injective** destinations (each grid point writes a distinct
  element) — readers must share the writer's walk;
* **reductions** (MACC / ADD / MAX / MIN into a duplicated destination)
  — folded over the duplicated levels; trailing consumers may read the
  accumulator when their own duplicated levels cover the reduction's,
  so last-wins stores observe only the fully-reduced value;
* **streamed temporaries** (any other opcode writing a duplicated
  destination, e.g. a per-row scalar recomputed at every point of a
  softmax body) — the full per-point value grid is *forwarded* to later
  same-walk readers, and memory receives the last point's slice, which
  is exactly the point-major final state. A temporary may also be
  read-modify-written *within* one point (RMSNorm's shift / divide /
  scale chain through one scratch slot): the aliasing read is safe when
  an earlier statement already wrote this point's value on the same
  walk, because the forwarded grid is exact per point.

Enabled with ``TandemMachine(..., fast=True)``; equivalence against the
scalar path is asserted by tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.integer_ops import (
    v_add,
    v_and,
    v_div,
    v_lshift,
    v_max,
    v_min,
    v_mul,
    v_or,
    v_rshift,
    v_sub,
    w32,
)
from ..isa import (AluFunc, CalculusFunc, ComparisonFunc, Instruction, Opcode,
                   is_unary, reads_dst)

_BINARY = {
    AluFunc.ADD: v_add, AluFunc.SUB: v_sub, AluFunc.MUL: v_mul,
    AluFunc.DIV: v_div, AluFunc.MAX: v_max, AluFunc.MIN: v_min,
    AluFunc.RSHIFT: v_rshift, AluFunc.LSHIFT: v_lshift,
    AluFunc.AND: v_and, AluFunc.OR: v_or,
}

#: Accumulation reducers for read-modify-write destinations, with the
#: combining mode used to prove two same-buffer accumulations commute.
_REDUCERS = {
    AluFunc.ADD: lambda x, axes: x.sum(axis=axes),
    AluFunc.MAX: lambda x, axes: x.max(axis=axes),
    AluFunc.MIN: lambda x, axes: x.min(axis=axes),
}
_REDUCER_MODE = {AluFunc.ADD: "add", AluFunc.MAX: "max", AluFunc.MIN: "min"}

_INJECTIVE, _REDUCTION, _TEMP = "inj", "red", "temp"


def _address_grid(entry, counts: Sequence[int]) -> np.ndarray:
    """Addresses over the whole loop grid, shaped like ``counts``."""
    addr = np.full(tuple(counts), entry.base, dtype=np.int64)
    for level, count in enumerate(counts):
        stride = entry.strides[level] if level < len(entry.strides) else 0
        if stride:
            shape = [1] * len(counts)
            shape[level] = count
            addr = addr + stride * np.arange(count).reshape(shape)
    return addr


def _walk_key(entry, levels: int) -> Tuple:
    strides = tuple(entry.strides[:levels]) + (0,) * max(
        0, levels - len(entry.strides))
    return (entry.base, strides)


class FastNestExecutor:
    """Executes one nest instruction-major; ``supported`` gates use."""

    def __init__(self, machine, loops: List[Tuple[int, int]],
                 body: List[Instruction]):
        self.machine = machine
        self.counts = [count for _, count in loops] or [1]
        self.body = body
        self.levels = len(self.counts)
        #: (ns, walk-key) -> full per-point value grid of a streamed
        #: temporary, consumed by later same-walk loads in this nest.
        self._fwd: Dict[Tuple, np.ndarray] = {}

    # -- legality ----------------------------------------------------------------
    def _entry(self, operand):
        return self.machine.iter_tables[operand.ns].lookup(operand.iter_idx)

    def _reads_of(self, inst: Instruction):
        if is_unary(inst.opcode, inst.func):
            reads = [inst.src1]
        else:
            reads = [inst.src1, inst.src2]
        if reads_dst(inst.opcode, inst.func):
            reads.append(inst.dst)
        return reads

    def _dup_levels(self, entry) -> Tuple[int, ...]:
        return tuple(
            level for level, count in enumerate(self.counts)
            if count > 1 and (level >= len(entry.strides)
                              or entry.strides[level] == 0))

    def _classify(self, inst: Instruction, dst_entry, dup: Tuple[int, ...]):
        """Writer class for a duplicated destination, or None if unsafe."""
        if inst.opcode == Opcode.ALU:
            func = AluFunc(inst.func)
            if func == AluFunc.MACC:
                return (_REDUCTION, "add")
            if func == AluFunc.COND_MOVE:
                # Predicated partial writes along duplicated levels keep
                # a point-order-dependent carry; not expressible here.
                return None
            if func in _REDUCER_MODE:
                src1_entry = self._entry(inst.src1)
                if (inst.src1.ns, _walk_key(src1_entry, self.levels)) == (
                        inst.dst.ns, _walk_key(dst_entry, self.levels)):
                    return (_REDUCTION, _REDUCER_MODE[func])
        # Every remaining compute opcode overwrites the destination with
        # a pure function of its sources: a streamed temporary.
        return (_TEMP, None)

    def supported(self) -> bool:
        """Instruction-major == point-major for this nest?

        The proof obligations, per writer class, are spelled out in the
        module docstring; this routine classifies every statement and
        rejects the nest on the first unprovable hazard.
        """
        infos = []
        forwarded: set = set()   # (ns, walk-key) of dup writers so far
        for inst in self.body:
            dst_entry = self._entry(inst.dst)
            dup = self._dup_levels(dst_entry)
            wclass, mode = _INJECTIVE, None
            if dup:
                classified = self._classify(inst, dst_entry, dup)
                if classified is None:
                    return False
                wclass, mode = classified
                acc_reads = ([inst.src1] if wclass == _REDUCTION
                             and inst.opcode == Opcode.ALU
                             and inst.func != int(AluFunc.MACC) else [])
                dst_key = _walk_key(dst_entry, self.levels)
                for read in self._reads_of(inst):
                    if read is None or read is inst.dst or read in acc_reads:
                        continue
                    if read.ns == inst.dst.ns and \
                            self._entry(read).base == dst_entry.base:
                        if wclass == _TEMP and \
                                _walk_key(self._entry(read),
                                          self.levels) == dst_key and \
                                (read.ns, dst_key) in forwarded:
                            # Same-point RMW chain on a streamed
                            # temporary: an earlier statement wrote this
                            # point's value on the same walk, so the
                            # forwarded grid the read observes is exact.
                            continue
                        # Otherwise the read observes the previous
                        # point's write: a loop-carried dependence.
                        return False
                forwarded.add((inst.dst.ns, dst_key))
            infos.append((inst, dst_entry, dup, wclass, mode))

        # Write-write hazards: two writers of one allocation must be the
        # same class on the same walk (and commuting, for reductions),
        # otherwise the final memory state depends on the schedule.
        for i, (wi, ei, _di, ci, mi) in enumerate(infos):
            ki = _walk_key(ei, self.levels)
            for wj, ej, _dj, cj, mj in infos[i + 1:]:
                if wj.dst.ns != wi.dst.ns or ej.base != ei.base:
                    continue
                if _walk_key(ej, self.levels) != ki or cj != ci or mj != mi:
                    return False

        # Group writers by allocation; the write-write rules above made
        # each group homogeneous (one walk, one class, one mode).
        groups: Dict[Tuple, Dict] = {}
        for i, (inst, entry, dup, wclass, _mode) in enumerate(infos):
            group = groups.setdefault((inst.dst.ns, entry.base), {
                "key": (inst.dst.ns, _walk_key(entry, self.levels)),
                "class": wclass, "dup": dup, "writers": []})
            group["writers"].append(i)

        tainted: List[int] = []
        for r, (reader, _r_entry, r_dup, r_class, _r_mode) in \
                enumerate(infos):
            for read in self._reads_of(reader):
                if read is None:
                    continue
                read_entry = self._entry(read)
                group = groups.get((read.ns, read_entry.base))
                if group is None:
                    continue  # nothing in this nest writes it
                if (read.ns, _walk_key(read_entry, self.levels)) != \
                        group["key"]:
                    return False  # same buffer, different walk
                writers = group["writers"]
                if not group["dup"]:
                    continue  # injective: any order matches
                if group["class"] == _REDUCTION:
                    if r in writers:
                        # Its own RMW source, or a commuting
                        # co-accumulation into the same buffer.
                        continue
                    # A trailing consumer of the accumulator is only
                    # final-state-correct after every accumulation, and
                    # only where its own duplicated levels cover the
                    # reduction's.
                    if r < max(writers) or r_class != _TEMP or \
                            not set(group["dup"]) <= set(r_dup):
                        return False
                    tainted.append(r)
                elif not any(w < r for w in writers):
                    # Streamed temporary never yet written this point:
                    # the read would observe the previous point's value
                    # (a loop-carried dependence). With a prior writer,
                    # the forwarded grid is exact per-point.
                    return False

        # A value computed from a fully-reduced accumulator is only
        # correct at the final point; nobody may consume it in-body.
        for t in tainted:
            t_inst, t_entry = infos[t][0], infos[t][1]
            for x, (other, _e, _d, _c, _m) in enumerate(infos):
                if x == t:
                    continue
                for read in self._reads_of(other):
                    if read is not None and read.ns == t_inst.dst.ns and \
                            self._entry(read).base == t_entry.base:
                        return False
        return True

    # -- execution -----------------------------------------------------------------
    def run(self) -> None:
        for inst in self.body:
            self._execute(inst)

    def _grid(self, entry, counts: Sequence[int]) -> np.ndarray:
        """Address grid, memoized on the machine per (walk, counts)."""
        cache = self.machine._grid_cache
        key = (entry.base, tuple(entry.strides), tuple(counts))
        grid = cache.get(key)
        if grid is None:
            grid = _address_grid(entry, counts)
            if len(cache) >= 4096:
                cache.clear()
            cache[key] = grid
        return grid

    def _load(self, operand) -> np.ndarray:
        entry = self._entry(operand)
        pad = self.machine.pads[operand.ns]
        forwarded = self._fwd.get(
            (operand.ns, _walk_key(entry, self.levels)))
        if forwarded is not None:
            pad.reads += forwarded.size
            return forwarded
        addr = self._grid(entry, self.counts)
        pad.reads += addr.size
        return pad.data[addr.reshape(-1)].reshape(addr.shape)

    def _cast(self, values: np.ndarray) -> np.ndarray:
        values = w32(values)
        if self.machine.cast_mode is not None:
            bits = {"fxp16": 16, "fxp8": 8, "fxp4": 4}[self.machine.cast_mode]
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            values = np.clip(values, lo, hi)
        return values

    def _store(self, operand, values: np.ndarray) -> None:
        entry = self._entry(operand)
        pad = self.machine.pads[operand.ns]
        values = self._cast(values)
        dup = self._dup_levels(entry)
        if dup:
            # Streamed temporary: forward the full per-point grid to
            # later readers; memory keeps the last point's slice (the
            # point-major final state — duplicate-index fancy assignment
            # would leave the winner unspecified).
            full = np.broadcast_to(values, tuple(self.counts))
            self._fwd[(operand.ns, _walk_key(entry, self.levels))] = full
            pad.writes += full.size
            last = full[tuple(-1 if level in dup else slice(None)
                              for level in range(self.levels))]
            collapsed = [1 if level in dup else count
                         for level, count in enumerate(self.counts)]
            addr = self._grid(entry, collapsed)
            pad.data[addr.reshape(-1)] = np.asarray(last).reshape(-1)
            return
        addr = self._grid(entry, self.counts)
        pad.writes += addr.size
        pad.data[addr.reshape(-1)] = np.broadcast_to(
            values, addr.shape).reshape(-1)

    def _reduced_axes(self, operand) -> Tuple[int, ...]:
        return self._dup_levels(self._entry(operand))

    def _execute(self, inst: Instruction) -> None:
        machine = self.machine
        if inst.opcode == Opcode.CALCULUS:
            x = self._load(inst.src1)
            func = CalculusFunc(inst.func)
            if func == CalculusFunc.ABS:
                out = w32(np.abs(x))
            elif func == CalculusFunc.SIGN:
                out = np.sign(x).astype(np.int64)
            else:
                out = w32(-x)
            self._store(inst.dst, out)
            return
        if inst.opcode == Opcode.COMPARISON:
            a = self._load(inst.src1)
            b = self._load(inst.src2)
            func = ComparisonFunc(inst.func)
            table = {
                ComparisonFunc.EQ: a == b, ComparisonFunc.NE: a != b,
                ComparisonFunc.GT: a > b, ComparisonFunc.GE: a >= b,
                ComparisonFunc.LT: a < b, ComparisonFunc.LE: a <= b,
            }
            self._store(inst.dst, table[func].astype(np.int64))
            return

        func = AluFunc(inst.func)
        if func == AluFunc.MOVE:
            self._store(inst.dst, self._load(inst.src1))
            return
        if func == AluFunc.NOT:
            self._store(inst.dst, w32(~self._load(inst.src1)))
            return
        if func == AluFunc.COND_MOVE:
            flags = self._load(inst.src2) != 0
            entry = self._entry(inst.dst)
            addr = self._grid(entry, self.counts).reshape(-1)
            values = np.broadcast_to(self._load(inst.src1),
                                     tuple(self.counts)).reshape(-1)
            mask = np.broadcast_to(flags, tuple(self.counts)).reshape(-1)
            pad = machine.pads[inst.dst.ns]
            pad.writes += int(mask.sum())
            pad.data[addr[mask]] = w32(values)[mask]
            return

        reduced = self._reduced_axes(inst.dst)
        if reduced and func == AluFunc.MACC:
            partial = self._load(inst.src1) * self._load(inst.src2)
            summed = partial.sum(axis=reduced)
            current = self._load_reduced(inst.dst, reduced)
            self._store_reduced(inst.dst, w32(current + summed), reduced)
            return
        if reduced and func in _REDUCERS and (
                inst.src1.ns, _walk_key(self._entry(inst.src1),
                                        self.levels)) == (
                inst.dst.ns, _walk_key(self._entry(inst.dst), self.levels)):
            # Read-modify-write accumulation: combine src2 over the
            # reduced axes, seeded with the current destination values.
            src2 = self._load(inst.src2)
            current = self._load_reduced(inst.dst, reduced)
            if func == AluFunc.ADD:
                out = w32(current + src2.sum(axis=reduced))
            elif func == AluFunc.MAX:
                out = np.maximum(current, src2.max(axis=reduced))
            else:
                out = np.minimum(current, src2.min(axis=reduced))
            self._store_reduced(inst.dst, out, reduced)
            return

        a = self._load(inst.src1)
        if func == AluFunc.MACC:
            b = self._load(inst.src2)
            self._store(inst.dst, w32(self._load(inst.dst) + a * b))
            return
        b = self._load(inst.src2)
        self._store(inst.dst, _BINARY[func](a, b))

    def _load_reduced(self, operand, reduced: Tuple[int, ...]) -> np.ndarray:
        entry = self._entry(operand)
        counts = [1 if level in reduced else count
                  for level, count in enumerate(self.counts)]
        addr = self._grid(entry, counts)
        pad = self.machine.pads[operand.ns]
        pad.reads += addr.size
        return pad.data[addr.reshape(-1)].reshape(
            tuple(c for level, c in enumerate(counts)
                  if level not in reduced))

    def _store_reduced(self, operand, values: np.ndarray,
                       reduced: Tuple[int, ...]) -> None:
        entry = self._entry(operand)
        counts = [1 if level in reduced else count
                  for level, count in enumerate(self.counts)]
        addr = self._grid(entry, counts)
        pad = self.machine.pads[operand.ns]
        pad.writes += addr.size
        values = self._cast(values)
        pad.data[addr.reshape(-1)] = values.reshape(-1)
