"""Execution controller (Figure 11): block FSM + tile-level scheduling.

The controller walks the Figure 11 state machine per block and schedules
tiles with the double-buffering protocol of Section 4.2: the GEMM unit
starts tile *i+1* as soon as (a) it finished tile *i* and (b) the Tandem
Processor released the Output BUF for tile *i* (the SIMD_END_BUF sync);
the Tandem Processor starts tile *i* when the GEMM unit hands it over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple


class FsmState(Enum):
    """Figure 11 states."""

    BLOCK_START = "block_start"
    INST_DISPATCH = "inst_dispatch"
    GEMM = "gemm"
    TANDEM = "tandem"
    GEMM_TANDEM = "gemm_tandem"
    BLOCK_DONE = "block_done"


@dataclass
class BlockSchedule:
    """Timing outcome of one block's tile loop."""

    total_cycles: int
    gemm_busy_cycles: int
    tandem_busy_cycles: int
    states: List[FsmState]
    #: ``(unit, tile, start, end)`` busy spans of the first tiles, in
    #: cycles from the block start (dispatch included); only recorded
    #: when :meth:`ExecutionController.schedule` is asked to draw them.
    spans: List[Tuple[str, int, int, int]] = field(default_factory=list)

    @property
    def gemm_utilization(self) -> float:
        return self.gemm_busy_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def tandem_utilization(self) -> float:
        return (self.tandem_busy_cycles / self.total_cycles
                if self.total_cycles else 0.0)


class ExecutionController:
    """Schedules one block; pure timing logic, no data."""

    #: Instruction load + dispatch overhead per block (Step 1, Figure 10):
    #: a lightweight decode pass over the block's instructions.
    DISPATCH_CYCLES_PER_INST = 1

    def state_sequence(self, kind: str) -> List[FsmState]:
        execute = {
            "gemm": FsmState.GEMM,
            "tandem": FsmState.TANDEM,
            "gemm_tandem": FsmState.GEMM_TANDEM,
        }[kind]
        return [FsmState.BLOCK_START, FsmState.INST_DISPATCH, execute,
                FsmState.BLOCK_DONE]

    def schedule(self, kind: str, tiles: int,
                 gemm_tile_cycles: int = 0,
                 tandem_tile_cycles: int = 0,
                 obuf_release_cycles: Optional[int] = None,
                 dispatch_insts: int = 0,
                 overlap: bool = True,
                 max_spans: int = 0) -> BlockSchedule:
        """Schedule ``tiles`` tiles through the block's FSM state.

        ``obuf_release_cycles`` is the offset of SIMD_END_BUF within the
        Tandem tile program; until then the GEMM unit cannot write the
        next tile. ``overlap=False`` models layer-granularity
        coordination (Figure 8's baseline): the GEMM unit runs all tiles,
        then the Tandem Processor runs all tiles. The busy spans of the
        first ``max_spans`` tiles are recorded on the result (the
        Figure 10 timeline); the totals never depend on them.
        """
        states = self.state_sequence(kind)
        dispatch = dispatch_insts * self.DISPATCH_CYCLES_PER_INST
        g = int(gemm_tile_cycles)
        t = int(tandem_tile_cycles)
        release = t if obuf_release_cycles is None else min(int(obuf_release_cycles), t)
        drawn = range(min(tiles, max_spans))
        spans: List[Tuple[str, int, int, int]] = []

        def draw(unit: str, tile: int, start: int, cycles: int) -> None:
            if cycles:
                spans.append((unit, tile, dispatch + start,
                              dispatch + start + cycles))

        if kind == "gemm":
            t = 0
        elif kind == "tandem":
            g = 0
        if not (overlap and g and t):
            # One unit works at a time: the GEMM unit runs every tile,
            # then the Tandem Processor does.
            for i in drawn:
                draw("gemm", i, i * g, g)
                draw("tandem", i, tiles * g + i * t, t)
            total = dispatch + tiles * (g + t)
            return BlockSchedule(total, tiles * g, tiles * t, states, spans)

        # Software-pipelined tile loop with a double-buffered Output BUF:
        # the GEMM unit writes buffer i%2, so tile i+2 must wait for the
        # Tandem Processor to release tile i's half (SIMD_END_BUF). Cap
        # the explicit walk and use the steady-state period for very
        # large tile counts.
        walk = min(tiles, 4096)
        gemm_done = 0
        tandem_done = 0
        release_two_back = 0  # release time of tile i-2 (same OBUF half)
        release_one_back = 0
        for i in range(walk):
            gemm_start = max(gemm_done, release_two_back)
            gemm_done = gemm_start + g
            tandem_start = max(tandem_done, gemm_done)
            release_two_back = release_one_back
            release_one_back = tandem_start + release
            tandem_done = tandem_start + t
            if i < max_spans:
                draw("gemm", i, gemm_start, g)
                draw("tandem", i, tandem_start, t)
        total = tandem_done
        if tiles > walk:
            # With release <= t, double buffering settles to one tile per
            # max(g, t) cycles.
            period = max(g, t)
            total += (tiles - walk) * period
        total += dispatch
        return BlockSchedule(total, tiles * g, tiles * t, states, spans)
