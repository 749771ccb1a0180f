"""Execution traces: the Figure 10 timeline, reconstructed per block.

``trace_model`` draws the spans the execution controller records while
it schedules each block for the evaluator (one recurrence for both),
producing the software-pipelining picture (GEMM on tile i+1 while the
Tandem Processor consumes tile i) as data and as ASCII art.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..compiler import CompiledModel
from ..graph import Graph
from .controller import BlockSchedule
from .npu import NPUTandem


@dataclass(frozen=True)
class TraceEvent:
    block: str
    unit: str          # "gemm" | "tandem"
    tile: int
    start_cycle: int
    end_cycle: int

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle


def trace_block(name: str, schedule: BlockSchedule,
                origin: int = 0) -> List[TraceEvent]:
    """One block's drawn tile spans as events starting at ``origin``."""
    return [TraceEvent(name, unit, tile, origin + start, origin + end)
            for unit, tile, start, end in schedule.spans]


def trace_model(graph: Union[str, Graph, CompiledModel],
                npu: Optional[NPUTandem] = None,
                max_tiles_per_block: int = 64) -> List[TraceEvent]:
    """The model's tile timeline, drawn from ``npu``'s block schedules.

    Each block starts where the evaluator's schedule ends the previous
    one; at most ``max_tiles_per_block`` tiles are drawn per block.
    """
    npu = npu or NPUTandem()
    model = graph if isinstance(graph, CompiledModel) else npu.compile(graph)
    events: List[TraceEvent] = []
    origin = 0
    for cb, _result, _ops, schedule in npu.block_schedules(
            model, max_spans=max_tiles_per_block):
        events.extend(trace_block(cb.name, schedule, origin))
        origin += schedule.total_cycles
    return events


def render_timeline(events: List[TraceEvent], width: int = 72) -> str:
    """ASCII Gantt view: one row per unit, '#' where the unit is busy."""
    if not events:
        return "(empty trace)"
    start = min(e.start_cycle for e in events)
    end = max(e.end_cycle for e in events)
    span = max(end - start, 1)
    rows = {"gemm": [" "] * width, "tandem": [" "] * width}
    for event in events:
        lo = int((event.start_cycle - start) / span * (width - 1))
        hi = max(lo + 1, int((event.end_cycle - start) / span * (width - 1)))
        for i in range(lo, min(hi, width)):
            rows[event.unit][i] = "#"
    lines = [f"cycles {start}..{end}"]
    for unit in ("gemm", "tandem"):
        lines.append(f"{unit:>6s} |{''.join(rows[unit])}|")
    return "\n".join(lines)


def overlap_fraction(events: List[TraceEvent]) -> float:
    """Fraction of busy cycles where both units work simultaneously."""
    points = sorted({e.start_cycle for e in events}
                    | {e.end_cycle for e in events})
    overlap = 0
    busy = 0
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        active = {e.unit for e in events
                  if e.start_cycle <= mid < e.end_cycle}
        if active:
            busy += hi - lo
        if len(active) == 2:
            overlap += hi - lo
    return overlap / busy if busy else 0.0
