"""Unified telemetry: hardware counters, structured spans, trace export.

The reproduction's subsystems each accumulate private statistics — the
detailed machine counts scratchpad traffic, the NPU controller tracks
per-unit busy cycles, the runtime cache counts hits, the serving fleet
counts rejects. This package gives them one shared, **off-by-default**
sink so a single run can answer "where did the cycles/requests go?":

* :mod:`repro.telemetry.counters` — a registry of monotonic,
  hardware-style counters (``sim.*`` from the detailed machine,
  ``npu.*`` from the execution controller, ``cache.*`` from the runtime
  cache, ``serving.*`` from the fleet).
* :mod:`repro.telemetry.spans` — nested timed spans (compile → verify →
  lower → simulate, per-experiment, serving lifecycles) with
  process/thread-safe identities so ``--jobs`` sweeps merge cleanly.
* :mod:`repro.telemetry.export` — Chrome ``chrome://tracing`` /
  Perfetto trace-event JSON plus a flat counters table, wired into
  ``repro profile``, ``repro trace --json``, ``repro serve
  --trace-out`` and ``python -m repro.harness --trace-out``.

Discipline: telemetry is observational only. Enabling it must never
change a result, and disabling it (the default) must cost nothing but a
single attribute check on the instrumented paths — the eval-pipeline
benchmark asserts the warm-run time stays within 5 %. The process-wide
session is controlled by ``REPRO_TELEMETRY`` (default off) or installed
explicitly via :func:`set_telemetry` / :func:`scoped_telemetry`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Optional

from .alerts import AlertEngine, AlertEvent
from .counters import CounterRegistry
from .slo import (
    BurnRateRule,
    SLOObjective,
    budget_burn,
    default_objective,
    default_rules,
)
from .spans import SpanRecord, Tracer, span_tree
from .timeseries import (
    GaugeSampler,
    RateSampler,
    SlidingWindowHistogram,
    StreamingHistogram,
    TimeSeries,
    nearest_rank,
    percentile,
)

#: Shared no-op context manager handed out by disabled sessions.
#: ``nullcontext`` keeps no per-enter state, so one instance is safe to
#: reuse across nested ``with`` blocks and threads.
_NULL_SPAN = nullcontext()


class Telemetry:
    """One telemetry session: a counter registry plus a span tracer."""

    def __init__(self, enabled: bool = False, label: str = "session"):
        self.enabled = enabled
        self.label = label
        self.counters = CounterRegistry()
        self.tracer = Tracer()

    # -- recording ---------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Bump the monotonic counter ``name`` (no-op while disabled)."""
        if self.enabled:
            self.counters.add(name, value)

    def span(self, name: str, cat: str = "host", **args: Any):
        """Context manager timing a nested span (no-op while disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, cat, **args)

    # -- extraction --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data dump of this session (picklable, mergeable).

        Thread ids are normalized to small indices in span-begin order,
        so two identical runs produce identical snapshots up to wall
        timestamps; :func:`repro.telemetry.spans.span_tree` strips those
        too.
        """
        tids: Dict[int, int] = {}
        spans = []
        for record in self.tracer.records():
            tid = tids.setdefault(record.tid, len(tids))
            spans.append({
                "name": record.name,
                "cat": record.cat,
                "tid": tid,
                "ts_us": round(record.ts_us, 3),
                "dur_us": round(record.dur_us, 3),
                "depth": record.depth,
                "seq": record.seq,
                "args": dict(record.args),
            })
        return {
            "label": self.label,
            "pid": os.getpid(),
            "counters": self.counters.as_dict(),
            "spans": spans,
        }


# ---------------------------------------------------------------------------
# Process-wide session
# ---------------------------------------------------------------------------
_session: Optional[Telemetry] = None


def get_telemetry() -> Telemetry:
    """The process-wide session (created from ``REPRO_TELEMETRY``)."""
    global _session
    if _session is None:
        # Not a top-level import: repro.runtime's cache imports this
        # package, so importing repro.runtime here first would cycle.
        from ..runtime import knobs
        _session = Telemetry(enabled=knobs.get("REPRO_TELEMETRY"))
    return _session


def set_telemetry(session: Optional[Telemetry]) -> None:
    """Install (or with ``None``, reset) the process-wide session."""
    global _session
    _session = session


@contextmanager
def scoped_telemetry(session: Optional[Telemetry] = None):
    """Install ``session`` (default: a fresh enabled one) for a block.

    The previous process-wide session is restored on exit, so analysis
    code can collect counters for one evaluation without disturbing an
    outer profiling session.
    """
    session = session if session is not None else Telemetry(enabled=True)
    previous = _session
    set_telemetry(session)
    try:
        yield session
    finally:
        set_telemetry(previous)


__all__ = [
    "AlertEngine",
    "AlertEvent",
    "BurnRateRule",
    "CounterRegistry",
    "GaugeSampler",
    "RateSampler",
    "SLOObjective",
    "SlidingWindowHistogram",
    "SpanRecord",
    "StreamingHistogram",
    "Telemetry",
    "TimeSeries",
    "Tracer",
    "budget_burn",
    "default_objective",
    "default_rules",
    "get_telemetry",
    "nearest_rank",
    "percentile",
    "scoped_telemetry",
    "set_telemetry",
    "span_tree",
]
