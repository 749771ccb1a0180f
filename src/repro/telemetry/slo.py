"""Declarative SLO objectives, error budgets, and burn-rate alert rules.

An SLO is a target fraction of *good* requests (completed within their
per-model latency deadline); the complement is the **error budget**.
The Google SRE workbook's multi-window, multi-burn-rate policy turns
the budget into actionable alerts: the **burn rate** is how many times
faster than budget-neutral the service is consuming its budget
(``error_rate / budget``; burn 1.0 exhausts the budget exactly at the
end of the SLO period), and a rule pages only when BOTH a long window
and a short window burn hot — the long window for significance, the
short window so a recovered incident stops paging immediately.

Everything here is declarative and frozen: rules are data evaluated by
:mod:`repro.telemetry.alerts`, picklable for ``--jobs`` fan-out, and
serialised verbatim into the ``repro-monitor-report-v1`` payload.

Window lengths are expressed in *simulated* seconds and default to a
scaled-down version of the SRE workbook's 1h/5m page and 6h/30m ticket
pairs — a fleet run simulates tens of seconds, not weeks, so the
defaults keep the same long:short ratios at sim scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "BurnRateRule",
    "SLOObjective",
    "budget_burn",
    "default_objective",
    "default_rules",
]

#: Severity levels a rule may carry, ordered from loudest to quietest.
SEVERITIES = ("page", "ticket")


@dataclass(frozen=True)
class SLOObjective:
    """A target fraction of good requests, e.g. 0.999 ("three nines").

    ``budget`` is the tolerated error fraction (``1 - target``).  The
    default target comes from ``REPRO_MONITOR_SLO_TARGET`` and is
    0.999: at three nines a single crashed device in a six-device
    round-robin fleet (~16% errors) burns ~160x budget — far above the
    page threshold — while a healthy run must keep every window at
    literally zero misses, which the fault-free zoo benchmarks assert.
    """

    name: str = "availability"
    target: float = 0.999
    description: str = "requests completed within their per-model SLO"

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"SLO target must be in (0, 1), got {self.target}")

    @property
    def budget(self) -> float:
        """Tolerated error fraction: ``1 - target``."""
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert rule.

    Fires when the burn rate over BOTH ``long_window_s`` and
    ``short_window_s`` is at least ``factor``; the long window makes
    the signal statistically meaningful, the short window gates on
    "still happening right now".  Resolution is hysteretic: both
    windows must stay below ``factor * hysteresis`` for
    ``resolve_intervals`` consecutive intervals, so a burn rate
    oscillating around the threshold does not flap fire/resolve pairs.
    """

    name: str
    severity: str                 # one of SEVERITIES
    factor: float                 # burn-rate threshold (x budget-neutral)
    long_window_s: float
    short_window_s: float
    hysteresis: float = 0.9       # resolve below factor * hysteresis
    resolve_intervals: int = 3    # consecutive quiet intervals to resolve

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, "
                             f"got {self.severity!r}")
        if self.factor <= 0.0:
            raise ValueError(f"factor must be positive, got {self.factor}")
        if not 0.0 < self.short_window_s <= self.long_window_s:
            raise ValueError(
                f"need 0 < short <= long window, got "
                f"short={self.short_window_s} long={self.long_window_s}")
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError(f"hysteresis must be in (0, 1], "
                             f"got {self.hysteresis}")
        if self.resolve_intervals < 1:
            raise ValueError("resolve_intervals must be >= 1")

    def as_dict(self) -> dict:
        """JSON-ready form for the monitor report payload."""
        return {
            "name": self.name,
            "severity": self.severity,
            "factor": self.factor,
            "long_window_s": self.long_window_s,
            "short_window_s": self.short_window_s,
            "hysteresis": self.hysteresis,
            "resolve_intervals": self.resolve_intervals,
        }


def budget_burn(good: int, bad: int, objective: SLOObjective) -> float:
    """Burn rate of a (good, bad) window: error rate over error budget.

    An empty window burns 0.0 — "no data" must never page (the
    no-data-window scenario in ``tests/test_monitoring.py`` pins this).
    """
    total = good + bad
    if total == 0:
        return 0.0
    return (bad / total) / objective.budget


def default_rules(scale: float = 1.0) -> Tuple[BurnRateRule, ...]:
    """The SRE-workbook page/ticket pair at simulated-seconds scale.

    ``scale`` stretches every window, for longer traces.  Factors are
    the canonical 14.4 (page: 2% of a 30-day budget in an hour) and
    6.0 (ticket: 5% in six hours); the windows keep the workbook's
    long:short ratio of 4 while fitting a tens-of-seconds sim run.
    """
    return (
        BurnRateRule(name="page-fast-burn", severity="page", factor=14.4,
                     long_window_s=2.0 * scale, short_window_s=0.5 * scale),
        BurnRateRule(name="ticket-slow-burn", severity="ticket", factor=6.0,
                     long_window_s=6.0 * scale, short_window_s=1.5 * scale),
    )


def default_objective() -> SLOObjective:
    """The availability objective, target from ``REPRO_MONITOR_SLO_TARGET``."""
    from ..runtime import knobs  # lazy: repro.runtime imports telemetry
    return SLOObjective(target=knobs.get("REPRO_MONITOR_SLO_TARGET"))
