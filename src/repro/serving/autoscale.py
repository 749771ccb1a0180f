"""Cell autoscaling: SLO burn rate + queue depth in, scale decisions out.

PR 9 built the observability half of the SRE loop — the
:class:`~repro.telemetry.alerts.AlertEngine` turns per-interval
good/bad counts into page/ticket burn-rate alerts.  This module closes
the loop: an :class:`AutoscaleController` consumes those same signals
at fixed decision boundaries and tells the scaled fleet core
(:mod:`repro.serving.scale`) when to activate or drain whole *cells*
of devices, with a $/device-hour :class:`CostModel` so the headline
metric — tail-latency-bounded throughput per dollar — is comparable
against a static fleet sized for peak.

Decision policy (evaluated once per ``interval_s`` of simulated time):

* **scale-out** — any burn-rate rule firing (the service is eating its
  error budget) *or* the mean queue depth per active device at or above
  ``queue_high``.  Out-scaling is never cooldown-gated: capacity
  shortfalls hurt immediately.
* **scale-in** — no rule firing *and* queue depth per active device at
  or below ``queue_low`` *and* at least ``cooldown_s`` since the last
  scaling action, so a diurnal trough must be quiet for a while before
  capacity is released (no flapping around the threshold).
* at most one action per boundary; cells activate lowest-index first
  and drain highest-index first, so the decision sequence is a pure
  function of the observation stream.

Everything is deterministic and picklable: the controller holds only
integer counters, the alert engine's prefix sums, and plain-data
decision records that are serialised into the
``repro-fleet-scale-report-v1`` payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..runtime import knobs
from ..telemetry.alerts import AlertEngine
from ..telemetry.slo import (
    BurnRateRule,
    SLOObjective,
    default_objective,
    default_rules,
)

#: Actions an autoscale decision stream may contain.
AUTOSCALE_ACTIONS = ("scale-out", "scale-in", "park")


@dataclass(frozen=True)
class CostModel:
    """Linear $/device-hour pricing for active device time."""

    price_per_device_hour: float = 2.5

    def dollars(self, device_seconds: float) -> float:
        """Cost of ``device_seconds`` of active device time."""
        return device_seconds / 3600.0 * self.price_per_device_hour


@dataclass(frozen=True)
class AutoscaleConfig:
    """Frozen autoscaling parameters (picklable; env-overridable).

    ``interval_s`` is the decision grid in *simulated* seconds; burn
    windows from ``rules`` are evaluated on the same grid (windows
    round up to whole intervals, exactly as in the monitor).
    ``min_cells``/``max_cells`` bound the active-cell count
    (``max_cells=None`` means "all cells the fleet has");
    ``queue_high``/``queue_low`` are mean queued requests per active
    device; ``cooldown_s`` gates scale-in only.
    """

    interval_s: float = 0.25
    min_cells: int = 1
    max_cells: Optional[int] = None
    cooldown_s: float = 1.0
    queue_high: float = 4.0
    queue_low: float = 0.5
    price_per_device_hour: float = 2.5
    objective: SLOObjective = field(default_factory=SLOObjective)
    rules: Tuple[BurnRateRule, ...] = field(default_factory=default_rules)

    def __post_init__(self) -> None:
        if self.interval_s <= 0.0:
            raise ValueError(f"interval_s must be positive, "
                             f"got {self.interval_s}")
        if self.min_cells < 1:
            raise ValueError("min_cells must be >= 1")
        if self.max_cells is not None and self.max_cells < self.min_cells:
            raise ValueError("max_cells must be >= min_cells")
        if self.cooldown_s < 0.0:
            raise ValueError("cooldown_s must be >= 0")
        if not 0.0 <= self.queue_low <= self.queue_high:
            raise ValueError(f"need 0 <= queue_low <= queue_high, got "
                             f"low={self.queue_low} high={self.queue_high}")
        if self.price_per_device_hour <= 0.0:
            raise ValueError("price_per_device_hour must be positive")
        if not self.rules:
            raise ValueError("need at least one burn-rate rule")

    @classmethod
    def from_env(cls, **overrides) -> "AutoscaleConfig":
        """Build a config from ``REPRO_AUTOSCALE_*`` with overrides.

        Recognised variables: ``REPRO_AUTOSCALE_INTERVAL`` (s),
        ``REPRO_AUTOSCALE_MIN_CELLS``, ``REPRO_AUTOSCALE_MAX_CELLS``
        (0 = unbounded), ``REPRO_AUTOSCALE_COOLDOWN`` (s),
        ``REPRO_AUTOSCALE_PRICE`` ($/device-hour),
        ``REPRO_AUTOSCALE_QUEUE_HIGH`` and ``REPRO_AUTOSCALE_QUEUE_LOW``
        (queued requests per active device).
        """
        max_cells = knobs.get("REPRO_AUTOSCALE_MAX_CELLS")
        values = dict(
            interval_s=knobs.get("REPRO_AUTOSCALE_INTERVAL"),
            min_cells=knobs.get("REPRO_AUTOSCALE_MIN_CELLS"),
            max_cells=max_cells or None,
            cooldown_s=knobs.get("REPRO_AUTOSCALE_COOLDOWN"),
            queue_high=knobs.get("REPRO_AUTOSCALE_QUEUE_HIGH"),
            queue_low=knobs.get("REPRO_AUTOSCALE_QUEUE_LOW"),
            price_per_device_hour=knobs.get("REPRO_AUTOSCALE_PRICE"),
            objective=default_objective(),
        )
        values.update(overrides)
        return cls(**values)

    def bounds(self, cells: int) -> Tuple[int, int]:
        """Clamp ``(min_cells, max_cells)`` against the fleet's cells."""
        lo = max(1, min(self.min_cells, cells))
        hi = cells if self.max_cells is None else min(self.max_cells, cells)
        return lo, max(lo, hi)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the fleet-scale report payload."""
        return {
            "interval_s": self.interval_s,
            "min_cells": self.min_cells,
            "max_cells": self.max_cells,
            "cooldown_s": self.cooldown_s,
            "queue_high": self.queue_high,
            "queue_low": self.queue_low,
            "price_per_device_hour": self.price_per_device_hour,
            "slo_target": self.objective.target,
            "rules": [rule.as_dict() for rule in self.rules],
        }


class AutoscaleController:
    """Evaluates one :class:`AutoscaleConfig` over decision boundaries.

    The scaled fleet core calls :meth:`decide` once per closed interval
    with the good/bad counts and queue state of that interval; the
    controller feeds its :class:`~repro.telemetry.alerts.AlertEngine`,
    applies the scale-out/scale-in policy, and returns the action (or
    ``None``).  The *mechanics* of activating/draining cells stay in
    the simulator; the controller only decides and records.
    """

    def __init__(self, config: AutoscaleConfig, cells: int) -> None:
        self.config = config
        self.min_cells, self.max_cells = config.bounds(cells)
        self.engine = AlertEngine(config.objective, config.rules,
                                  config.interval_s)
        self.cost = CostModel(config.price_per_device_hour)
        self.last_action_s: Optional[float] = None
        self.decisions: List[Dict[str, Any]] = []

    def decide(self, t_s: float, good: int, bad: int, queued: int,
               active_cells: int, active_devices: int
               ) -> Optional[Tuple[str, str]]:
        """One boundary: observe the interval, return ``(action, reason)``.

        ``queued`` is the fleet-wide queue depth at the boundary;
        ``active_devices`` excludes draining/parked cells.  Returns
        ``None`` when capacity should stay put.
        """
        self.engine.observe(good, bad, t_s)
        per_device = queued / active_devices if active_devices else 0.0
        firing = self.engine.firing_rules()
        if active_cells < self.max_cells:
            if firing:
                severity = self.engine.firing_severities()[0]
                return ("scale-out", f"burn:{severity}:{firing[0]}")
            if per_device >= self.config.queue_high:
                return ("scale-out",
                        f"queue:{per_device:.2f}>= {self.config.queue_high}")
        since = (t_s if self.last_action_s is None
                 else t_s - self.last_action_s)
        if (active_cells > self.min_cells and not firing
                and per_device <= self.config.queue_low
                and since >= self.config.cooldown_s):
            return ("scale-in",
                    f"quiet:{per_device:.2f}<= {self.config.queue_low}")
        return None

    def record(self, t_s: float, action: str, reason: str, cell: int,
               cells_active: int) -> None:
        """Append one applied action to the decision log."""
        if action in ("scale-out", "scale-in"):
            self.last_action_s = t_s
        self.decisions.append({
            "t_s": t_s,
            "action": action,
            "reason": reason,
            "cell": cell,
            "cells_active": cells_active,
        })
