"""Deterministic fault injection: turning a plan into concrete faults.

A :class:`FaultInjector` materializes a :class:`~repro.faults.plan.FaultPlan`
against one fleet configuration. Construction pre-samples every
*scheduled* fault (crash times, slowdown windows, burst arrivals) from
``REPRO_SEED``-derived generators; *per-event* faults (flaky compiles,
tile faults, corrupt downloads) are Bernoulli draws keyed by stable
labels — ``(device, model, attempt)`` — rather than by draw order, so
two policies replaying the same plan see the same underlying faults
even when their event loops diverge.

The injector is pure data + hashing: it never consults a wall clock and
never mutates, so one plan yields byte-identical fault sequences in any
process (the property ``tests/test_faults.py`` pins serial vs
``--jobs``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..runtime import knobs, seeded_rng
from .plan import FaultPlan

#: Fault kinds as counted/traced by the fleet (``faults.injected.*``).
FAULT_KINDS = ("device_crash", "device_slowdown", "flaky_compile",
               "tile_fault", "corrupt_program", "queue_burst")


def _poisson_times(rng, rate_per_s: float, duration_s: float) -> List[float]:
    """Event times of one Poisson process over ``[0, duration_s)``."""
    times: List[float] = []
    if rate_per_s <= 0 or duration_s <= 0:
        return times
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= duration_s:
            return times
        times.append(t)


class FaultInjector:
    """One plan, materialized against ``devices`` over ``duration_s``."""

    def __init__(self, plan: FaultPlan, devices: int, duration_s: float):
        if devices < 1:
            raise ValueError("devices must be >= 1")
        self.plan = plan
        self.devices = devices
        self.duration_s = float(duration_s)
        self._base = (knobs.get("REPRO_SEED"), plan.stream, plan.name,
                      devices, self.duration_s)

        #: (t_s, device) crash onsets, time-ordered.
        self.crashes: List[Tuple[float, int]] = self._device_schedule(
            plan.crash.p_per_device_s, plan.crash.at, "crash")
        #: (start_s, end_s, device) slowdown windows.
        self.slowdowns: List[Tuple[float, float, int]] = [
            (t, t + plan.slowdown.duration_s, d)
            for t, d in self._device_schedule(
                plan.slowdown.p_per_device_s, plan.slowdown.at, "slowdown")]
        #: burst onset times.
        self.bursts: List[float] = sorted(
            list(plan.burst.at)
            + _poisson_times(seeded_rng("faults", *self._base, "burst"),
                             plan.burst.p_per_s, self.duration_s))

    def _device_schedule(self, hazard_per_s: float,
                         scheduled: Tuple[Tuple[int, float], ...],
                         label: str) -> List[Tuple[float, int]]:
        events = [(float(t), int(d)) for d, t in scheduled
                  if 0 <= int(d) < self.devices]
        for device in range(self.devices):
            rng = seeded_rng("faults", *self._base, label, device)
            events.extend((t, device) for t in _poisson_times(
                rng, hazard_per_s, self.duration_s))
        return sorted(events)

    # -- per-event draws ---------------------------------------------------
    def _uniform(self, *labels) -> float:
        """A stable U[0,1) draw keyed by ``labels`` (order-independent of
        the event loop: same labels always give the same draw)."""
        digest = hashlib.sha256(
            repr((self._base, labels)).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def flaky_compile(self, device: int, model: str, attempt: int) -> bool:
        """Does compile ``attempt`` of ``model`` on ``device`` flake?"""
        p = self.plan.flaky_compile.p
        return p > 0 and self._uniform("flaky", device, model, attempt) < p

    def corrupt_download(self, device: int, model: str, attempt: int) -> bool:
        """Does program-download ``attempt`` arrive word-corrupted?"""
        p = self.plan.corrupt.p_per_download
        return p > 0 and self._uniform("corrupt", device, model, attempt) < p

    def corruption_detected(self, device: int, model: str,
                            attempt: int) -> bool:
        """Does the static verifier flag this corrupted download?"""
        rate = self.plan.corrupt.detection_rate
        return rate > 0 and (
            self._uniform("detect", device, model, attempt) < rate)

    def tile_fault(self, device: int, model: str, launch: int) -> bool:
        """Does launch number ``launch`` on ``device`` take a tile fault?"""
        p = self.plan.tile_fault.p_per_batch
        return p > 0 and self._uniform("tile", device, model, launch) < p

    # -- window queries ----------------------------------------------------
    def outage_end(self, t_s: float) -> Optional[float]:
        """When a crash at ``t_s`` heals (``None`` = never)."""
        outage = self.plan.crash.outage_s
        return None if outage is None else t_s + outage

    def slow_factor(self, device: int, t_s: float) -> float:
        """Service-time multiplier for ``device`` at ``t_s`` (>= 1.0)."""
        factor = 1.0
        for start, end, d in self.slowdowns:
            if d == device and start <= t_s < end:
                factor = max(factor, self.plan.slowdown.factor)
        return factor

    def expected_faults(self) -> Dict[str, float]:
        """Expected fault counts — the chaos report's sanity column."""
        plan = self.plan
        return {
            "device_crash": len(self.crashes),
            "device_slowdown": len(self.slowdowns),
            "queue_burst": len(self.bursts),
            "flaky_compile": plan.flaky_compile.p,
            "tile_fault": plan.tile_fault.p_per_batch,
            "corrupt_program": plan.corrupt.p_per_download,
        }
