"""Fault plans: a declarative, seeded specification of what goes wrong.

A :class:`FaultPlan` names every fault class the serving fleet can
suffer and how often it fires. Plans are plain frozen data — picklable
for ``--jobs`` sweeps, JSON round-trippable for ``repro serve --faults
plan.json`` — and every stochastic decision derived from one is pinned
by ``REPRO_SEED`` (:mod:`repro.runtime.seed`), so the same plan against
the same workload replays the exact same disaster.

Fault classes (each a frozen sub-spec):

* :class:`CrashSpec` — whole-device outages. ``p_per_device_s`` is a
  per-device Poisson hazard; ``outage_s`` bounds the outage (``None`` =
  the device never comes back — the TPU-paper "dead machine" case).
  ``at`` schedules explicit ``(device, t_s)`` crashes for hand-built
  test scenarios.
* :class:`SlowdownSpec` — a device serves at ``factor``× its normal
  service time for ``duration_s`` (thermal throttling, a noisy
  neighbour on the host).
* :class:`FlakyCompileSpec` — a first-touch compile/program-download
  fails with probability ``p`` per attempt.
* :class:`TileFaultSpec` — a launched batch suffers a transient
  tile-level execution fault with probability ``p_per_batch``;
  ``tiles`` is how many tiles must be re-executed. The Tandem paper's
  tile-granularity in-tandem execution (§5, Fig. 10) makes the tile the
  natural re-execution unit.
* :class:`CorruptSpec` — a program download arrives word-corrupted with
  probability ``p_per_download``; ``detection_rate`` is the probability
  the static verifier flags it.
* :class:`BurstSpec` — queue-overflow pressure: bursts of ``size``
  extra requests land at Poisson times (rate ``p_per_s``) or scheduled
  ``at`` times.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..schema import report_json


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class CrashSpec:
    """Whole-device outages (permanent unless ``outage_s`` is finite)."""
    p_per_device_s: float = 0.0
    outage_s: Optional[float] = None
    at: Tuple[Tuple[int, float], ...] = ()

    def scaled(self, factor: float) -> "CrashSpec":
        return dataclasses.replace(
            self, p_per_device_s=self.p_per_device_s * factor,
            at=self.at if factor > 0 else ())


@dataclass(frozen=True)
class SlowdownSpec:
    """Transient device slowdowns: service times times ``factor``."""
    p_per_device_s: float = 0.0
    factor: float = 4.0
    duration_s: float = 2.0
    at: Tuple[Tuple[int, float], ...] = ()

    def scaled(self, factor: float) -> "SlowdownSpec":
        return dataclasses.replace(
            self, p_per_device_s=self.p_per_device_s * factor,
            at=self.at if factor > 0 else ())


@dataclass(frozen=True)
class FlakyCompileSpec:
    """First-touch compile/program-download failures."""
    p: float = 0.0

    def scaled(self, factor: float) -> "FlakyCompileSpec":
        return dataclasses.replace(self, p=_clamp01(self.p * factor))


@dataclass(frozen=True)
class TileFaultSpec:
    """Transient tile-level execution faults inside a launched batch."""
    p_per_batch: float = 0.0
    tiles: int = 1

    def scaled(self, factor: float) -> "TileFaultSpec":
        return dataclasses.replace(
            self, p_per_batch=_clamp01(self.p_per_batch * factor))


@dataclass(frozen=True)
class CorruptSpec:
    """Word-corrupted program downloads + the verifier's catch rate."""
    p_per_download: float = 0.0
    detection_rate: float = 1.0

    def scaled(self, factor: float) -> "CorruptSpec":
        return dataclasses.replace(
            self, p_per_download=_clamp01(self.p_per_download * factor))


@dataclass(frozen=True)
class BurstSpec:
    """Queue-overflow pressure: bursts of extra arrivals."""
    p_per_s: float = 0.0
    size: int = 0
    at: Tuple[float, ...] = ()

    def scaled(self, factor: float) -> "BurstSpec":
        return dataclasses.replace(
            self, p_per_s=self.p_per_s * factor,
            at=self.at if factor > 0 else ())


_SPEC_FIELDS = {
    "device_crash": ("crash", CrashSpec),
    "device_slowdown": ("slowdown", SlowdownSpec),
    "flaky_compile": ("flaky_compile", FlakyCompileSpec),
    "tile_fault": ("tile_fault", TileFaultSpec),
    "corrupt_program": ("corrupt", CorruptSpec),
    "queue_burst": ("burst", BurstSpec),
}


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run, as one frozen value."""
    name: str = "plan"
    stream: str = "faults"
    crash: CrashSpec = field(default_factory=CrashSpec)
    slowdown: SlowdownSpec = field(default_factory=SlowdownSpec)
    flaky_compile: FlakyCompileSpec = field(default_factory=FlakyCompileSpec)
    tile_fault: TileFaultSpec = field(default_factory=TileFaultSpec)
    corrupt: CorruptSpec = field(default_factory=CorruptSpec)
    burst: BurstSpec = field(default_factory=BurstSpec)

    def scaled(self, factor: float) -> "FaultPlan":
        """The same plan with every fault rate multiplied by ``factor``.

        ``scaled(0.0)`` is the fault-free control: all hazards zero and
        all scheduled faults dropped. Chaos sweeps use this to turn one
        base plan into a fault-rate ladder.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return dataclasses.replace(
            self,
            crash=self.crash.scaled(factor),
            slowdown=self.slowdown.scaled(factor),
            flaky_compile=self.flaky_compile.scaled(factor),
            tile_fault=self.tile_fault.scaled(factor),
            corrupt=self.corrupt.scaled(factor),
            burst=self.burst.scaled(factor))

    @property
    def quiet(self) -> bool:
        """True when no fault can ever fire under this plan."""
        return (self.crash.p_per_device_s == 0 and not self.crash.at
                and self.slowdown.p_per_device_s == 0 and not self.slowdown.at
                and self.flaky_compile.p == 0
                and self.tile_fault.p_per_batch == 0
                and self.corrupt.p_per_download == 0
                and self.burst.p_per_s == 0 and not self.burst.at)

    # -- JSON form ---------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name, "stream": self.stream}
        for key, (attr, _) in _SPEC_FIELDS.items():
            spec = getattr(self, attr)
            entry = dataclasses.asdict(spec)
            entry = {k: (list(map(list, v)) if isinstance(v, tuple) and v
                         and isinstance(v[0], tuple)
                         else list(v) if isinstance(v, tuple) else v)
                     for k, v in entry.items()}
            payload[key] = entry
        return payload

    def to_json(self) -> str:
        return report_json(self.as_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValueError(
                f"fault plan must be a JSON object, got "
                f"{type(payload).__name__}")
        known = {"name", "stream", *_SPEC_FIELDS}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}")
        kwargs: Dict[str, Any] = {}
        for meta in ("name", "stream"):
            if meta in payload:
                kwargs[meta] = str(payload[meta])
        for key, (attr, spec_cls) in _SPEC_FIELDS.items():
            if key not in payload:
                continue
            entry = dict(payload[key])
            spec_fields = {f.name for f in dataclasses.fields(spec_cls)}
            bad = set(entry) - spec_fields
            if bad:
                raise ValueError(
                    f"unknown keys in fault plan {key!r}: "
                    f"{', '.join(sorted(bad))}")
            if "at" in entry:
                at = entry["at"]
                if key == "queue_burst":
                    entry["at"] = tuple(float(t) for t in at)
                else:
                    entry["at"] = tuple((int(d), float(t)) for d, t in at)
            kwargs[attr] = spec_cls(**entry)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


def default_plan() -> FaultPlan:
    """The canned chaos plan ``repro chaos`` sweeps when none is given.

    At scale 1.0: each device crashes permanently at ~1 %/s hazard,
    2 % of batches take a transient tile fault, 5 % of program
    downloads arrive corrupted, and 5 % of first-touch compiles flake.
    """
    return FaultPlan(
        name="default-chaos",
        crash=CrashSpec(p_per_device_s=0.01, outage_s=None),
        tile_fault=TileFaultSpec(p_per_batch=0.02, tiles=1),
        corrupt=CorruptSpec(p_per_download=0.05, detection_rate=1.0),
        flaky_compile=FlakyCompileSpec(p=0.05))
