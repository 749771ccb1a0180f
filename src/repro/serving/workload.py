"""Load generators for the serving simulator.

Three request sources, all pure functions of their parameters under the
shared ``REPRO_SEED`` discipline (:mod:`repro.runtime.seed`):

* :class:`OpenLoopPoisson` — open-loop arrivals with exponential
  inter-arrival times at a fixed offered rate; arrivals do not react to
  the system (the datacenter "heavy traffic" regime).
* :class:`ClosedLoop` — N clients that each keep exactly one request in
  flight, issuing the next one ``think_s`` after the previous response;
  the arrival rate self-limits to what the fleet sustains.
* :class:`TraceReplay` — replays an explicit ``(arrival_s, model)``
  trace, e.g. a recorded mix over the 7 zoo entries
  (:func:`zoo_mix_trace`).
* :class:`DiurnalTrace` — a day-cycle trace with a cosine rate envelope
  between a trough and a peak, plus optional square-wave bursts; the
  datacenter-scale workload the autoscaler is evaluated against.

Traces round-trip through JSON (:func:`save_trace` /
:func:`load_trace`, schema ``repro-request-trace-v1``, checked against
:data:`REQUEST_TRACE_SPEC`) so a generated diurnal day can be replayed
byte-identically by ``repro serve --trace``.

The simulator drives a workload through two hooks: :meth:`arrivals`
gives the arrivals known up front as typed columns in time order, and
:meth:`on_complete` lets closed-loop clients react to their own
completions.  :meth:`initial` gives the same arrivals as
:class:`Request` objects.  The open-loop sources and trace replays store
only the columns and build requests on demand: arrival times as an
``array('d')`` (8 bytes a request), model picks as a one-byte
``array('B')`` into a tuple of model names (wider only past 256 names),
9 bytes a request in all against about 40 for a list of boxed floats
and a list of name pointers.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import (Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..runtime import seeded_rng
from ..schema import check

#: Schema tag for serialized request traces.
TRACE_SCHEMA = "repro-request-trace-v1"

#: Shape of a ``repro-request-trace-v1`` file (see :mod:`repro.schema`).
REQUEST_TRACE_SPEC = {
    "keys": {
        "schema": {"enum": [TRACE_SCHEMA]},
        "requests": {"items": {"tuple": ["number", "str"]}},
    },
    "optional": {"duration_s": {"type": "number", "min": 0}},
}

#: Candidate arrivals :class:`DiurnalTrace` draws per block.
DIURNAL_BLOCK = 65536


@dataclass(frozen=True)
class Request:
    """One inference request against a zoo model."""
    rid: int
    model: str
    arrival_s: float
    client: int = -1


class Arrivals(NamedTuple):
    """A workload's pre-known arrivals as columns, in time order.

    Row ``i`` arrives at ``times[i]`` for model ``names[picks[i]]``;
    ``times`` is an ``array('d')`` and ``picks`` a small-int ``array``
    (one byte a row up to 256 names).  ``names`` may hold names no row
    picks.  When the workload's requests carry more than that
    (closed-loop clients, LLM token counts), ``requests`` holds the
    request behind each row; otherwise row ``i`` is ``Request(i,
    names[picks[i]], times[i])``.  The columns may be the workload's
    own storage: do not mutate them.
    """
    times: Sequence[float]
    picks: Sequence[int]
    names: Tuple[str, ...]
    requests: Optional[Sequence[Request]] = None

    def request(self, i: int) -> Request:
        """The request behind row ``i``."""
        if self.requests is not None:
            return self.requests[i]
        return Request(i, self.names[self.picks[i]], self.times[i])


def _pick_column(names: Sequence[str]) -> array:
    """An empty pick column wide enough to index ``names``: one byte a
    row up to 256 names (a trace file may name more), four beyond."""
    return array("B" if len(names) <= 256 else "I")


def _columns(times: Iterable[float], models: Sequence[str]
             ) -> Tuple[array, array, Tuple[str, ...]]:
    """``(times, picks, names)`` columns for rows of floats and names."""
    names = tuple(dict.fromkeys(models))
    index = {name: i for i, name in enumerate(names)}
    picks = _pick_column(names)
    picks.extend(map(index.__getitem__, models))
    return array("d", times), picks, names


class Workload:
    """Base protocol: pre-known arrivals + a completion feedback hook."""

    #: Nominal traffic horizon; metrics normalize throughput against it.
    duration_s: float = 0.0

    def initial(self) -> List[Request]:
        raise NotImplementedError

    def arrivals(self) -> Arrivals:
        """:meth:`initial` as columns, in ``(arrival_s, rid)`` order."""
        requests = sorted(self.initial(), key=attrgetter("arrival_s", "rid"))
        return Arrivals(*_columns([r.arrival_s for r in requests],
                                  [r.model for r in requests]), requests)

    def on_complete(self, request: Request,
                    finish_s: float) -> Optional[Request]:
        """Next request triggered by this completion (closed loop only)."""
        return None


def _check_stream(models: Sequence[str], rate_name: str, rate: float,
                  duration_s: float) -> None:
    """Reject parameters a generated stream cannot be drawn from."""
    if not models:
        raise ValueError("models must name at least one model")
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"{rate_name} must be finite and positive, "
                         f"got {rate}")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError(f"duration_s must be finite and non-negative, "
                         f"got {duration_s}")


class _ColumnWorkload(Workload):
    """A workload whose arrivals are stored as typed columns in time
    order: ``array('d')`` times and small-int picks into ``_names``."""

    _times: array
    _picks: array
    _names: Tuple[str, ...]

    def initial(self) -> List[Request]:
        names = self._names
        return [Request(i, names[p], t)
                for i, (t, p) in enumerate(zip(self._times, self._picks))]

    def arrivals(self) -> Arrivals:
        return Arrivals(self._times, self._picks, self._names)


class OpenLoopPoisson(_ColumnWorkload):
    """Open-loop Poisson arrivals over a fixed model mix.

    Models are drawn uniformly from ``models`` per request (a single
    entry gives a single-model stream). The stream is fully determined
    by ``(REPRO_SEED, models, rate_rps, duration_s, stream)``.
    """

    def __init__(self, models: Sequence[str], rate_rps: float,
                 duration_s: float, stream: object = 0):
        _check_stream(models, "rate_rps", rate_rps, duration_s)
        self.models = tuple(models)
        self.rate_rps = float(rate_rps)
        self.duration_s = float(duration_s)
        rng = seeded_rng("poisson", self.models, self.rate_rps,
                         self.duration_s, stream)
        times = array("d")
        picks = _pick_column(self.models)
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / self.rate_rps))
            if t >= self.duration_s:
                break
            times.append(t)
            picks.append(int(rng.integers(len(self.models))))
        self._times = times
        self._picks = picks
        self._names = self.models


class ClosedLoop(Workload):
    """``clients`` concurrent clients, one outstanding request each.

    Client ``c`` always requests ``models[c % len(models)]``; its next
    request arrives ``think_s`` after (and never before) its previous
    response. Initial arrivals are staggered by one think time spread
    evenly so clients do not all hit an empty fleet at t=0.
    """

    def __init__(self, models: Sequence[str], clients: int,
                 duration_s: float, think_s: float = 0.0):
        if clients <= 0:
            raise ValueError(f"clients must be positive, got {clients}")
        self.models = tuple(models)
        self.clients = clients
        self.duration_s = float(duration_s)
        self.think_s = float(think_s)
        self._next_rid = clients

    def initial(self) -> List[Request]:
        stagger = self.think_s / self.clients if self.think_s else 0.0
        return [Request(c, self.models[c % len(self.models)], c * stagger,
                        client=c)
                for c in range(self.clients)]

    def on_complete(self, request: Request,
                    finish_s: float) -> Optional[Request]:
        arrival = finish_s + self.think_s
        if arrival >= self.duration_s:
            return None
        rid = self._next_rid
        self._next_rid += 1
        return replace(request, rid=rid, arrival_s=arrival)


class TraceReplay(_ColumnWorkload):
    """Replay an explicit ``(arrival_s, model)`` trace, in time order."""

    def __init__(self, entries: Iterable[Tuple[float, str]]):
        ordered = sorted(entries, key=lambda e: e[0])
        self._times, self._picks, self._names = _columns(
            [float(t) for t, _ in ordered], [model for _, model in ordered])
        self.duration_s = self._times[-1] if self._times else 0.0


def zoo_mix_trace(models: Sequence[str], rate_rps: float,
                  duration_s: float, stream: object = 0) -> TraceReplay:
    """A canned Poisson trace over a model mix, as a replayable trace."""
    source = OpenLoopPoisson(models, rate_rps, duration_s, stream=stream)
    times, picks, names, _ = source.arrivals()
    return TraceReplay(zip(times, [names[p] for p in picks]))


class DiurnalTrace(_ColumnWorkload):
    """Diurnal load: a cosine rate envelope between trough and peak.

    Arrivals are generated by seeded thinning: Poisson candidates at
    ``peak_rps`` are accepted with probability ``trough_fraction +
    (1 - trough_fraction) * 0.5 * (1 - cos(2*pi*t / period_s))`` — the
    instantaneous rate starts at the trough, crests at ``peak_rps``
    mid-period, and returns to the trough, like a compressed day of
    datacenter traffic.  Optional square-wave *bursts* (every
    ``burst_every_s``, lasting ``burst_len_s``) force acceptance to 1,
    modelling flash crowds the autoscaler must absorb.  The trace is a
    pure function of ``(REPRO_SEED, models, peak_rps, duration_s,
    trough_fraction, period_s, burst_every_s, burst_len_s, stream)``.

    Candidates are drawn :data:`DIURNAL_BLOCK` at a time: per block the
    inter-arrival gaps, then the acceptance draws, then the model picks,
    each as one array.  Arrival times are one running sum across blocks,
    and generation stops after the block that passes ``duration_s``.
    Each block's kept rows are appended to the typed columns as raw
    bytes, so no per-request Python object is ever built.
    """

    def __init__(self, models: Sequence[str], peak_rps: float,
                 duration_s: float, trough_fraction: float = 0.25,
                 period_s: Optional[float] = None,
                 burst_every_s: float = 0.0, burst_len_s: float = 0.0,
                 stream: object = 0):
        _check_stream(models, "peak_rps", peak_rps, duration_s)
        if not 0.0 <= trough_fraction <= 1.0:
            raise ValueError(f"trough_fraction must be in [0, 1], "
                             f"got {trough_fraction}")
        self.models = tuple(models)
        self.peak_rps = float(peak_rps)
        self.trough_fraction = float(trough_fraction)
        self.period_s = float(period_s) if period_s else float(duration_s)
        self.burst_every_s = float(burst_every_s)
        self.burst_len_s = float(burst_len_s)
        rng = seeded_rng("diurnal", self.models, self.peak_rps,
                         float(duration_s), self.trough_fraction,
                         self.period_s, self.burst_every_s,
                         self.burst_len_s, stream)
        two_pi = 2.0 * math.pi
        times = array("d")
        picks = _pick_column(self.models)
        t = 0.0
        while t < duration_s:
            gaps = rng.exponential(1.0 / self.peak_rps, DIURNAL_BLOCK)
            u = rng.random(DIURNAL_BLOCK)
            pick = rng.integers(len(self.models), size=DIURNAL_BLOCK)
            gaps[0] += t    # cumsum adds in order: the same sums as t +=
            at = np.cumsum(gaps)
            t = float(at[-1])
            accept = (self.trough_fraction + (1.0 - self.trough_fraction)
                      * 0.5 * (1.0 - np.cos(two_pi * at / self.period_s)))
            if self.burst_every_s > 0.0:
                accept[at % self.burst_every_s < self.burst_len_s] = 1.0
            keep = (u < accept) & (at < duration_s)
            times.frombytes(at[keep].tobytes())
            picks.frombytes(pick[keep].astype(picks.typecode).tobytes())
        self._times = times
        self._picks = picks
        self._names = self.models
        # The envelope's horizon, not the last accepted arrival: the
        # quiet tail after the final request is part of the day (and is
        # where the autoscaler earns its cost savings).
        self.duration_s = float(duration_s)


def save_trace(workload: Workload, path: str) -> int:
    """Serialize a workload's initial arrivals as a JSON trace file.

    Returns the number of requests written.  The file round-trips
    through :func:`load_trace` into a :class:`TraceReplay` that yields
    the identical arrival sequence.
    """
    times, picks, names, _ = workload.arrivals()
    payload = {
        "schema": TRACE_SCHEMA,
        "duration_s": workload.duration_s,
        "requests": [[t, names[p]] for t, p in zip(times, picks)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return len(times)


class TraceFileError(ValueError):
    """A request-trace file that does not match :data:`REQUEST_TRACE_SPEC`.

    ``problems`` lists each mismatch as ``<json path>: <problem>``.
    """

    def __init__(self, path: str, problems: List[str]):
        super().__init__(f"{path}: invalid request trace:\n  "
                         + "\n  ".join(problems))
        self.problems = problems


def load_trace(path: str) -> TraceReplay:
    """Load a ``repro-request-trace-v1`` JSON file as a trace replay.

    Raises :class:`TraceFileError` (a ``ValueError``) when the document
    does not match :data:`REQUEST_TRACE_SPEC`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = check(payload, REQUEST_TRACE_SPEC)
    if problems:
        raise TraceFileError(path, problems)
    trace = TraceReplay((float(t), model) for t, model in payload["requests"])
    duration = payload.get("duration_s")
    if duration is not None and duration > trace.duration_s:
        trace.duration_s = float(duration)
    return trace
