"""Exporters: Chrome trace-event JSON (Perfetto-loadable) + counters.

The trace file follows the Trace Event Format consumed by
``chrome://tracing`` and https://ui.perfetto.dev: a top-level object
with a ``traceEvents`` list of ``X`` (complete), ``i`` (instant) and
``M`` (metadata) events. Host spans use real microseconds; device
timelines map one unit-cycle to one microsecond (recorded in
``otherData.timeUnits`` so readers can rescale). ``otherData`` also
carries the merged hardware-counter dump and the timestamp-free
canonical span tree — the two artifacts the determinism tests compare
byte for byte.

``validate_trace_file`` is the schema check shared by the tests and the
CI ``profile-smoke`` step.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..schema import check, passed
from .counters import CounterRegistry, format_counters
from .spans import span_tree

#: Event phases this exporter emits / the validator accepts.
KNOWN_PHASES = ("X", "B", "E", "i", "C", "M")

#: pid blocks: host snapshots take 0..N-1, device/serving tracks sit
#: far above so merged snapshots can never collide with them.
DEVICE_PID = 1000
SERVING_PID = 2000


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def chrome_trace(snapshots: Sequence[Mapping[str, Any]],
                 device_events: Iterable[Dict[str, Any]] = (),
                 extra_other_data: Optional[Mapping[str, Any]] = None,
                 ) -> Dict[str, Any]:
    """Merge telemetry snapshots (+ prebuilt device events) into a trace.

    Snapshots are renumbered ``pid = 0..N-1`` in merge order — callers
    pass them in a deterministic order (e.g. ``parallel_map`` output
    order), which keeps the merged trace stable across ``--jobs`` runs.
    """
    events: List[Dict[str, Any]] = []
    counters = CounterRegistry()
    for pid, snapshot in enumerate(snapshots):
        events.append(_metadata(pid, 0, "process_name",
                                snapshot.get("label", "session")))
        for span in snapshot.get("spans", ()):
            events.append({
                "ph": "X",
                "name": span["name"],
                "cat": span["cat"],
                "pid": pid,
                "tid": span["tid"],
                "ts": span["ts_us"],
                "dur": max(span["dur_us"], 0.0),
                "args": dict(span.get("args", {})),
            })
        counters.merge(snapshot.get("counters", {}))
    events.extend(device_events)
    other: Dict[str, Any] = {
        "counters": counters.as_dict(),
        "spanTree": span_tree(snapshots),
        "timeUnits": {"host": "us (wall clock)",
                      "device": "us (1 unit-cycle = 1 us)",
                      "serving": "us (simulated time)"},
    }
    if extra_other_data:
        other.update(extra_other_data)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def _metadata(pid: int, tid: int, kind: str, name: str) -> Dict[str, Any]:
    return {"ph": "M", "name": kind, "pid": pid, "tid": tid,
            "args": {"name": name}}


def tile_timeline_events(events: Iterable[Any],
                         pid: int = DEVICE_PID) -> List[Dict[str, Any]]:
    """The Figure 10 tile timeline as Chrome trace slices.

    ``events`` are :class:`repro.npu.trace.TraceEvent`-shaped objects
    (``block``/``unit``/``tile``/``start_cycle``/``end_cycle``); one
    track per unit, one slice per (block, tile), one cycle = one µs.
    """
    tids = {"gemm": 0, "tandem": 1}
    out = [
        _metadata(pid, 0, "process_name", "NPU device (cycles)"),
        _metadata(pid, 0, "thread_name", "GEMM unit"),
        _metadata(pid, 1, "thread_name", "Tandem Processor"),
    ]
    for event in events:
        out.append({
            "ph": "X",
            "name": f"{event.block}/t{event.tile}",
            "cat": "device",
            "pid": pid,
            "tid": tids[event.unit],
            "ts": float(event.start_cycle),
            "dur": float(event.end_cycle - event.start_cycle),
            "args": {"block": event.block, "unit": event.unit,
                     "tile": event.tile,
                     "start_cycle": event.start_cycle,
                     "end_cycle": event.end_cycle},
        })
    return out


#: tid of the reject track in the serving process group.
_REJECT_TID = 999
#: tid of the fault/retry lifecycle track in the serving process group.
_FAULT_TID = 998

#: Trace-log kinds that open/close a device-state window: crash..recover
#: pairs become "outage" slices, eject..readmit pairs become "ejected"
#: slices. True = opens the window.
_FAULT_WINDOWS = {"crash": ("outage", True), "recover": ("outage", False),
                  "eject": ("ejected", True), "readmit": ("ejected", False)}


def serving_trace_events(log: Iterable[Mapping[str, Any]],
                         pid: int = SERVING_PID) -> List[Dict[str, Any]]:
    """Fleet request lifecycles (a ``collect_trace`` fleet's ``trace_log``).

    The log comes from the one fleet event core
    (:class:`~repro.serving.scale.ScaledFleetSimulator`, also exported
    as ``FleetSimulator``), at any fleet size and with or without cells,
    autoscaling, faults or the monitor attached.

    Batches become slices on per-device tracks in simulated time;
    rejects become instant events on a dedicated track. Fault and retry
    lifecycle entries land on a ``faults`` track: crash→recover and
    eject→readmit pairs as complete slices (windows still open when the
    log ends — e.g. a permanent crash — are closed at the last logged
    time), everything else (timeouts, retries, tile faults, corrupt
    downloads, ...) as instant events carrying the entry's fields.
    """
    out = [_metadata(pid, _REJECT_TID, "thread_name", "rejected"),
           _metadata(pid, _FAULT_TID, "thread_name", "faults"),
           _metadata(pid, 0, "process_name", "serving fleet (simulated)")]
    devices_seen = set()
    entries = list(log)
    end_s = max((e.get("finish_s", e["t_s"]) for e in entries), default=0.0)
    open_windows: Dict[Any, float] = {}
    for entry in entries:
        kind = entry["kind"]
        if kind == "batch":
            device = entry["device"]
            if device not in devices_seen:
                devices_seen.add(device)
                out.append(_metadata(pid, device, "thread_name",
                                     f"device {device}"))
            start_us = entry["start_s"] * 1e6
            out.append({
                "ph": "X",
                "name": f"{entry['model']} x{entry['batch']}",
                "cat": "serving",
                "pid": pid,
                "tid": device,
                "ts": start_us,
                "dur": max(entry["finish_s"] * 1e6 - start_us, 0.0),
                "args": {"model": entry["model"], "batch": entry["batch"],
                         "compile": entry.get("compile", False)},
            })
        elif kind in ("reject", "verify-reject", "queue-reject", "shed"):
            out.append({
                "ph": "i",
                "s": "t",
                "name": kind,
                "cat": "serving",
                "pid": pid,
                "tid": _REJECT_TID,
                "ts": entry["t_s"] * 1e6,
                "args": {"model": entry["model"]},
            })
        elif kind in _FAULT_WINDOWS:
            label, opens = _FAULT_WINDOWS[kind]
            key = (label, entry["device"])
            if opens:
                open_windows[key] = entry["t_s"]
            else:
                start_s = open_windows.pop(key, entry["t_s"])
                out.append(_fault_slice(pid, label, entry["device"],
                                        start_s, entry["t_s"]))
        else:  # timeout / retry / tile-fault / corrupt-* / queue-burst ...
            out.append({
                "ph": "i",
                "s": "t",
                "name": kind,
                "cat": "faults",
                "pid": pid,
                "tid": _FAULT_TID,
                "ts": entry["t_s"] * 1e6,
                "args": {k: v for k, v in entry.items()
                         if k not in ("kind", "t_s")},
            })
    for (label, device), start_s in sorted(open_windows.items()):
        out.append(_fault_slice(pid, label, device, start_s,
                                max(end_s, start_s)))
    return out


#: pid block for the LLM batching engine's simulated timeline.
LLM_PID = 3000
#: tid of the engine-wide decode-step track.
_LLM_STEP_TID = 0
#: tid of the completion/reject lifecycle track.
_LLM_LIFECYCLE_TID = 999


def llm_trace_events(log: Iterable[Mapping[str, Any]],
                     pid: int = LLM_PID) -> List[Dict[str, Any]]:
    """LLM batching timelines (from a batcher's ``trace_log``).

    Decode steps become slices on the engine track (one slice per
    iteration, named by its batch size); prefills become slices carrying
    the joining request id; completions and KV-budget rejects land as
    instants on a lifecycle track. Simulated seconds map to trace
    microseconds like the serving exporter.
    """
    out = [_metadata(pid, 0, "process_name", "llm engine (simulated)"),
           _metadata(pid, _LLM_STEP_TID, "thread_name", "decode steps"),
           _metadata(pid, _LLM_LIFECYCLE_TID, "thread_name", "lifecycle")]
    for entry in log:
        kind = entry["kind"]
        if kind == "step":
            start_us = entry["start_s"] * 1e6
            out.append({
                "ph": "X",
                "name": f"step x{entry['batch']}",
                "cat": "llm",
                "pid": pid,
                "tid": _LLM_STEP_TID,
                "ts": start_us,
                "dur": max(entry["finish_s"] * 1e6 - start_us, 0.0),
                "args": {"batch": entry["batch"],
                         "rids": list(entry.get("rids", ()))},
            })
        elif kind == "prefill":
            start_us = entry["start_s"] * 1e6
            out.append({
                "ph": "X",
                "name": f"prefill r{entry['rid']}",
                "cat": "llm",
                "pid": pid,
                "tid": _LLM_STEP_TID,
                "ts": start_us,
                "dur": max(entry["finish_s"] * 1e6 - start_us, 0.0),
                "args": {"rid": entry["rid"],
                         "tokens": entry.get("tokens", 0)},
            })
        else:  # complete / reject
            out.append({
                "ph": "i",
                "s": "t",
                "name": f"{kind} r{entry['rid']}",
                "cat": "llm",
                "pid": pid,
                "tid": _LLM_LIFECYCLE_TID,
                "ts": entry["t_s"] * 1e6,
                "args": {"rid": entry["rid"]},
            })
    return out


def _fault_slice(pid: int, label: str, device: int, start_s: float,
                 end_s: float) -> Dict[str, Any]:
    return {
        "ph": "X",
        "name": f"{label} d{device}",
        "cat": "faults",
        "pid": pid,
        "tid": _FAULT_TID,
        "ts": start_s * 1e6,
        "dur": max((end_s - start_s) * 1e6, 0.0),
        "args": {"device": device},
    }


#: pid block for the streaming monitor's counter tracks.
MONITOR_PID = 4000


def monitor_counter_events(payload: Mapping[str, Any],
                           pid: int = MONITOR_PID) -> List[Dict[str, Any]]:
    """Counter tracks (``ph: "C"``) from a ``repro-monitor-report-v1``.

    Every monitor time series becomes one Perfetto counter track in
    simulated microseconds — one counter sample per interval boundary
    — so the live queue depth, burn rates, and windowed tail latencies
    render *alongside* the batch/fault span tracks the serving exporter
    already emits.  ``None`` samples (no data) are skipped rather than
    emitted as zero, leaving honest gaps in the track.  Alert fire and
    resolve transitions ride along as instant events on an ``alerts``
    track.
    """
    out: List[Dict[str, Any]] = [
        _metadata(pid, 0, "process_name",
                  f"monitor ({payload.get('kind', '?')}, simulated)"),
    ]
    interval_s = payload.get("interval_s", 0.0)
    for name, column in payload.get("series", {}).items():
        for index, sample in enumerate(column.get("samples", [])):
            if sample is None:
                continue
            out.append({
                "ph": "C",
                "name": name,
                "cat": "monitor",
                "pid": pid,
                "tid": 0,
                "ts": (index + 1) * interval_s * 1e6,
                "args": {"value": sample},
            })
    for event in payload.get("alerts", []):
        out.append({
            "ph": "i",
            "s": "p",
            "name": f"{event['kind']}:{event['rule']}",
            "cat": "alerts",
            "pid": pid,
            "tid": 1,
            "ts": event["t_s"] * 1e6,
            "args": {"severity": event["severity"],
                     "burn_long": event["burn_long"],
                     "burn_short": event["burn_short"]},
        })
    return out


# ---------------------------------------------------------------------------
# Validation + IO
# ---------------------------------------------------------------------------
#: Shape of a trace file: what chrome://tracing and Perfetto need to load.
TRACE_SPEC = {
    "keys": {"traceEvents": {"min": 1, "items": {
        "keys": {"ph": {"enum": KNOWN_PHASES},
                 "name": {"type": "str", "min": 1},
                 "pid": "int", "tid": "int"},
        "optional": {"ts": {"type": "number", "min": 0},
                     "dur": {"type": "number", "min": 0},
                     "args": "object"}}}},
    "optional": {"otherData": {"optional": {"counters": "object"}}},
}


def validate_trace(payload: Any) -> List[str]:
    """Problems with ``payload`` as trace-event JSON (empty list = valid)."""
    problems = check(payload, TRACE_SPEC)
    if passed(problems, "traceEvents"):  # ts and dur depend on the phase
        for index, event in enumerate(payload["traceEvents"]):
            if event["ph"] != "M" and "ts" not in event:
                problems.append(f"$.traceEvents[{index}].ts: missing")
            if event["ph"] == "X" and "dur" not in event:
                problems.append(f"$.traceEvents[{index}].dur: missing")
    return problems


def validate_trace_file(path: str) -> Dict[str, Any]:
    """Load + validate a trace file; raises ValueError listing problems."""
    with open(path) as handle:
        payload = json.load(handle)
    problems = validate_trace(payload)
    if problems:
        raise ValueError("invalid trace JSON:\n  " + "\n  ".join(problems))
    return payload


def write_trace(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


__all__ = [
    "DEVICE_PID",
    "LLM_PID",
    "MONITOR_PID",
    "SERVING_PID",
    "chrome_trace",
    "format_counters",
    "llm_trace_events",
    "monitor_counter_events",
    "serving_trace_events",
    "tile_timeline_events",
    "validate_trace",
    "validate_trace_file",
    "write_trace",
]
