"""The datacenter-scale fleet core: interned records, one merged stream.

:class:`~repro.serving.fleet.FleetSimulator` is the *semantics
reference*: per-request ``Request`` objects, dict-keyed lifecycle
state, an O(devices) router probe and an O(devices) queue-depth sample
on every arrival.  That is fine at 4–6 devices and untenable at 1000.
:class:`ScaledFleetSimulator` is the same fault-free machine rebuilt
for scale:

* **Interned request records** — requests live in parallel arrays
  (arrival time, model index, one status byte), not objects; a request
  *is* its slot index.  Follow-up requests (closed loop) append slots.
* **One merged event stream** — the initial arrivals are already a
  sorted array, so they are consumed through a pointer instead of being
  materialised as heap entries; only *dynamic* events (batch
  completions, batch timers, follow-up arrivals) touch the heap.  The
  pointer/heap merge preserves the legacy ``(time, push-order)`` total
  order exactly: arrival *i* carries implicit sequence number *i* and
  dynamic events count up from *n*, which is precisely the order the
  legacy core's eager pushes produce.
* **Batched, incremental accounting** — fleet queue depth, batch-size
  and queue-depth statistics are O(1) running aggregates instead of
  per-arrival fleet scans and per-event list appends.
* **Hierarchical cell routing** — devices are grouped into equal
  contiguous *cells*; routing picks a cell (round-robin over active
  cells, or a stable model hash), then a device inside it, so the
  per-arrival cost is O(cell size), not O(fleet).  With ``cells=1``
  every policy degenerates to the legacy router's exact decision
  sequence.

**Bit-identity contract**: with ``cells=1`` and autoscaling off, a run
is *bit-identical* to the legacy ``FleetSimulator`` on the same
workload — same event order, same float arithmetic, byte-identical
:class:`~repro.serving.metrics.ServingReport` JSON (pinned by
``tests/test_scale.py`` and ``BENCH_fleet_scale.json``).  The scaled
core therefore refuses fault plans and resilient policies — chaos runs
stay on the legacy core, which remains the only implementation of
crash/retry/breaker semantics.

On top of the fast core, an optional
:class:`~repro.serving.autoscale.AutoscaleConfig` activates cells on
SLO burn-rate and queue-depth signals and drains them in quiet
troughs; the run then carries a ``repro-fleet-scale-report-v1``
payload with the decision log, cell timeline, and the $/device-hour
cost accounting (:func:`validate_fleet_scale_report` checks its
shape).
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..runtime import knobs
from ..telemetry import get_telemetry
from ..telemetry.timeseries import percentile
from .autoscale import AUTOSCALE_ACTIONS, AutoscaleConfig, AutoscaleController
from .fleet import ROUTING_POLICIES
from .metrics import (
    DEFAULT_MIN_SLO_S,
    DEFAULT_SLO_MULTIPLIER,
    ServingReport,
)
from .scheduler import AdmissionPolicy, BatchPolicy, ServiceCosts
from .workload import Workload

SCALE_SCHEMA = "repro-fleet-scale-report-v1"

#: Request status bytes (slot-indexed; 0 = not yet arrived).
_QUEUED, _FLIGHT, _DONE, _REJECTED = 1, 2, 3, 4

#: Cell states under autoscaling.
_PARKED, _ACTIVE, _DRAINING = 0, 1, 2

_EPS = 1e-9


class ScaledFleetSimulator:
    """N devices in C cells under the interned-record event core.

    Constructor arguments mirror :class:`~repro.serving.fleet.FleetSimulator`
    minus the fault surface (``fault_plan``/``resilience``/``monitor``),
    plus ``cells`` (device grouping for hierarchical routing; must
    divide ``devices``) and ``autoscale`` (an
    :class:`~repro.serving.autoscale.AutoscaleConfig`, or ``None`` for
    a static fleet).  After :meth:`run`, :attr:`payload` holds the
    ``repro-fleet-scale-report-v1`` dictionary.
    """

    def __init__(self, costs: ServiceCosts, devices: int = 1,
                 cells: int = 1,
                 batch_policy: Optional[BatchPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 routing: str = "least_loaded",
                 slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
                 min_slo_s: float = DEFAULT_MIN_SLO_S,
                 require_verified: bool = True,
                 autoscale: Optional[AutoscaleConfig] = None):
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if cells < 1:
            raise ValueError("cells must be >= 1")
        if devices % cells != 0:
            raise ValueError(f"cells must divide devices evenly, got "
                             f"{devices} devices / {cells} cells")
        if routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing {routing!r}; "
                             f"known: {', '.join(ROUTING_POLICIES)}")
        if autoscale is not None and cells < 2:
            raise ValueError("autoscaling needs cells >= 2 "
                             "(one cell cannot scale)")
        self.costs = costs
        self.devices = devices
        self.cells = cells
        self.policy = batch_policy or BatchPolicy()
        self.admission = admission or AdmissionPolicy()
        self.routing = routing
        self.slo_multiplier = slo_multiplier
        self.min_slo_s = min_slo_s
        self.require_verified = require_verified
        self.autoscale = autoscale
        #: ``repro-fleet-scale-report-v1`` payload of the last run.
        self.payload: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def run(self, workload: Workload, rate_rps: float = 0.0
            ) -> ServingReport:
        """Simulate the workload; return the legacy-shaped report.

        The hot loop is deliberately monolithic: device state lives in
        flat parallel lists, every per-event step is a handful of list
        index operations, and the only per-request allocations are one
        latency float and (amortised 1/batch) the completion event.
        """
        costs = self.costs
        models = costs.models()
        midx = {m: i for i, m in enumerate(models)}
        lat = [costs.latency_s(m) for m in models]
        comp = [costs.compile_s(m) for m in models]
        verified = [costs.is_verified(m) for m in models]
        crc = [zlib.crc32(m.encode("utf-8")) for m in models]
        # batch_service_s(model, b) == fixed + (latency - fixed) * b;
        # precomputing the two terms reproduces the legacy floats bit
        # for bit (same multiply, same subtraction).
        fixed = [costs.amortized_fraction * v for v in lat]
        var = [v - f for v, f in zip(lat, fixed)]
        slo = [max(self.min_slo_s, self.slo_multiplier * v) for v in lat]

        ndev = self.devices
        ncell = self.cells
        csize = ndev // ncell
        policy = self.policy
        limit = policy.effective_max_batch
        launch_now = policy.kind in ("single", "greedy")
        wait_s = policy.max_wait_ms * 1e-3
        max_queue = self.admission.max_queue
        require_verified = self.require_verified
        routing = self.routing
        one_cell = ncell == 1
        route_rr = routing == "round_robin"
        route_ll = routing == "least_loaded"

        # -- device state: flat parallel lists -------------------------
        dq: List[List[int]] = [[] for _ in range(ndev)]
        qlen = [0] * ndev
        busy_until = [0.0] * ndev
        busy_acc = [0.0] * ndev
        timer_at: List[Optional[float]] = [None] * ndev
        backlog = [0.0] * ndev
        compiled: List[set] = [set() for _ in range(ndev)]

        # -- interned request records ----------------------------------
        from operator import attrgetter
        initial = sorted(workload.initial(),
                         key=attrgetter("arrival_s", "rid"))
        try:
            arr_t = [r.arrival_s for r in initial]
            arr_m = [midx[r.model] for r in initial]
        except KeyError as err:
            raise ValueError(f"workload model {err} not in ServiceCosts")
        n0 = len(arr_t)
        status = bytearray(n0)
        has_follow = type(workload).on_complete is not Workload.on_complete
        req_of = list(initial) if has_follow else None

        # -- running aggregates (the interned MetricsCollector) --------
        offered = rejected = verify_rejected = 0
        queue_sum = queue_n = queue_max = 0
        batches_sum = batches_n = compiles = 0
        slo_met = 0
        latencies: List[float] = []
        last_finish = 0.0
        queued_total = 0
        events = 0

        # -- routing state ---------------------------------------------
        rr_next = 0                  # cells == 1: the legacy rr pointer
        rr_cell = 0                  # cells > 1: active-cell pointer
        ll_cell = 0                  # least_loaded cell pointer
        rr_in = [0] * ncell          # per-cell device pointer

        # -- cells + autoscaling ---------------------------------------
        auto = self.autoscale
        auto_on = auto is not None
        if auto_on:
            ctrl = AutoscaleController(auto, ncell)
            start_cells = ctrl.min_cells
            interval = auto.interval_s
        else:
            ctrl = None
            start_cells = ncell
            interval = 0.0
        cell_state = bytearray(ncell)
        for c in range(start_cells):
            cell_state[c] = _ACTIVE
        active_list = list(range(start_cells))
        # Cost windows: per cell, [activate_s, park_s] pairs (park_s is
        # None while the window is open).
        cost_windows: List[List[List[Optional[float]]]] = [
            [[0.0, None]] if c < start_cells else [] for c in range(ncell)]
        good_pending = bad_pending = 0
        boundary = 0
        next_b = interval if auto_on else float("inf")
        tl_t: List[float] = []
        tl_cells: List[int] = []
        tl_queue: List[int] = []
        tl_burn: List[float] = []
        burn_rule = auto.rules[0].name if auto_on else None

        heap: List[tuple] = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = n0
        ai = 0

        # The legacy ``plan_batch`` decision rule (same-model FIFO prefix,
        # capped at the batch limit; launch immediately for single/greedy
        # policies, otherwise arm a deadline timer) is inlined at all
        # three dispatch sites in the event loop below — arrival, batch
        # completion, and batch timer.  In the shallow-queue regime every
        # request visits two of the three, so the call overhead of a
        # shared helper is measurable at the 50x-speedup scale this core
        # is pinned to.  Changes to the rule must be mirrored at every
        # site (the bit-identity tests in tests/test_scale.py catch
        # divergence from the legacy fleet).

        def follow_up(s: int, now: float) -> None:
            """Closed-loop feedback: intern the next request as a slot."""
            nonlocal seq
            nxt = workload.on_complete(req_of[s], now)
            if nxt is None:
                return
            m = midx.get(nxt.model)
            if m is None:
                raise ValueError(f"workload model {nxt.model!r} "
                                 f"not in ServiceCosts")
            slot = len(arr_t)
            arr_t.append(nxt.arrival_s)
            arr_m.append(m)
            status.append(0)
            req_of.append(nxt)
            push(heap, (nxt.arrival_s, seq, 0, slot, None))
            seq += 1

        def activate_cell(t_s: float) -> int:
            """Bring one more cell into routing (drainers first)."""
            for c in range(ncell):
                if cell_state[c] == _DRAINING:
                    cell_state[c] = _ACTIVE
                    active_list.append(c)
                    active_list.sort()
                    return c
            for c in range(ncell):
                if cell_state[c] == _PARKED:
                    cell_state[c] = _ACTIVE
                    cost_windows[c].append([t_s, None])
                    active_list.append(c)
                    active_list.sort()
                    return c
            raise AssertionError("scale-out with no cell available")

        def drain_cell() -> int:
            """Close the highest-index active cell to routing."""
            c = active_list.pop()
            cell_state[c] = _DRAINING
            return c

        def close_boundary(t_b: float) -> None:
            """One autoscale decision boundary at simulated ``t_b``."""
            nonlocal good_pending, bad_pending, boundary, next_b
            decision = ctrl.decide(t_b, good_pending, bad_pending,
                                   queued_total, len(active_list),
                                   len(active_list) * csize)
            good_pending = bad_pending = 0
            if decision is not None:
                action, reason = decision
                cell = (activate_cell(t_b) if action == "scale-out"
                        else drain_cell())
                ctrl.record(t_b, action, reason, cell, len(active_list))
            # Draining cells whose devices have gone idle park (and stop
            # costing money) at this boundary.
            for c in range(ncell):
                if cell_state[c] != _DRAINING:
                    continue
                base = c * csize
                idle = True
                for d in range(base, base + csize):
                    if qlen[d] or busy_until[d] > t_b:
                        idle = False
                        break
                if idle:
                    cell_state[c] = _PARKED
                    cost_windows[c][-1][1] = t_b
                    ctrl.decisions.append({
                        "t_s": t_b, "action": "park", "reason": "drained",
                        "cell": c, "cells_active": len(active_list)})
            tl_t.append(t_b)
            tl_cells.append(len(active_list))
            tl_queue.append(queued_total)
            tl_burn.append(ctrl.engine.burn_rates(burn_rule)[0])
            boundary += 1
            next_b = (boundary + 1) * interval

        # ------------------------------------------------------------------
        # The merged event loop: sorted-arrival pointer vs dynamic heap.
        # ------------------------------------------------------------------
        while True:
            if heap:
                if ai < n0 and arr_t[ai] <= heap[0][0]:
                    now = arr_t[ai]
                    kind = 0
                    s = ai
                    ai += 1
                else:
                    now, _, kind, s, batch = pop(heap)
            elif ai < n0:
                now = arr_t[ai]
                kind = 0
                s = ai
                ai += 1
            else:
                break
            if now + _EPS >= next_b:
                while next_b <= now + _EPS:
                    close_boundary(next_b)
            events += 1
            if kind == 0:
                # ---- arrival of slot s -------------------------------
                offered += 1
                qt = queued_total
                queue_sum += qt
                queue_n += 1
                if qt > queue_max:
                    queue_max = qt
                m = arr_m[s]
                if require_verified and not verified[m]:
                    rejected += 1
                    verify_rejected += 1
                    status[s] = _REJECTED
                    if auto_on:
                        bad_pending += 1
                    if has_follow:
                        follow_up(s, now)
                    continue
                if route_rr:
                    if one_cell:
                        dev = rr_next
                        rr_next = dev + 1
                        if rr_next == ndev:
                            rr_next = 0
                    else:
                        ci = active_list[rr_cell % len(active_list)]
                        rr_cell += 1
                        o = rr_in[ci]
                        dev = ci * csize + o
                        o += 1
                        rr_in[ci] = 0 if o == csize else o
                elif route_ll:
                    if one_cell:
                        base, top = 0, ndev
                    else:
                        ci = active_list[ll_cell % len(active_list)]
                        ll_cell += 1
                        base = ci * csize
                        top = base + csize
                    dev = base
                    bb = backlog[base]
                    bq = qlen[base]
                    for d in range(base + 1, top):
                        v = backlog[d]
                        if v < bb or (v == bb and qlen[d] < bq):
                            dev = d
                            bb = v
                            bq = qlen[d]
                else:  # model_affinity
                    h = crc[m]
                    if one_cell:
                        dev = h % ndev
                    else:
                        ci = active_list[h % len(active_list)]
                        dev = ci * csize + h % csize
                b = backlog[dev]
                backlog[dev] = (b if b > now else now) + lat[m]
                if qlen[dev] >= max_queue:
                    rejected += 1
                    status[s] = _REJECTED
                    if auto_on:
                        bad_pending += 1
                    if has_follow:
                        follow_up(s, now)
                    continue
                status[s] = _QUEUED
                q = dq[dev]
                q.append(s)
                lq = qlen[dev] + 1
                qlen[dev] = lq
                queued_total += 1
                if busy_until[dev] <= now:
                    # ``dispatch(dev, now)`` inlined — this site fires
                    # once per admitted request; see the timer branch for
                    # the annotated decision rule.
                    head = q[0]
                    hm = arr_m[head]
                    n = 1
                    top = limit if limit < lq else lq
                    while n < top and arr_m[q[n]] == hm:
                        n += 1
                    if n < limit and not launch_now:
                        deadline = arr_t[head] + wait_s
                        if now < deadline:
                            t = timer_at[dev]
                            if t is None or t > deadline:
                                timer_at[dev] = deadline
                                push(heap, (deadline, seq, 2, dev, None))
                                seq += 1
                            continue
                    batch = q[:n]
                    del q[:n]
                    qlen[dev] = lq - n
                    queued_total -= n
                    service = fixed[hm] + var[hm] * n
                    resident = compiled[dev]
                    if hm not in resident:
                        service += comp[hm]
                        resident.add(hm)
                        compiles += 1
                    finish = now + service
                    busy_until[dev] = finish
                    busy_acc[dev] += service
                    batches_sum += n
                    batches_n += 1
                    if n == 1:
                        status[head] = _FLIGHT
                    else:
                        for x in batch:
                            status[x] = _FLIGHT
                    push(heap, (finish, seq, 1, dev, batch))
                    seq += 1
            elif kind == 1:
                # ---- batch completion on device s --------------------
                if now > last_finish:
                    last_finish = now
                for r in batch:
                    status[r] = _DONE
                    lt = now - arr_t[r]
                    latencies.append(lt * 1e3)
                    if lt <= slo[arr_m[r]]:
                        slo_met += 1
                        if auto_on:
                            good_pending += 1
                    elif auto_on:
                        bad_pending += 1
                    if has_follow:
                        follow_up(r, now)
                q = dq[s]
                if q and busy_until[s] <= now:
                    # ``dispatch(s, now)`` inlined — fires once per
                    # completion with a backlog.
                    head = q[0]
                    hm = arr_m[head]
                    n = 1
                    lq = qlen[s]
                    top = limit if limit < lq else lq
                    while n < top and arr_m[q[n]] == hm:
                        n += 1
                    if n < limit and not launch_now:
                        deadline = arr_t[head] + wait_s
                        if now < deadline:
                            t = timer_at[s]
                            if t is None or t > deadline:
                                timer_at[s] = deadline
                                push(heap, (deadline, seq, 2, s, None))
                                seq += 1
                            continue
                    batch = q[:n]
                    del q[:n]
                    qlen[s] = lq - n
                    queued_total -= n
                    service = fixed[hm] + var[hm] * n
                    resident = compiled[s]
                    if hm not in resident:
                        service += comp[hm]
                        resident.add(hm)
                        compiles += 1
                    finish = now + service
                    busy_until[s] = finish
                    busy_acc[s] += service
                    batches_sum += n
                    batches_n += 1
                    if n == 1:
                        status[head] = _FLIGHT
                    else:
                        for x in batch:
                            status[x] = _FLIGHT
                    push(heap, (finish, seq, 1, s, batch))
                    seq += 1
            else:
                # ---- batch timer on device s -------------------------
                timer_at[s] = None
                q = dq[s]
                if q and busy_until[s] <= now:
                    # ``dispatch(s, now)`` inlined — in the shallow-queue
                    # regime (many devices, light per-device load) every
                    # request takes this arm-then-fire path, so it is as
                    # hot as the arrival path.
                    head = q[0]
                    hm = arr_m[head]
                    n = 1
                    lq = qlen[s]
                    top = limit if limit < lq else lq
                    while n < top and arr_m[q[n]] == hm:
                        n += 1
                    if n < limit and not launch_now:
                        deadline = arr_t[head] + wait_s
                        if now < deadline:
                            t = timer_at[s]
                            if t is None or t > deadline:
                                timer_at[s] = deadline
                                push(heap, (deadline, seq, 2, s, None))
                                seq += 1
                            continue
                    batch = q[:n]
                    del q[:n]
                    qlen[s] = lq - n
                    queued_total -= n
                    service = fixed[hm] + var[hm] * n
                    resident = compiled[s]
                    if hm not in resident:
                        service += comp[hm]
                        resident.add(hm)
                        compiles += 1
                    finish = now + service
                    busy_until[s] = finish
                    busy_acc[s] += service
                    batches_sum += n
                    batches_n += 1
                    if n == 1:
                        status[head] = _FLIGHT
                    else:
                        for x in batch:
                            status[x] = _FLIGHT
                    push(heap, (finish, seq, 1, s, batch))
                    seq += 1

        failed = sum(1 for b in status if b == _QUEUED or b == _FLIGHT)
        makespan = max(last_finish, workload.duration_s)
        if auto_on:
            # Keep closing (empty) boundaries through the tail so the
            # trough after the last completion can still scale in/park
            # — that idle capacity release is exactly the cost win.
            while next_b <= makespan + _EPS:
                close_boundary(next_b)
            for c in range(ncell):
                for window in cost_windows[c]:
                    if window[1] is None:
                        window[1] = makespan
            device_seconds = sum(
                (end - start) * csize
                for windows in cost_windows for start, end in windows)
        else:
            device_seconds = float(ndev) * makespan

        horizon = makespan if makespan > 0 else 1.0
        latencies.sort()
        completed = len(latencies)
        report = ServingReport(
            models=models,
            devices=ndev,
            batch_policy=policy.kind,
            max_batch=policy.effective_max_batch,
            max_wait_ms=policy.max_wait_ms,
            routing=routing,
            rate_rps=rate_rps,
            duration_s=workload.duration_s,
            offered=offered,
            completed=completed,
            rejected=rejected,
            verify_rejected=verify_rejected,
            failed=failed,
            faults={},
            makespan_s=makespan,
            throughput_rps=completed / horizon,
            goodput_rps=slo_met / horizon,
            mean_latency_ms=(sum(latencies) / completed
                             if completed else 0.0),
            p50_ms=percentile(latencies, 50),
            p95_ms=percentile(latencies, 95),
            p99_ms=percentile(latencies, 99),
            mean_queue_depth=(queue_sum / queue_n if queue_n else 0.0),
            max_queue_depth=queue_max,
            mean_batch_size=(batches_sum / batches_n
                             if batches_n else 0.0),
            device_utilization=(sum(busy_acc) / (ndev * horizon)),
            per_device_utilization=[v / horizon for v in busy_acc],
            compiles=compiles,
            compile_cache_hit_rate=(1.0 - compiles / batches_n
                                    if batches_n else 0.0),
            slo_multiplier=self.slo_multiplier,
            slo_ms={m: s * 1e3 for m, s in zip(models, slo)},
            slo_attainment=(slo_met / offered if offered else 0.0),
        )
        self._emit_telemetry(report, batches_n, batches_sum)
        self.payload = self._build_payload(
            report, ctrl, events=events, device_seconds=device_seconds,
            slo_met=slo_met,
            timeline={"t_s": tl_t, "cells_active": tl_cells,
                      "queue_depth": tl_queue, "burn_long": tl_burn})
        return report

    # ------------------------------------------------------------------
    def _emit_telemetry(self, report: ServingReport, batches_n: int,
                        batches_sum: int) -> None:
        """Mirror the legacy core's ``serving.*`` counters."""
        tel = get_telemetry()
        if not tel.enabled:
            return
        tel.count("serving.requests.offered", report.offered)
        tel.count("serving.requests.completed", report.completed)
        tel.count("serving.requests.rejected", report.rejected)
        tel.count("serving.requests.verify_rejected",
                  report.verify_rejected)
        tel.count("serving.requests.failed", report.failed)
        tel.count("serving.batches.launched", batches_n)
        tel.count("serving.batches.requests", batches_sum)
        tel.count("serving.compiles", report.compiles)

    def _build_payload(self, report: ServingReport,
                       ctrl: Optional[AutoscaleController], *,
                       events: int, device_seconds: float, slo_met: int,
                       timeline: Dict[str, List]) -> Dict[str, Any]:
        """Assemble the ``repro-fleet-scale-report-v1`` dictionary."""
        auto = self.autoscale
        if ctrl is not None:
            dollars = ctrl.cost.dollars(device_seconds)
            price = ctrl.cost.price_per_device_hour
        else:
            from .autoscale import CostModel
            cost = CostModel()
            dollars = cost.dollars(device_seconds)
            price = cost.price_per_device_hour
        static_seconds = float(self.devices) * report.makespan_s
        static_dollars = dollars if device_seconds == static_seconds else (
            dollars * static_seconds / device_seconds
            if device_seconds else 0.0)
        bounded = tail_bounded_throughput(report)
        return {
            "schema": SCALE_SCHEMA,
            "seed": knobs.get("REPRO_SEED"),
            "devices": self.devices,
            "cells": self.cells,
            "cell_size": self.devices // self.cells,
            "routing": self.routing,
            "autoscale": auto.as_dict() if auto is not None else None,
            "serving": report.as_dict(),
            "sim": {"events": events, "requests": report.offered},
            "cost": {
                "price_per_device_hour": price,
                "device_seconds": device_seconds,
                "dollars": dollars,
                "static_device_seconds": static_seconds,
                "static_dollars": static_dollars,
                "savings_fraction": (1.0 - device_seconds / static_seconds
                                     if static_seconds else 0.0),
            },
            "slo": {
                "good": slo_met,
                "bad": report.offered - slo_met,
                "p99_ms": report.p99_ms,
                "goodput_rps": report.goodput_rps,
                "tail_bounded_throughput_rps": bounded,
                "bounded_throughput_per_dollar": (bounded / dollars
                                                  if dollars else 0.0),
            },
            "autoscale_events": (list(ctrl.decisions)
                                 if ctrl is not None else []),
            "alerts": ([e.as_dict() for e in ctrl.engine.events]
                       if ctrl is not None else []),
            "timeline": timeline,
        }


def tail_bounded_throughput(report: ServingReport) -> float:
    """Tail-latency-bounded throughput of one run (req/s).

    The In-Datacenter-TPU metric: a run's throughput only counts in
    full while its p99 latency respects the (tightest per-model) SLO
    bound; past the bound, credit falls back to the SLO-met goodput —
    so saturating a fleet beyond its tail budget cannot inflate the
    headline number.
    """
    if not report.completed:
        return 0.0
    bound_ms = min(report.slo_ms.values()) if report.slo_ms else 0.0
    if report.p99_ms <= bound_ms:
        return report.throughput_rps
    return report.goodput_rps


def validate_fleet_scale_report(payload: Dict[str, Any]) -> List[str]:
    """Structural checks on a fleet-scale report; returns problems."""
    problems: List[str] = []
    if payload.get("schema") != SCALE_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {SCALE_SCHEMA!r}")
    for key in ("devices", "cells", "cell_size"):
        value = payload.get(key)
        if not isinstance(value, int) or value < 1:
            problems.append(f"{key} is {value!r}")
    devices = payload.get("devices")
    cells = payload.get("cells")
    if isinstance(devices, int) and isinstance(cells, int) and cells >= 1:
        if payload.get("cell_size") != devices // cells:
            problems.append("cell_size != devices // cells")
    serving = payload.get("serving")
    if not isinstance(serving, dict):
        problems.append("serving block missing")
    else:
        for key in ("offered", "completed", "rejected", "p99_ms",
                    "throughput_rps", "goodput_rps", "slo_attainment",
                    "makespan_s"):
            if key not in serving:
                problems.append(f"serving.{key} missing")
    sim = payload.get("sim")
    if not isinstance(sim, dict) or not all(
            isinstance(sim.get(k), int) and sim.get(k) >= 0
            for k in ("events", "requests")):
        problems.append(f"sim block malformed: {sim!r}")
    cost = payload.get("cost")
    if not isinstance(cost, dict):
        problems.append("cost block missing")
    else:
        for key in ("price_per_device_hour", "device_seconds", "dollars",
                    "static_device_seconds", "static_dollars",
                    "savings_fraction"):
            if not isinstance(cost.get(key), (int, float)):
                problems.append(f"cost.{key} missing or non-numeric")
        if isinstance(cost.get("device_seconds"), (int, float)) and \
                isinstance(cost.get("static_device_seconds"), (int, float)) \
                and cost["device_seconds"] > cost["static_device_seconds"] \
                + 1e-6:
            problems.append("cost.device_seconds exceeds the static fleet")
    slo = payload.get("slo")
    if not isinstance(slo, dict):
        problems.append("slo block missing")
    else:
        for key in ("good", "bad", "p99_ms", "goodput_rps",
                    "tail_bounded_throughput_rps",
                    "bounded_throughput_per_dollar"):
            if key not in slo:
                problems.append(f"slo.{key} missing")
    events = payload.get("autoscale_events")
    if not isinstance(events, list):
        problems.append("autoscale_events list missing")
        events = []
    last_t = float("-inf")
    for event in events:
        action = event.get("action")
        if action not in AUTOSCALE_ACTIONS:
            problems.append(f"autoscale action {action!r}")
        t_s = event.get("t_s")
        if not isinstance(t_s, (int, float)) or t_s < last_t:
            problems.append(f"autoscale event out of order at {t_s!r}")
        else:
            last_t = t_s
        active = event.get("cells_active")
        if isinstance(cells, int) and (not isinstance(active, int)
                                       or not 0 <= active <= cells):
            problems.append(f"cells_active {active!r} outside [0, {cells}]")
    timeline = payload.get("timeline")
    if not isinstance(timeline, dict):
        problems.append("timeline block missing")
    else:
        lengths = {key: len(timeline.get(key, []))
                   for key in ("t_s", "cells_active", "queue_depth",
                               "burn_long")}
        if len(set(lengths.values())) > 1:
            problems.append(f"timeline series lengths differ: {lengths}")
    return problems


def scale_table(payload: Dict[str, Any]) -> str:
    """Fixed-width summary of a fleet-scale report for the CLI."""
    from ..harness.report import render_table
    serving = payload["serving"]
    cost = payload["cost"]
    slo = payload["slo"]
    rows = [
        ("devices (cells x size)",
         f"{payload['devices']} ({payload['cells']} x "
         f"{payload['cell_size']})"),
        ("routing", payload["routing"]),
        ("autoscale", "on" if payload["autoscale"] else "off"),
        ("events processed", payload["sim"]["events"]),
        ("offered / completed", f"{serving['offered']} / "
                                f"{serving['completed']}"),
        ("p99 latency (ms)", serving["p99_ms"]),
        ("tail-bounded throughput (req/s)",
         slo["tail_bounded_throughput_rps"]),
        ("device-hours", round(cost["device_seconds"] / 3600.0, 4)),
        ("cost ($)", round(cost["dollars"], 4)),
        ("static-fleet cost ($)", round(cost["static_dollars"], 4)),
        ("cost savings", f"{cost['savings_fraction']:.1%}"),
        ("bounded throughput per $",
         round(slo["bounded_throughput_per_dollar"], 3)),
        ("scale events", len(payload["autoscale_events"])),
    ]
    title = (f"fleet scale: {payload['devices']} devices, "
             f"autoscale {'on' if payload['autoscale'] else 'off'}")
    return render_table(("metric", "value"), rows, title=title)


# ---------------------------------------------------------------------------
# Picklable sweep point (serial-vs-jobs determinism harness)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScalePoint:
    """One scaled-fleet run over a diurnal trace; picklable."""

    costs: Any                      # ServiceCosts (frozen)
    models: Tuple[str, ...]
    devices: int
    cells: int
    peak_rps: float
    duration_s: float
    trough_fraction: float = 0.25
    routing: str = "round_robin"
    batch_kind: str = "dynamic"
    autoscale: bool = False
    min_cells: int = 1
    interval_s: float = 0.25
    cooldown_s: float = 1.0
    price_per_device_hour: float = 2.5
    stream: int = 0


def run_scale_point(point: ScalePoint) -> Dict[str, Any]:
    """Run one scaled point (module-level so process pools pickle it).

    Returns the ``repro-fleet-scale-report-v1`` payload — a pure
    function of ``(REPRO_SEED, point)``, so serial and ``--jobs N``
    sweeps are byte-identical.
    """
    from .workload import DiurnalTrace
    config = None
    if point.autoscale:
        config = AutoscaleConfig(
            interval_s=point.interval_s,
            min_cells=point.min_cells,
            cooldown_s=point.cooldown_s,
            price_per_device_hour=point.price_per_device_hour)
    sim = ScaledFleetSimulator(
        point.costs, devices=point.devices, cells=point.cells,
        batch_policy=BatchPolicy(kind=point.batch_kind),
        routing=point.routing, autoscale=config)
    trace = DiurnalTrace(point.models, point.peak_rps, point.duration_s,
                         trough_fraction=point.trough_fraction,
                         stream=point.stream)
    sim.run(trace, rate_rps=point.peak_rps)
    return sim.payload
