"""The serving fleet's event core: interned records, one merged stream.

:class:`ScaledFleetSimulator` (also exported as
:class:`repro.serving.fleet.FleetSimulator`) simulates N replicated
NPU-Tandem devices, each with a FIFO queue, a busy-until clock, a
per-device "compile cache" of resident models and a busy-time
accumulator.  It is built to run 1000+ devices:

* **Interned request records** — a request *is* its slot index into
  typed columns, the run's only request record: an ``array('d')``
  arrival time (8 bytes; a retry rewrites it), a one-byte model index
  and one status byte, plus an ``array('d')`` first-arrival time, an
  ``array('i')`` queue device and a ``tries`` attempt byte under
  resilience; each completion adds 8 bytes to an ``array('d')`` of
  latencies, sorted in place at the end.  Closed-loop follow-ups and
  queue bursts alone append slots; their rid and client go into
  ``rids``/``clients`` side columns.  A
  :class:`~repro.serving.workload.Request` exists only at the workload
  boundary: ``Arrivals.request`` for an arrival row, and the argument
  and return value of ``Workload.on_complete`` (never stored).
* **One merged event stream** — the initial arrivals are already a
  sorted array, so they are consumed through a pointer instead of being
  materialised as heap entries; only *dynamic* events (batch
  completions, batch timers, follow-up and retry arrivals, crashes,
  recoveries, timeouts, re-admissions) touch the heap.  Arrival *i*
  carries implicit sequence number *i* and heap events count up from
  *n*, so time ties break in push order, deterministically.  A
  model's timeouts are armed in deadline order, so they wait in one
  FIFO per model with only its head in the heap.
* **Batched, incremental accounting** — fleet queue depth, batch-size
  and queue-depth statistics are O(1) running aggregates instead of
  per-arrival fleet scans and per-event list appends.
* **Hierarchical cell routing** — devices are grouped into equal
  contiguous *cells*; routing picks a cell (round-robin over active
  cells, or a stable model hash), then a device inside it, so the
  per-arrival cost is O(cell size), not O(fleet).  With ``cells=1``
  routing sees the whole fleet.

Routing policies (chosen at arrival time, deterministically):
``round_robin`` (arrival i goes to device i mod N), ``least_loaded``
(the device whose estimated backlog clears first; estimates use
isolated latencies, so batching only makes them conservative) and
``model_affinity`` (a stable hash of the model name pins each model to
one device, maximising compile-cache hits).  Routing is one rule over
admitted devices, with no fault-free fast path: pick a cell from the
active ones, skipping cells where the circuit breaker has ejected
every device, then an admitted device inside it (one cell is the whole
fleet).  With no admitted device in any active cell, arrivals are shed
at admission instead of queueing against a black hole.

Every batch policy shares one arrival path (admission, routing,
enqueue) and one dispatch site.  Batching is the same-model FIFO
prefix of a device's queue, capped at the policy's batch limit:
``single``/``greedy`` launch it at once, ``dynamic`` holds the head
request up to ``max_wait_ms`` hoping to fill the batch.  The LLM
policies (:mod:`repro.serving.continuous`; one device, one cell) are
two more launch rules there, over each device's engine (decoding slots
and reserved KV tokens): ``continuous`` joins the next request or
decodes one step, ``oneshot`` launches a padded batch.  Their token
counts, footprints and SLOs are per-slot typed columns, and ``run``
returns an :class:`~repro.serving.metrics.LLMServingReport`.

Faults and responses are optional layers on the same loop.  A
:class:`~repro.faults.plan.FaultPlan` decides what goes wrong (device
crashes and recoveries, slowdowns, queue bursts, flaky first-touch
compiles, corrupt program downloads, tile faults), and the
:class:`~repro.serving.scheduler.ResiliencePolicy` decides how the
fleet responds: per-attempt timeouts with retry, exponential backoff
and a retry budget, tile-granularity re-execution, verified downloads,
and eject/re-admit health tracking.  ``naive`` keeps every mechanism
off.  A :class:`~repro.serving.monitor.MonitorConfig` attaches a
:class:`~repro.serving.monitor.FleetMonitor` (observational: the report
is byte-identical with it on or off), ``collect_trace`` keeps the
request-lifecycle log for the Chrome-trace exporter, and an
:class:`~repro.serving.autoscale.AutoscaleConfig` activates cells on
SLO burn-rate and queue-depth signals and drains them in quiet
troughs.  Every combination is accepted.  Each run leaves a
``repro-fleet-scale-report-v1`` payload (decision log, cell timeline,
$/device-hour cost accounting; :func:`validate_fleet_scale_report`
checks its shape) on :attr:`ScaledFleetSimulator.payload`.

Everything is deterministic: no wall clock or unseeded RNG is
consulted, so the same workload and plan always produce byte-identical
reports (pinned against golden fixtures by
``tests/test_fleet_golden.py``).
"""

from __future__ import annotations

import heapq
import zlib
from array import array
from collections import deque
from dataclasses import dataclass
from operator import add
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..runtime import knobs
from ..schema import check, passed
from ..telemetry import get_telemetry
from ..telemetry.timeseries import percentile
from .autoscale import AUTOSCALE_ACTIONS, AutoscaleConfig, AutoscaleController
from .metrics import (
    DEFAULT_MIN_SLO_S,
    DEFAULT_SLO_MULTIPLIER,
    LLMServingReport,
    ServingReport,
)
from .scheduler import (
    COOLDOWN_GROWTH,
    LLM_SCHEDULERS,
    RETRY_BACKOFF_S,
    ROUTING_POLICIES,
    TIMEOUT_SLO_MULTIPLE,
    AdmissionPolicy,
    BatchPolicy,
    ResiliencePolicy,
    ServiceCosts,
)
from .workload import Arrivals, Request, Workload

SCALE_SCHEMA = "repro-fleet-scale-report-v1"

#: Request status bytes (slot-indexed; 0 = not yet arrived).
_QUEUED, _FLIGHT, _DONE, _REJECTED, _FAILED, _RETRYING = 1, 2, 3, 4, 5, 6

#: Event kinds.  Arrival kinds sort first so one comparison finds them.
(_ARRIVAL, _RETRY, _TIMER, _FREE, _CRASH, _RECOVER, _TIMEOUT,
 _READMIT, _PHASE) = range(9)

#: Cell states under autoscaling.
_PARKED, _ACTIVE, _DRAINING = 0, 1, 2

_EPS = 1e-9
#: ``busy_until`` of a crashed device: it never looks free to dispatch.
_DOWN = float("inf")


def _model_column(arrivals: Arrivals, midx: Dict[str, int]) -> array:
    """The cost index of every arrival row, as one typed array.

    The names table is mapped once and the picks translated through it
    in one numpy gather; a name missing from ``midx`` raises only if a
    row picks it.
    """
    names, picks = arrivals.names, arrivals.picks
    if any(name not in midx for name in names):
        for p in picks:
            if names[p] not in midx:
                raise ValueError(f"workload model {names[p]!r} "
                                 f"not in ServiceCosts")
    column = array("B" if len(midx) <= 256 else "l")
    table = np.array([midx.get(name, 0) for name in names],
                     dtype=column.typecode)
    column.frombytes(
        table[np.frombuffer(picks, dtype=picks.typecode)].tobytes())
    return column


class ScaledFleetSimulator:
    """N devices in C cells under the interned-record event core.

    ``cells`` groups devices for hierarchical routing (must divide
    ``devices``); ``autoscale`` is an
    :class:`~repro.serving.autoscale.AutoscaleConfig` (needs
    ``cells >= 2``) or ``None`` for a static fleet.  ``fault_plan``,
    ``resilience``, ``monitor_config`` and ``collect_trace`` are
    described in the module docstring.  After :meth:`run`,
    :attr:`report` holds the report it returned, :attr:`payload` the
    ``repro-fleet-scale-report-v1`` dictionary (``None`` after an LLM
    run), :attr:`monitor_payload` the monitor's
    ``repro-monitor-report-v1`` payload (``None`` when unmonitored) and
    :attr:`trace_log` the lifecycle log (empty unless traced).
    """

    def __init__(self, costs: ServiceCosts, devices: int = 1,
                 cells: int = 1,
                 batch_policy: Optional[BatchPolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 routing: str = "least_loaded",
                 slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
                 require_verified: bool = True,
                 autoscale: Optional[AutoscaleConfig] = None,
                 collect_trace: bool = False,
                 fault_plan=None,
                 resilience: Optional[ResiliencePolicy] = None,
                 monitor_config=None):
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
        if self.policy.kind in LLM_SCHEDULERS and (
                devices > 1 or autoscale or fault_plan is not None
                or (resilience and resilience.active)):
            raise ValueError(f"the {self.policy.kind!r} LLM batch policy "
                             f"runs on one device with no fault plan, "
                             f"resilience or autoscaling")
        self.admission = admission or AdmissionPolicy()
        self.routing = routing
        self.slo_multiplier = slo_multiplier
        #: Admission control refuses models whose cached static
        #: verification record is missing or dirty — a program the
        #: verifier never blessed must not reach a device.
        self.require_verified = require_verified
        self.autoscale = autoscale
        self.collect_trace = collect_trace
        self.fault_plan = fault_plan
        self.resilience = resilience or ResiliencePolicy.naive()
        self.monitor_config = monitor_config
        self.report = None
        #: ``repro-fleet-scale-report-v1`` payload of the last run.
        self.payload: Optional[Dict[str, Any]] = None
        self.monitor_payload: Optional[Dict[str, Any]] = None
        #: Request-lifecycle log (simulated time only, so deterministic).
        self.trace_log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def run(self, workload: Workload, rate_rps: float = 0.0
            ) -> ServingReport:
        """Simulate the workload; return its :class:`ServingReport`.

        The hot loop is deliberately monolithic: device state lives in
        flat parallel lists, every per-event step is a handful of list
        index operations, and a request is its slot in typed columns
        (a retry rewrites its arrival time and bumps its ``tries``
        byte); what a completed one keeps is 8 bytes of latency in an
        ``array('d')``; the completion event is amortised 1/batch.
        Routing, batch completion and the first-touch compile are each
        written once, for faulted and fault-free runs alike; every
        policy, LLM ones too, takes one arrival path and dispatch site
        (an LLM run returns an :class:`LLMServingReport`); fault draws,
        the monitor and the trace sit behind local tests.
        """
        costs = self.costs
        policy = self.policy
        llm = policy.kind in LLM_SCHEDULERS
        if llm:
            # LLM costs are per request (token counts); the per-model
            # tables hold one entry, for the model no LLM request names.
            models: Tuple[str, ...] = ("",)
            lat = comp = fixed = var = slo = [0.0]
            verified, crc, tiles = [True], [0], [1]
        else:
            models = costs.models()
            lat = [costs.latency_s(m) for m in models]
            comp = [costs.compile_s(m) for m in models]
            verified = [costs.is_verified(m) for m in models]
            crc = [zlib.crc32(m.encode("utf-8")) for m in models]
            # batch_service_s(model, b) == fixed + (latency - fixed) * b;
            # precomputing the two terms keeps the same float operations.
            fixed = [costs.amortized_fraction * v for v in lat]
            var = [v - f for v, f in zip(lat, fixed)]
            slo = [max(DEFAULT_MIN_SLO_S, self.slo_multiplier * v)
                   for v in lat]
            tiles = [costs.tiles(m) for m in models]
        midx = {m: i for i, m in enumerate(models)}

        ndev = self.devices
        ncell = self.cells
        csize = ndev // ncell
        limit = policy.effective_max_batch
        launch_now = policy.kind in ("single", "greedy")
        wait_s = policy.max_wait_ms * 1e-3
        max_queue = self.admission.max_queue
        require_verified = self.require_verified
        routing = self.routing
        route_rr = routing == "round_robin"
        route_ll = routing == "least_loaded"
        route_ma = routing == "model_affinity"

        # -- device state: flat parallel lists -------------------------
        dq: List[List[int]] = [[] for _ in range(ndev)]
        qlen = [0] * ndev
        busy_until = [0.0] * ndev
        busy_acc = [0.0] * ndev
        timer_at: List[Optional[float]] = [None] * ndev
        backlog = [0.0] * ndev
        compiled: List[set] = [set() for _ in range(ndev)]

        # -- interned request records ----------------------------------
        arrivals = workload.arrivals()
        arr_t = array("d", arrivals.times)
        n0 = len(arr_t)
        arr_m = _model_column(arrivals, midx)
        status = bytearray(n0)
        # Rid and client of appended slots (follow-ups, queue bursts),
        # at s - n0; an arrival row's come from ``arrivals.request``.
        rids = array("q")
        clients = array("i")
        has_follow = type(workload).on_complete is not Workload.on_complete

        # -- fault surface: what goes wrong, and how the fleet responds -
        res = self.resilience
        resilient = res.active
        breaker = resilient and res.eject_threshold > 0
        plan = self.fault_plan
        inj = None
        if plan is not None and not plan.quiet:
            from ..faults import FaultInjector
            horizon = workload.duration_s or (arr_t[-1] if n0 else 1.0)
            inj = FaultInjector(plan, ndev, horizon)
        guarded = resilient or inj is not None
        # A retry re-arrives with a new arrival time (its batching
        # deadline) but keeps its first arrival for latency.
        born = array("d", arr_t) if resilient else arr_t
        tmo = [TIMEOUT_SLO_MULTIPLE * v + wait_s for v in slo]
        healthy = [True] * ndev
        admitted = [True] * ndev
        cell_admitted = [csize] * ncell
        n_ejected = 0
        failures = [0] * ndev       # consecutive failures (breaker input)
        ejects = [0] * ndev         # consecutive ejects (cooldown growth)
        launches = [0] * ndev       # batch launches (fault-draw label)
        bad_models: List[set] = [set() for _ in range(ndev)]  # corrupt
        inflight: List[Optional[list]] = [None] * ndev
        stale: Dict[int, list] = {}  # batches a crash cut short
        # slot -> device it last queued on, and retries so far (both
        # read by its timeout).
        loc = array("i", bytes(4 * n0)) if resilient else None
        tries = bytearray(n0) if resilient else None
        # Per model, its armed timeouts in deadline order (head in heap).
        armed = [deque() for _ in models] if resilient else None
        compile_tries: Dict[Tuple[int, str], int] = {}
        faults: Dict[str, int] = {}
        tally = dict.fromkeys(("retries", "timeouts", "compile_retries",
                               "devices_ejected", "devices_readmitted"), 0)

        # -- running aggregates ----------------------------------------
        offered = rejected = verify_rejected = failed = bad_done = 0
        queue_sum = queue_n = queue_max = 0
        batches_sum = batches_n = compiles = 0
        # Full launches and compile-lost batches (launch-trigger mix).
        full_launches = lost_batches = 0
        slo_met = 0
        # Heap pushes no other aggregate counts (serving.events.*).
        timers = timeouts_armed = timeouts_skipped = recovers = 0
        latencies = array("d")
        last_finish = 0.0
        queued_total = 0

        # -- routing state ---------------------------------------------
        next_cell = 0                # rr/least_loaded active-cell pointer
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
        next_auto = interval if auto_on else float("inf")
        tl_t: List[float] = []
        tl_cells: List[int] = []
        tl_queue: List[int] = []
        tl_burn: List[float] = []
        burn_rule = auto.rules[0].name if auto_on else None

        # -- monitor + trace -------------------------------------------
        mon = None
        if self.monitor_config is not None:
            from .monitor import FleetMonitor
            mon = FleetMonitor(self.monitor_config, ndev,
                               kind="llm" if llm else "fleet")
        self.monitor_payload = None
        tracing = self.collect_trace
        trace_log: List[Dict[str, Any]] = []
        self.trace_log = trace_log

        def log(kind: str, t_s: float, **extra) -> None:
            trace_log.append({"kind": kind, "t_s": t_s, **extra})

        def mon_state() -> Dict[str, int]:
            """The rate totals and gauge levels the monitor reads."""
            state = {"rate.arrivals": offered, "rate.rejections": rejected,
                     "rate.completions": len(latencies)}
            if not llm:
                short = policy.kind if launch_now else "deadline"
                state.update({
                    "rate.timeouts": tally["timeouts"],
                    "rate.retries": tally["retries"],
                    "rate.batches": batches_n,
                    "rate.launch.full": full_launches,
                    f"rate.launch.{short}":
                        batches_n + lost_batches - full_launches,
                    "queue.depth": queued_total,
                    "devices.down": healthy.count(False),
                    "devices.ejected": n_ejected})
            return state

        def note_fault(kind: str, count: int = 1) -> None:
            faults[kind] = faults.get(kind, 0) + count

        heap: List[tuple] = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = n0
        ai = 0

        def rid_client(s: int) -> Tuple[int, int]:
            """The workload's rid and client of slot ``s``."""
            if s < n0:
                req = arrivals.request(s)
                return req.rid, req.client
            return rids[s - n0], clients[s - n0]

        def intern(t_s: float, m: int, rid: int, client: int) -> None:
            """A new slot, arriving at ``t_s``, not in ``arrivals``."""
            nonlocal seq
            push(heap, (t_s, seq, _ARRIVAL, len(arr_t), None))
            seq += 1
            arr_t.append(t_s)
            arr_m.append(m)
            status.append(0)
            rids.append(rid)
            clients.append(client)
            if resilient:
                born.append(t_s)
                loc.append(0)
                tries.append(0)

        def follow_up(s: int, now: float, shed: bool = False) -> None:
            """Closed-loop feedback: the next request enters as a slot
            (slot ``s`` is handed over built from its columns).  After a
            ``shed``, one due at once waits for the next re-admission:
            it would be shed again at the same instant, without end."""
            rid, client = rid_client(s)
            nxt = workload.on_complete(
                Request(rid, models[arr_m[s]], arr_t[s], client), now)
            if nxt is None:
                return
            m = midx.get(nxt.model)
            if m is None:
                raise ValueError(f"workload model {nxt.model!r} "
                                 f"not in ServiceCosts")
            at = nxt.arrival_s
            if shed and at <= now:
                at = min(e[0] for e in heap if e[2] == _READMIT)
            intern(at, m, nxt.rid, nxt.client)

        def reject(s: int, now: float, why: str) -> None:
            """Shed slot ``s`` at admission (``why`` names the gate)."""
            nonlocal rejected, bad_pending
            rejected += 1
            status[s] = _REJECTED
            if auto_on:
                bad_pending += 1
            if tracing:
                log(why, now, **({"rid": rid_client(s)[0]} if llm
                                 else {"model": models[arr_m[s]]}))
            if mon is not None:
                mon.note_reject(s)
            if has_follow:
                follow_up(s, now, why == "shed")

        def first_touch(dev: int, m: int, now: float) -> Optional[float]:
            """Compile + download time of a faulted first touch.

            ``None`` means the launch fails.  The compile may flake
            (retried in place when resilient, fatal to the batch when
            naive) and the downloaded program may arrive corrupted
            (caught by the static verifier and re-compiled when
            resilient; silently resident, poisoning every completion,
            when not).
            """
            model = models[m]
            compile_s = comp[m]
            spent = compile_s
            key = (dev, model)
            attempt = compile_tries.get(key, 0)
            while inj.flaky_compile(dev, model, attempt):
                note_fault("flaky_compile")
                attempt += 1
                compile_tries[key] = attempt
                if not resilient or attempt > res.max_retries:
                    if tracing:
                        log("compile-fail", now, device=dev, model=model)
                    return None
                tally["compile_retries"] += 1
                if tracing:
                    log("compile-retry", now, device=dev, model=model)
                spent += compile_s
            compile_tries[key] = attempt + 1
            download = attempt
            while inj.corrupt_download(dev, model, download):
                note_fault("corrupt_program")
                if not resilient or \
                        not inj.corruption_detected(dev, model, download):
                    bad_models[dev].add(m)
                    if tracing:
                        log("corrupt-undetected", now, device=dev,
                            model=model)
                    break
                note_fault("corrupt_detected")
                if tracing:
                    log("corrupt-detected", now, device=dev, model=model)
                download += 1
                if download - attempt > res.max_retries:
                    if tracing:
                        log("compile-fail", now, device=dev, model=model)
                    return None
                spent += compile_s   # re-compile + re-download
            return spent

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
            nonlocal good_pending, bad_pending, boundary, next_auto
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
            # costing money) at this boundary.  A crashed device with
            # an empty queue is idle.
            for c in range(ncell):
                if cell_state[c] != _DRAINING:
                    continue
                base = c * csize
                idle = True
                for d in range(base, base + csize):
                    if qlen[d] or (busy_until[d] > t_b and healthy[d]):
                        idle = False
                        break
                if idle:
                    cell_state[c] = _PARKED
                    cost_windows[c][-1][1] = t_b
                    ctrl.record(t_b, "park", "drained", c,
                                len(active_list))
            tl_t.append(t_b)
            tl_cells.append(len(active_list))
            tl_queue.append(queued_total)
            tl_burn.append(ctrl.engine.burn_rates(burn_rule)[0])
            boundary += 1
            next_auto = (boundary + 1) * interval

        # -- LLM batch policies: per-device engines, per-slot columns ---
        note_arrival = mon.note_arrival if mon is not None else None
        if llm:
            # The KV budget, not a queue limit, bounds LLM admission.
            max_queue = float("inf")
            budget = costs.kv_budget_tokens
            rows = arrivals.requests
            prompt = array("I", (r.prompt_tokens for r in rows))
            out_tok = array("I", (r.output_tokens for r in rows))
            foot = array("I", map(add, prompt, out_tok))
            req_slo = array("d", map(costs.slo_s, rows))
            emitted = array("I", bytes(4 * n0))
            last_tok = array("d", born)   # the arrival, then each token
            active: List[List[int]] = [[] for _ in range(ndev)]
            kv = [0] * ndev
            ttfts, itls = array("d"), array("d")
            kv_peak = tokens = 0
            if mon is not None:
                # A request's deadline adds its own SLO (the model's is 0).
                def note_arrival(s, due, arm=mon.note_arrival):
                    arm(s, due + req_slo[s])

        def llm_done(s: int, now: float) -> None:
            nonlocal slo_met, tokens
            status[s] = _DONE
            lt = now - born[s]
            latencies.append(lt * 1e3)
            if lt <= req_slo[s]:
                slo_met += 1
            tokens += out_tok[s]
            if mon is not None:
                mon.note_complete(s, now)
            if tracing:
                log("complete", now, rid=rid_client(s)[0])

        def join_or_step(dev: int, now: float, q: List[int]):
            """Continuous: the next FIFO joiner's prefill while a slot is
            free and its KV footprint fits, else one decode step, as
            ``(finish, phase)``; ``None`` with nothing to run."""
            nonlocal kv_peak, batches_sum, batches_n
            slots = active[dev]
            while q and len(slots) < limit:
                s = q[0]
                if foot[s] > budget:     # can never run
                    del q[0]
                    reject(s, now, "reject")
                    continue
                if kv[dev] + foot[s] > budget:
                    break                # head-of-line waits for KV space
                del q[0]
                kv[dev] += foot[s]
                finish = now + costs.prefill_s(prompt[s])
                if tracing:
                    trace_log.append({
                        "kind": "prefill", "rid": rid_client(s)[0],
                        "start_s": now, "finish_s": finish,
                        "slot": len(slots), "tokens": prompt[s]})
                return finish, s
            if not slots:
                return None
            batch = len(slots)
            batches_sum += batch
            batches_n += 1
            kv_peak = max(kv_peak, kv[dev])
            finish = now + costs.batched_s(costs.decode_step_s, batch)
            if tracing:
                trace_log.append({
                    "kind": "step", "start_s": now, "finish_s": finish,
                    "batch": batch, "rids": [rid_client(a)[0] for a in slots]})
            if mon is not None:
                mon.note_state(batch, kv[dev], len(q))
            return finish, None

        def launch_padded(dev: int, now: float, q: List[int]):
            """One-shot: hold the head ``max_wait``, then the queued
            requests that fit the budget at the padded footprint, as
            ``(finish, phase)``; ``None`` while holding or empty."""
            nonlocal kv_peak, seq, batches_sum, batches_n
            while q and foot[q[0]] > budget:     # can never run
                reject(q.pop(0), now, "reject")
            if not q:
                return None
            start = born[q[0]] + wait_s
            if now < start:
                t = timer_at[dev]
                if t is None or t > start:
                    timer_at[dev] = start
                    push(heap, (start, seq, _TIMER, dev, None))
                    seq += 1
                return None
            members: List[int] = []
            max_p = max_o = scan = 0
            while scan < len(q) and len(members) < limit:
                c = q[scan]
                if foot[c] > budget:
                    scan += 1
                    reject(c, now, "reject")
                    continue
                padded_p = max(max_p, prompt[c])
                padded_o = max(max_o, out_tok[c])
                if members and (len(members) + 1) * (
                        padded_p + padded_o) > budget:
                    break
                members.append(c)
                max_p, max_o = padded_p, padded_o
                scan += 1
            del q[:scan]
            batch = len(members)
            batches_sum += batch
            batches_n += 1
            padded = batch * (max_p + max_o)
            kv_peak = max(kv_peak, padded)
            prefill = costs.prefill_s(max_p, batch)
            step = costs.batched_s(costs.decode_step_s, batch)
            finish = now + prefill + max_o * step
            if mon is not None:
                mon.note_state(batch, padded, len(q))
            if tracing:
                trace_log.append({
                    "kind": "prefill", "rid": rid_client(members[0])[0],
                    "start_s": now, "finish_s": now + prefill, "slot": 0,
                    "tokens": max_p, "batch": batch})
                trace_log.append({
                    "kind": "step", "start_s": now + prefill,
                    "finish_s": finish, "batch": batch,
                    "rids": [rid_client(m)[0] for m in members]})
            return finish, (members, now + prefill + step, step)

        launch_rule = ((launch_padded if policy.kind == "oneshot"
                        else join_or_step) if llm else None)

        if inj is not None:
            # Scheduled faults take the first heap sequence numbers.
            for t_s, d in inj.crashes:
                push(heap, (t_s, seq, _CRASH, d, None))
                seq += 1
            if inj.slowdowns:
                note_fault("device_slowdown", len(inj.slowdowns))
            rid = -1    # workload rids count up from 0: no collisions
            for t_s in inj.bursts:
                note_fault("queue_burst")
                if tracing:
                    log("queue-burst", t_s, size=plan.burst.size)
                for i in range(plan.burst.size):
                    intern(t_s, i % len(models), rid, -1)
                    rid -= 1
        # The earliest monitor or autoscale boundary.
        next_mon = mon.advance(0.0) if mon is not None else float("inf")
        next_b = min(next_mon, next_auto)
        mon_columns = ({"latency": latencies, "ttft": ttfts, "itl": itls}
                       if llm else {"latency": latencies})
        # The hot loop's constants as locals (a local load is cheaper).
        ARRIVAL, RETRY, TIMER, FREE = _ARRIVAL, _RETRY, _TIMER, _FREE
        QUEUED, FLIGHT, DONE, EPS = _QUEUED, _FLIGHT, _DONE, _EPS
        lat_append = latencies.append

        # ------------------------------------------------------------------
        # The merged event loop: sorted-arrival pointer vs dynamic heap.
        # ------------------------------------------------------------------
        while True:
            if ai < n0 and (not heap or arr_t[ai] <= heap[0][0]):
                now = arr_t[ai]
                kind = ARRIVAL
                s = ai
                ai += 1
            elif heap:
                now, _, kind, s, batch = pop(heap)
            else:
                break
            if now + EPS >= next_b:
                # Close boundaries BEFORE applying the event, so each
                # samples the state as time passed it.
                if now + EPS >= next_mon:
                    next_mon = mon.advance(now, mon_columns, mon_state())
                while next_auto <= now + EPS:
                    close_boundary(next_auto)
                next_b = next_mon if next_mon < next_auto else next_auto
            if kind <= RETRY:
                # ---- arrival of slot s (a first attempt or a retry) ---
                m = arr_m[s]
                if kind == ARRIVAL:
                    offered += 1
                    qt = queued_total
                    queue_sum += qt
                    queue_n += 1
                    if qt > queue_max:
                        queue_max = qt
                    if mon is not None:
                        note_arrival(s, now + slo[m])
                if require_verified and not verified[m]:
                    verify_rejected += 1
                    reject(s, now, "verify-reject")
                    continue
                # One rule: a cell from the active ones, skipping cells
                # with no admitted device, then an admitted device in it.
                nc = len(active_list)
                k = crc[m] if route_ma else next_cell
                ci = active_list[k % nc]
                if not cell_admitted[ci]:
                    for k in range(k + 1, k + nc):
                        ci = active_list[k % nc]
                        if cell_admitted[ci]:
                            break
                    else:
                        # Nothing admitted: shed instead of queueing
                        # against a black hole (graceful degradation).
                        reject(s, now, "shed")
                        continue
                base = ci * csize
                if route_ll:
                    next_cell = k + 1
                    # ``admitted[d]`` is read last, only for a device
                    # that would win: a test per device slows the day.
                    dev = base
                    while not admitted[dev]:
                        dev += 1
                    bb = backlog[dev]
                    bq = qlen[dev]
                    for d in range(dev + 1, base + csize):
                        v = backlog[d]
                        if (v < bb or (v == bb and qlen[d] < bq)) \
                                and admitted[d]:
                            dev = d
                            bb = v
                            bq = qlen[d]
                else:
                    o = rr_in[ci] if route_rr else crc[m] % csize
                    while not admitted[base + o]:
                        o = o + 1 if o + 1 < csize else 0
                    dev = base + o
                    if route_rr:
                        next_cell = k + 1
                        o += 1
                        rr_in[ci] = 0 if o == csize else o
                b = backlog[dev]
                backlog[dev] = (b if b > now else now) + lat[m]
                if qlen[dev] >= max_queue:
                    reject(s, now, "queue-reject")
                    continue
                status[s] = QUEUED
                q = dq[dev]
                q.append(s)
                qlen[dev] += 1
                queued_total += 1
                if resilient:
                    loc[s] = dev
                    entry = (now + tmo[m], seq, _TIMEOUT, s, tries[s])
                    if not armed[m]:
                        push(heap, entry)
                    armed[m].append(entry)
                    seq += 1
                    timeouts_armed += 1
            elif kind == TIMER:
                timer_at[s] = None
                dev = s
                q = dq[s]
            elif kind == FREE:
                # ---- batch completion on device s --------------------
                if stale and stale.pop(id(batch), None) is not None:
                    continue   # the device crashed mid-batch
                if now > last_finish:
                    last_finish = now
                hm = arr_m[batch[0]]   # a batch is one model
                bound = slo[hm]
                bad = False
                if guarded:
                    failures[s] = ejects[s] = 0
                    bad = hm in bad_models[s]
                    if bad:
                        # A corrupted resident program: the work counts
                        # as completed, never as good (no latency meets
                        # a negative bound).
                        bad_done += len(batch)
                        bound = -1.0
                for r in batch:
                    status[r] = DONE
                    lt = now - born[r]
                    lat_append(lt * 1e3)
                    if lt <= bound:
                        slo_met += 1
                        if auto_on:
                            good_pending += 1
                    elif auto_on:
                        bad_pending += 1
                    if has_follow:
                        follow_up(r, now)
                if mon is not None:
                    for r in batch:
                        mon.note_complete(r, now, bad)
                dev = s
                q = dq[s]
            elif kind == _PHASE:
                # ---- an LLM phase ends on device s: a prefill (slot id),
                # decode step (None) or padded batch (members, t1, step)
                if now > last_finish:
                    last_finish = now
                slots = active[s]
                if type(batch) is int:
                    slots.append(batch)
                elif batch is None:
                    if mon is not None:
                        mon.note_tokens(len(slots))
                    still: List[int] = []
                    for r in slots:
                        gap = now - last_tok[r]
                        (itls if emitted[r] else ttfts).append(gap * 1e3)
                        emitted[r] += 1
                        last_tok[r] = now
                        if emitted[r] >= out_tok[r]:
                            kv[s] -= foot[r]
                            llm_done(r, now)
                        else:
                            still.append(r)
                    slots[:] = still
                else:
                    members, first_s, step = batch
                    if mon is not None:
                        mon.note_tokens(sum(out_tok[r] for r in members))
                    for r in members:
                        ttfts.append((first_s - born[r]) * 1e3)
                        itls.extend([step * 1e3] * (out_tok[r] - 1))
                        llm_done(r, now)
                dev = s
                q = dq[s]
            elif kind == _TIMEOUT:
                # ---- per-attempt timeout of slot s -------------------
                # Slot s heads its model's FIFO: drop the dead entries
                # behind it and push the next head.  The last entry stays
                # even when dead: popping it as a no-op keeps the run's
                # last event, and the monitor's last interval, in place.
                fifo = armed[arr_m[s]]
                fifo.popleft()
                while len(fifo) > 1:
                    _, _, _, r, a = fifo[0]
                    st = status[r]
                    if tries[r] == a and (st == QUEUED or st == FLIGHT):
                        break
                    fifo.popleft()
                    timeouts_skipped += 1
                if fifo:
                    push(heap, fifo[0])
                attempt = batch
                st = status[s]
                if tries[s] != attempt or (st != QUEUED and st != FLIGHT):
                    continue   # a newer attempt owns it, or it is over
                dev = loc[s]
                tally["timeouts"] += 1
                if tracing:
                    model, rid = models[arr_m[s]], rid_client(s)[0]
                    log("timeout", now, device=dev, model=model, rid=rid)
                if breaker:
                    failures[dev] += 1
                    if admitted[dev] and \
                            failures[dev] >= res.eject_threshold:
                        admitted[dev] = False
                        n_ejected += 1
                        cell_admitted[dev // csize] -= 1
                        ejects[dev] += 1
                        tally["devices_ejected"] += 1
                        cooldown_s = res.cooldown_s * (
                            COOLDOWN_GROWTH ** (ejects[dev] - 1))
                        if tracing:
                            log("eject", now, device=dev,
                                cooldown_s=cooldown_s)
                        push(heap, (now + cooldown_s, seq, _READMIT, dev,
                                    None))
                        seq += 1
                if st == FLIGHT and healthy[dev]:
                    # Still executing on a live device: it will finish,
                    # and retrying now would complete it twice.  The
                    # timeout only fed the health tracker.
                    continue
                if st == QUEUED:
                    dq[dev].remove(s)
                    qlen[dev] -= 1
                    queued_total -= 1
                tries[s] = attempt + 1
                if attempt >= res.max_retries or tally["retries"] >= int(
                        res.retry_budget_fraction * offered):
                    status[s] = _FAILED
                    failed += 1
                    if auto_on:
                        bad_pending += 1
                    if tracing:
                        log("retry-exhausted", now, model=model, rid=rid)
                    continue
                tally["retries"] += 1
                backoff_s = RETRY_BACKOFF_S * (2 ** attempt)
                at = now + backoff_s
                status[s] = _RETRYING
                arr_t[s] = at
                if tracing:
                    log("retry", now, model=model, rid=rid,
                        attempt=attempt + 1, backoff_s=backoff_s)
                push(heap, (at, seq, RETRY, s, None))
                seq += 1
                continue
            elif kind == _CRASH:
                if not healthy[s]:
                    continue   # overlapping crash on a dead device
                note_fault("device_crash")
                if tracing:
                    log("crash", now, device=s)
                if mon is not None:
                    mon.note_crash(s, now)
                healthy[s] = False
                # The last batch launched here is cut short unless its
                # completion already popped (its requests are DONE).
                cut = inflight[s]
                inflight[s] = None
                if cut is not None and status[cut[0]] == FLIGHT:
                    stale[id(cut)] = cut
                if busy_until[s] > now:
                    # Refund the un-served remainder of the batch.
                    busy_acc[s] -= busy_until[s] - now
                busy_until[s] = _DOWN
                end_s = inj.outage_end(now)
                if end_s is not None:
                    push(heap, (end_s, seq, _RECOVER, s, None))
                    seq += 1
                    recovers += 1
                continue
            elif kind == _RECOVER:
                if healthy[s]:
                    continue
                healthy[s] = True
                busy_until[s] = now
                if tracing:
                    log("recover", now, device=s)
                dev = s
                q = dq[s]
            else:  # _READMIT
                if not admitted[s]:
                    admitted[s] = True
                    n_ejected -= 1
                    cell_admitted[s // csize] += 1
                    failures[s] = 0
                    tally["devices_readmitted"] += 1
                    if tracing:
                        log("readmit", now, device=s)
                continue

            # ---- the one dispatch site: may device ``dev`` (queue ``q``)
            # launch?
            if launch_rule is not None:
                # An LLM policy's launch rule runs the device's engine;
                # the queue lengths follow the requests it took or shed.
                launched = busy_until[dev] <= now and launch_rule(dev, now, q)
                if launched:
                    finish, phase = launched
                    busy_until[dev] = finish
                    push(heap, (finish, seq, _PHASE, dev, phase))
                    seq += 1
                queued_total -= qlen[dev] - len(q)
                qlen[dev] = len(q)
                continue
            while q and busy_until[dev] <= now:
                head = q[0]
                hm = arr_m[head]
                n = 1
                lq = qlen[dev]
                top = limit if limit < lq else lq
                while n < top and arr_m[q[n]] == hm:
                    n += 1
                if n < limit and not launch_now:
                    # Dynamic batching holds a short batch until the
                    # head request's deadline.
                    deadline = arr_t[head] + wait_s
                    if now < deadline:
                        t = timer_at[dev]
                        if t is None or t > deadline:
                            timer_at[dev] = deadline
                            push(heap, (deadline, seq, TIMER, dev, None))
                            seq += 1
                            timers += 1
                        break
                batch = q[:n]
                del q[:n]
                qlen[dev] = lq - n
                queued_total -= n
                if n >= limit:
                    full_launches += 1
                service = fixed[hm] + var[hm] * n
                if inj is not None:
                    launches[dev] += 1
                    service *= inj.slow_factor(dev, now)
                    base_s = service
                resident = compiled[dev]
                first = hm not in resident
                if first:
                    touch_s = (comp[hm] if inj is None
                               else first_touch(dev, hm, now))
                    if touch_s is None:
                        # The compile never succeeded: batch lost.
                        for r in batch:
                            status[r] = _FAILED
                        failed += n
                        lost_batches += 1
                        if auto_on:
                            bad_pending += n
                        continue
                    service += touch_s
                    resident.add(hm)
                    compiles += 1
                if inj is not None:
                    if inj.tile_fault(dev, models[hm], launches[dev]):
                        note_fault("tile_fault")
                        faulted = min(plan.tile_fault.tiles, tiles[hm])
                        if resilient:
                            # Tile-granularity re-execution: only the
                            # faulted tiles re-run (the paper's Fig. 10
                            # unit of in-tandem work).
                            penalty_s = base_s * faulted / tiles[hm]
                        else:
                            penalty_s = base_s   # the whole batch re-runs
                        service += penalty_s
                        if tracing:
                            log("tile-fault", now, device=dev,
                                model=models[hm], tiles=faulted,
                                penalty_s=penalty_s)
                    inflight[dev] = batch
                finish = now + service
                busy_until[dev] = finish
                busy_acc[dev] += service
                batches_sum += n
                batches_n += 1
                if mon is not None:
                    mon.note_launch(dev, now, finish)
                if tracing:
                    log("batch", now, device=dev, model=models[hm],
                        batch=n, start_s=now, finish_s=finish,
                        compile=first)
                if n == 1:
                    status[head] = FLIGHT
                else:
                    for x in batch:
                        status[x] = FLIGHT
                push(heap, (finish, seq, FREE, dev, batch))
                seq += 1
                break

        # Requests still queued or in flight when the stream drains
        # never completed (stuck on a dead device with no retry).
        failed += status.count(_QUEUED) + status.count(_FLIGHT)
        makespan = max(last_finish, workload.duration_s)
        horizon = makespan if makespan > 0 else 1.0
        if mon is not None:
            # The monitor reads the columns in event order: it finishes
            # before the sorts.
            mon.finish(makespan, mon_columns, mon_state())
            context = ({"config": costs.config, "scheduler": policy.kind}
                       if llm else
                       {"models": list(models), "devices": ndev,
                        "routing": routing, "batch_policy": policy.kind,
                        "resilience": res.kind,
                        "fault_plan": plan.name if plan is not None else None})
            self.monitor_payload = mon.payload(context={
                **context, "rate_rps": rate_rps,
                "duration_s": workload.duration_s})
        np.frombuffer(latencies).sort()   # in place, no boxed copy
        completed = len(latencies)
        # The outcome fields ServingReport and LLMServingReport share.
        shared = dict(
            rate_rps=rate_rps, duration_s=workload.duration_s,
            offered=offered, completed=completed, rejected=rejected,
            makespan_s=makespan, throughput_rps=completed / horizon,
            goodput_rps=slo_met / horizon,
            mean_latency_ms=(sum(latencies) / completed
                             if completed else 0.0),
            p50_ms=percentile(latencies, 50),
            p95_ms=percentile(latencies, 95),
            p99_ms=percentile(latencies, 99),
            mean_batch_size=(batches_sum / batches_n
                             if batches_n else 0.0),
            slo_attainment=(slo_met / offered if offered else 0.0))
        if llm:
            self.payload = None
            np.frombuffer(ttfts).sort()
            np.frombuffer(itls).sort()
            self.report = LLMServingReport(
                scheduler=policy.kind, config=costs.config,
                max_slots=limit, kv_budget_tokens=budget,
                slo_multiplier=costs.slo_multiplier,
                tokens_generated=tokens, tokens_per_s=tokens / horizon,
                kv_peak_tokens=kv_peak, **shared,
                **{f"{name}_p{q}_ms": percentile(values, q)
                   for name, values in (("ttft", ttfts), ("itl", itls))
                   for q in (50, 95, 99)})
            return self.report
        if auto_on:
            # Keep closing (empty) boundaries through the tail so the
            # trough after the last completion can still scale in/park
            # — that idle capacity release is exactly the cost win.
            while next_auto <= makespan + _EPS:
                close_boundary(next_auto)
            for c in range(ncell):
                for window in cost_windows[c]:
                    if window[1] is None:
                        window[1] = makespan
            device_seconds = sum(
                (end - start) * csize
                for windows in cost_windows for start, end in windows)
        else:
            device_seconds = float(ndev) * makespan

        report = ServingReport(
            models=models,
            devices=ndev,
            batch_policy=policy.kind,
            max_batch=policy.effective_max_batch,
            max_wait_ms=policy.max_wait_ms,
            routing=routing,
            verify_rejected=verify_rejected,
            failed=failed,
            bad_completions=bad_done,
            faults=dict(sorted(faults.items())),
            mean_queue_depth=(queue_sum / queue_n if queue_n else 0.0),
            max_queue_depth=queue_max,
            device_utilization=(sum(busy_acc) / (ndev * horizon)),
            per_device_utilization=[v / horizon for v in busy_acc],
            compiles=compiles,
            compile_cache_hit_rate=(1.0 - compiles / batches_n
                                    if batches_n else 0.0),
            slo_multiplier=self.slo_multiplier,
            slo_ms={m: s * 1e3 for m, s in zip(models, slo)},
            **shared, **tally)
        # Every event counts when armed: ``offered`` counts the
        # arrivals, retries, launches and ejects arm the retry,
        # completion and readmit events, and a timeout counts even if
        # it left its model's FIFO unpopped (``timeouts_skipped``).
        self._emit_telemetry(report, batches_n, batches_sum, {
            "arrival": offered, "retry": tally["retries"], "timer": timers,
            "free": batches_n,
            "crash": len(inj.crashes) if inj is not None else 0,
            "recover": recovers, "timeout": timeouts_armed,
            "readmit": tally["devices_ejected"]}, timeouts_skipped)
        self.payload = self._build_payload(
            report, ctrl, events=seq, device_seconds=device_seconds,
            slo_met=slo_met,
            timeline={"t_s": tl_t, "cells_active": tl_cells,
                      "queue_depth": tl_queue, "burn_long": tl_burn})
        self.report = report
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _emit_telemetry(report: ServingReport, batches_n: int,
                        batches_sum: int, events: Dict[str, int],
                        timeouts_skipped: int) -> None:
        """The run's ``serving.*`` and ``faults.*`` counters.

        ``events`` counts the run's events by kind; the counts sum to
        the payload's ``sim.events``, ``timeouts_skipped`` of them unpopped.
        """
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
        tel.count("serving.retries.requests", report.retries)
        tel.count("serving.retries.compile", report.compile_retries)
        tel.count("serving.timeouts", report.timeouts)
        tel.count("serving.timeouts.skipped", timeouts_skipped)
        tel.count("serving.completions.bad", report.bad_completions)
        tel.count("serving.circuit.ejects", report.devices_ejected)
        tel.count("serving.circuit.readmits", report.devices_readmitted)
        for event_kind, count in events.items():
            tel.count(f"serving.events.{event_kind}", count)
        for fault_kind, count in report.faults.items():
            name = ("faults.detected.corrupt_program"
                    if fault_kind == "corrupt_detected"
                    else f"faults.injected.{fault_kind}")
            tel.count(name, count)

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


#: Shape of a fleet-scale report (``ScaledFleetSimulator._build_payload``).
#: Fields only the tables read are untyped; the invariants' are typed.
SCALE_SPEC = {"keys": {
    "schema": {"enum": [SCALE_SCHEMA]},
    "devices": {"type": "int", "min": 1},
    "cells": {"type": "int", "min": 1},
    "cell_size": {"type": "int", "min": 1},
    "serving": {"keys": dict.fromkeys((
        "offered", "completed", "rejected", "p99_ms", "throughput_rps",
        "goodput_rps", "slo_attainment", "makespan_s"), "any")},
    "sim": {"keys": dict.fromkeys(("events", "requests"),
                                  {"type": "int", "min": 0})},
    "cost": {"keys": dict.fromkeys((
        "price_per_device_hour", "device_seconds", "dollars",
        "static_device_seconds", "static_dollars", "savings_fraction"),
        "number")},
    "slo": {"keys": dict.fromkeys((
        "good", "bad", "p99_ms", "goodput_rps",
        "tail_bounded_throughput_rps", "bounded_throughput_per_dollar"),
        "any")},
    "autoscale_events": {"items": {"keys": {
        "action": {"enum": AUTOSCALE_ACTIONS}, "t_s": "number",
        "cells_active": "int"}}},
    "alerts": {"items": "object"},
    "timeline": {"keys": dict.fromkeys(
        ("t_s", "cells_active", "queue_depth", "burn_long"), "list")},
}}


def validate_fleet_scale_report(payload: Any) -> List[str]:
    """Problems with a fleet-scale report (empty list = valid)."""
    problems = check(payload, SCALE_SPEC)
    if passed(problems, "devices", "cells", "cell_size") and \
            payload["cell_size"] != payload["devices"] // payload["cells"]:
        problems.append("$.cell_size: not equal to devices // cells")
    if passed(problems, "cost") and payload["cost"]["device_seconds"] > \
            payload["cost"]["static_device_seconds"] + 1e-6:
        problems.append("$.cost.device_seconds: exceeds the static fleet's")
    if passed(problems, "cells", "autoscale_events"):
        events = payload["autoscale_events"]
        if [e["t_s"] for e in events] != sorted(e["t_s"] for e in events):
            problems.append("$.autoscale_events: not in time order")
        cells = payload["cells"]
        if not all(0 <= e["cells_active"] <= cells for e in events):
            problems.append(f"$.autoscale_events: cells_active outside "
                            f"[0, {cells}]")
    if passed(problems, "timeline"):
        columns = SCALE_SPEC["keys"]["timeline"]["keys"]
        if len({len(payload["timeline"][key]) for key in columns}) > 1:
            problems.append("$.timeline: columns differ in length")
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
# One sweep cell: the picklable work item of every fleet sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FleetCell:
    """One fleet run, self-contained and picklable.

    ``sim`` holds the :class:`ScaledFleetSimulator` keyword arguments
    (frozen values; treat the dict as read-only), ``workload`` a
    picklable zero-argument recipe such as
    ``functools.partial(OpenLoopPoisson, models, rate, duration)`` that
    builds the workload in the worker, and ``rate_rps`` the offered rate
    the report records.  A variant of a cell is
    ``dataclasses.replace(cell, sim={**cell.sim, ...})``.
    """

    sim: Dict[str, Any]
    workload: Callable[[], Workload]
    rate_rps: float = 0.0


def run_cell(cell: FleetCell) -> ScaledFleetSimulator:
    """Run one cell (module-level so process pools can pickle it).

    Returns the simulator after its run; its ``report``, ``payload``,
    ``monitor_payload`` and ``trace_log`` are pure functions of
    ``(REPRO_SEED, cell)``, so serial and ``--jobs N`` sweeps are
    byte-identical.
    """
    sim = ScaledFleetSimulator(**cell.sim)
    sim.run(cell.workload(), rate_rps=cell.rate_rps)
    return sim
