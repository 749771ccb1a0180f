"""Admission control, batching and resilience policies, and the service model.

The policies are frozen plain data; the fleet event loop
(:mod:`repro.serving.scale`) applies them at its dispatch site.  A
device's batch is the same-model FIFO prefix of its queue (requests for
a second model never jump ahead of the head request), capped at the
policy's batch limit.

Service times come from :class:`ServiceCosts`, resolved once per sweep
from the content-cached :meth:`repro.npu.NPUTandem.evaluate` /
:meth:`~repro.npu.NPUTandem.compile` numbers and then frozen to plain
data — picklable, so ``--jobs`` workers never re-evaluate models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

#: Batching disciplines, in increasing sophistication:
#: ``single`` serves one request per launch; ``greedy`` takes whatever
#: same-model requests are already queued (up to ``max_batch``) without
#: waiting; ``dynamic`` additionally holds the head request up to
#: ``max_wait_ms`` hoping to fill the batch.
BATCH_POLICIES = ("single", "greedy", "dynamic")

#: LLM batching disciplines (:mod:`repro.serving.continuous`), where
#: ``max_batch`` is the decode-slot count: ``oneshot`` pads a batch to
#: its longest member and always holds the head ``max_wait_ms``;
#: ``continuous`` joins and retires requests at every decode step.
LLM_SCHEDULERS = ("oneshot", "continuous")


@dataclass(frozen=True)
class BatchPolicy:
    kind: str = "dynamic"
    max_batch: int = 8
    max_wait_ms: float = 2.0

    def __post_init__(self):
        if self.kind not in BATCH_POLICIES + LLM_SCHEDULERS:
            raise ValueError(f"unknown batch policy {self.kind!r}; known: "
                             f"{', '.join(BATCH_POLICIES + LLM_SCHEDULERS)}")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")

    @property
    def effective_max_batch(self) -> int:
        return 1 if self.kind == "single" else self.max_batch


@dataclass(frozen=True)
class AdmissionPolicy:
    """Reject arrivals once a device's queue is this deep (load shedding)."""
    max_queue: int = 256


#: Resilience disciplines: ``naive`` assumes nothing ever fails (the
#: pre-fault fleet: no timeouts, no retries, no health tracking, no
#: download verification); ``resilient`` turns on every mechanism below.
RESILIENCE_POLICIES = ("naive", "resilient")

#: Routing disciplines of the fleet core (:mod:`repro.serving.scale`).
#: They live here, with the other policy names, so the CLI's argument
#: parser reads them without loading the event core.
ROUTING_POLICIES = ("round_robin", "least_loaded", "model_affinity")


#: A request not completed within this multiple of its SLO target
#: (plus the batch wait) times out under the ``resilient`` policy.
TIMEOUT_SLO_MULTIPLE = 2.0

#: The retry after attempt ``k`` (counting from 0) backs off
#: ``RETRY_BACKOFF_S * 2**k``.
RETRY_BACKOFF_S = 2e-3

#: The ``k``-th consecutive eject of a device waits ``cooldown_s *
#: COOLDOWN_GROWTH**(k-1)`` before re-admission.
COOLDOWN_GROWTH = 2.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the fleet responds to injected faults.

    Mechanisms (all on when ``kind == "resilient"``, all off when
    ``naive``):

    * **Per-request timeouts + retry with exponential backoff.** A
      request not completed within ``TIMEOUT_SLO_MULTIPLE`` x its SLO
      target is pulled back and re-routed after
      ``RETRY_BACKOFF_S * 2**attempt``, at most ``max_retries`` times.
      A request already executing on a *healthy* device is left to
      finish (no duplicate completions) — the timeout only feeds the
      health tracker.
    * **Retry budget.** Fleet-wide retries are capped at
      ``retry_budget_fraction`` x offered requests, so a mass outage
      degrades into load shedding instead of a retry storm.
    * **Circuit breaker.** ``eject_threshold`` consecutive failures
      (timeouts, faulted launches) eject a device from routing; it is
      re-admitted after a cooldown that grows per consecutive eject
      (the ``k``-th waits ``cooldown_s * COOLDOWN_GROWTH**(k-1)``) and
      resets on a successful completion.
    * **Tile-granularity re-execution.** A transient tile fault re-runs
      only the faulted tiles (the paper's Fig. 10 tile unit) instead of
      the whole batch invocation.
    * **Download verification.** First-touch program downloads run the
      static verifier; a corrupted program is caught, re-compiled and
      re-downloaded instead of silently serving garbage.
    """
    kind: str = "resilient"
    max_retries: int = 3
    retry_budget_fraction: float = 0.25
    eject_threshold: int = 3
    cooldown_s: float = 0.5

    def __post_init__(self):
        if self.kind not in RESILIENCE_POLICIES:
            raise ValueError(f"unknown resilience policy {self.kind!r}; "
                             f"known: {', '.join(RESILIENCE_POLICIES)}")
        if not 0 <= self.max_retries <= 254:    # a one-byte attempt count
            raise ValueError("max_retries must be in [0, 254]")

    @property
    def active(self) -> bool:
        return self.kind == "resilient"

    @classmethod
    def naive(cls) -> "ResiliencePolicy":
        """The do-nothing policy (also the default fleet behaviour)."""
        return cls(kind="naive")


# ---------------------------------------------------------------------------
# Service model
# ---------------------------------------------------------------------------
#: Fraction of a model's isolated latency that is per-invocation
#: overhead (weight residency establishment, dispatch, sync weaving)
#: rather than per-request compute; batching amortizes exactly this
#: share, so the asymptotic batching speedup is 1/(1-fraction).
DEFAULT_AMORTIZED_FRACTION = 0.35

#: Compile-penalty proxy: host-side lowering plus program download,
#: charged the first time a device serves a model whose compiled
#: program is not yet resident (the per-device "compile cache").
COMPILE_BASE_S = 50e-6
COMPILE_PER_INSTRUCTION_S = 0.5e-6


@dataclass(frozen=True)
class ModelCost:
    latency_s: float       # isolated batch-1 latency (NPUTandem.evaluate)
    compile_s: float       # first-touch compile + program-download cost
    verified: bool = True  # static-verification record present and clean
    tiles: int = 1         # total tiles per invocation (re-execution unit)


@dataclass(frozen=True)
class ServiceCosts:
    """Frozen per-model service costs (plain data, picklable)."""
    costs: Dict[str, ModelCost] = field(default_factory=dict)
    amortized_fraction: float = DEFAULT_AMORTIZED_FRACTION

    @classmethod
    def resolve(cls, models: Sequence[str], npu=None,
                amortized_fraction: float = DEFAULT_AMORTIZED_FRACTION,
                ) -> "ServiceCosts":
        """Evaluate/compile each model once (content-cached) and freeze."""
        from ..npu import NPUTandem
        npu = npu or NPUTandem()
        costs = {}
        for model in dict.fromkeys(models):
            latency = npu.evaluate(model).total_seconds
            compiled = npu.compile(model)
            instructions = compiled.total_instructions()
            compile_s = (COMPILE_BASE_S
                         + COMPILE_PER_INSTRUCTION_S * instructions)
            # The static-verification record rides along so fleet
            # admission control can refuse models whose programs never
            # passed (or failed) the verifier without touching the
            # compiler from inside the event loop. The tile count is the
            # fault-recovery unit: a transient tile fault re-executes
            # tiles/total of the invocation, not the whole batch.
            record = npu.verify_record(model)
            verified = bool(record.get("clean", False))
            tiles = max(1, sum(cb.tiles for cb in compiled.blocks))
            costs[model] = ModelCost(latency, compile_s, verified, tiles)
        return cls(costs=costs, amortized_fraction=amortized_fraction)

    def models(self) -> Tuple[str, ...]:
        return tuple(self.costs)

    def latency_s(self, model: str) -> float:
        return self.costs[model].latency_s

    def compile_s(self, model: str) -> float:
        return self.costs[model].compile_s

    def is_verified(self, model: str) -> bool:
        """Whether the model's verification record is present and clean."""
        cost = self.costs.get(model)
        return cost is not None and cost.verified

    def tiles(self, model: str) -> int:
        """Total tiles per invocation (the tile-retry granularity)."""
        return self.costs[model].tiles

    def batch_service_s(self, model: str, batch: int) -> float:
        """Service time for one batch: fixed overhead + linear compute.

        ``service(1)`` equals the isolated latency; the amortized
        fraction is charged once per launch instead of once per request.
        """
        latency = self.costs[model].latency_s
        fixed = self.amortized_fraction * latency
        return fixed + (latency - fixed) * batch

    def capacity_rps(self, model: str, max_batch: int) -> float:
        """Saturation throughput of one device at full batches."""
        return max_batch / self.batch_service_s(model, max_batch)
