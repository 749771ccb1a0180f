"""Prefill/decode-aware LLM batching: continuous vs one-shot dynamic.

Autoregressive requests are not one-invocation jobs: each owns a prompt
(prefill phase) and a token budget (decode phase), and its KV-cache
occupies device memory for its whole lifetime. This module holds the
LLM workload (:class:`LLMRequest`, :func:`llm_poisson_requests`,
:class:`LLMWorkload`) and its frozen :class:`LLMServiceCosts`. The
scheduling is two launch rules (:func:`llm_policy`) at the one dispatch
site of the fleet core (:class:`~repro.serving.scale.ScaledFleetSimulator`;
one device, one cell), past the arrival path every request takes:

* ``continuous`` — iteration-level scheduling. Slots join at
  decode-step boundaries as requests arrive (each joiner's prefill
  stalls the engine, the documented join cost; a request that arrives
  during a prefill joins the same phase), leave on EOS, and a request
  is admitted only when its worst-case KV footprint (``prompt +
  output`` tokens) fits the unreserved budget; the head of the line
  waits until it does.
* ``oneshot`` — the classic dynamic-batching baseline: hold the head
  request ``max_wait``, form a batch once, pad every member to the
  longest prompt and the longest output, and return all results when
  the whole batch finishes. Short requests pay for long ones.

A request whose footprint alone exceeds the budget is rejected when
the engine reaches it. Runs are pure functions of ``(REPRO_SEED,
inputs)``, so serial and ``--jobs N`` sweeps stay byte-identical.

Service times follow the scheduler module's amortized-cost discipline
(:data:`~repro.serving.scheduler.DEFAULT_AMORTIZED_FRACTION`): a step
over ``B`` slots costs ``unit * (f + (1 - f) * B)``, so ``B = 1``
reproduces the isolated latency and batching amortizes exactly the
fixed fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

from ..runtime import knobs, seeded_rng
from .scheduler import DEFAULT_AMORTIZED_FRACTION, LLM_SCHEDULERS, BatchPolicy
from .workload import Workload

#: SLO multiple over a request's *ideal* (isolated, unbatched) latency.
DEFAULT_LLM_SLO_MULTIPLIER = 5.0


@dataclass(frozen=True)
class LLMRequest:
    """One generation request: a prompt and an output-token budget."""
    rid: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    #: Every request runs the fleet's config: it names no model, no client.
    model: ClassVar[str] = ""
    client: ClassVar[int] = -1

    @property
    def kv_footprint(self) -> int:
        """Worst-case KV-cache tokens this request ever occupies."""
        return self.prompt_tokens + self.output_tokens


def llm_poisson_requests(rate_rps: float, duration_s: float,
                         prompt_range: Tuple[int, int] = (8, 64),
                         output_range: Tuple[int, int] = (4, 64),
                         stream: object = 0) -> List[LLMRequest]:
    """Open-loop Poisson arrivals with uniform prompt/output lengths."""
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    rng = seeded_rng("llm-poisson", rate_rps, duration_s,
                     tuple(prompt_range), tuple(output_range), stream)
    requests: List[LLMRequest] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_rps))
        if t >= duration_s:
            break
        prompt = int(rng.integers(prompt_range[0], prompt_range[1] + 1))
        output = int(rng.integers(output_range[0], output_range[1] + 1))
        requests.append(LLMRequest(len(requests), t, prompt, output))
    return requests


class LLMWorkload(Workload):
    """A fixed list of LLM requests, replayed through the fleet core."""

    def __init__(self, requests: Sequence[LLMRequest],
                 duration_s: float = 0.0):
        self.requests = list(requests)
        self.duration_s = float(duration_s)

    @classmethod
    def poisson(cls, rate_rps: float, duration_s: float,
                prompt_range: Tuple[int, int] = (8, 64),
                output_range: Tuple[int, int] = (4, 64),
                stream: object = 0) -> "LLMWorkload":
        """:func:`llm_poisson_requests` over ``duration_s`` as a workload."""
        return cls(llm_poisson_requests(rate_rps, duration_s, prompt_range,
                                        output_range, stream), duration_s)

    def initial(self) -> List[LLMRequest]:
        return list(self.requests)


@dataclass(frozen=True)
class LLMServiceCosts:
    """Frozen per-config LLM service costs (plain data, picklable)."""
    config: str
    prefill_token_s: float
    decode_step_s: float
    kv_budget_tokens: int
    amortized_fraction: float = DEFAULT_AMORTIZED_FRACTION
    slo_multiplier: float = DEFAULT_LLM_SLO_MULTIPLIER

    @classmethod
    def resolve(cls, config: str = "gpt2_rms",
                kv_budget_tokens: Optional[int] = None,
                slo_multiplier: float = DEFAULT_LLM_SLO_MULTIPLIER,
                npu=None) -> "LLMServiceCosts":
        """Freeze one config's costs from content-cached NPU evaluations."""
        from ..llm import decode_step_costs
        costs = decode_step_costs(config, npu=npu)
        budget = (knobs.get("REPRO_LLM_KV_BUDGET") if kv_budget_tokens is None
                  else kv_budget_tokens)
        return cls(config=costs.config,
                   prefill_token_s=costs.prefill_token_s,
                   decode_step_s=costs.decode_step_s,
                   kv_budget_tokens=budget,
                   slo_multiplier=slo_multiplier)

    def batched_s(self, unit_s: float, batch: int) -> float:
        """Amortized time for one phase over ``batch`` slots."""
        if batch <= 0:
            return 0.0
        f = self.amortized_fraction
        return unit_s * (f + (1.0 - f) * batch)

    def prefill_s(self, prompt_tokens: int, batch: int = 1) -> float:
        return self.batched_s(self.prefill_token_s * prompt_tokens, batch)

    def ideal_latency_s(self, request: LLMRequest) -> float:
        """Isolated run-to-completion latency (batch 1, no queueing)."""
        return (self.prefill_token_s * request.prompt_tokens
                + self.decode_step_s * request.output_tokens)

    def slo_s(self, request: LLMRequest) -> float:
        return self.slo_multiplier * self.ideal_latency_s(request)

    def saturation_rps(self, max_slots: int, mean_prompt: float,
                       mean_output: float) -> float:
        """Rough full-batch request capacity (anchors sweep rate ladders)."""
        token_rate = max_slots / self.batched_s(self.decode_step_s,
                                                max_slots)
        per_request_s = (mean_output / token_rate
                         + self.prefill_token_s * mean_prompt)
        return 1.0 / per_request_s


def llm_policy(kind: str, max_slots: Optional[int] = None) -> BatchPolicy:
    """The fleet core's batch policy for one LLM scheduler.

    ``max_slots`` defaults to ``REPRO_LLM_MAX_SLOTS``; ``oneshot`` holds
    its head request the policy's default 2 ms.
    """
    if kind not in LLM_SCHEDULERS:
        raise ValueError(f"unknown LLM scheduler {kind!r}; "
                         f"known: {', '.join(LLM_SCHEDULERS)}")
    slots = knobs.get("REPRO_LLM_MAX_SLOTS") if max_slots is None \
        else max_slots
    return BatchPolicy(kind, max_batch=slots)
