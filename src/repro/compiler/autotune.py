"""Per-model search over the compiler pass pipeline.

The fixed compile flow is one point in the knob space
:data:`repro.compiler.pipeline.KNOB_SPACE`; this module searches that
space per (model, architecture) pair and returns the cheapest
verifier-clean pipeline, scored by the existing analytic cycle model.

Search mechanics:

* **exhaustive** when the evaluation budget covers the whole space,
  **greedy coordinate descent** otherwise — one knob at a time, in an
  order drawn from :func:`repro.runtime.seed.seeded_rng`, repeated until
  a pass changes nothing or the budget runs out.
* every candidate compiles through the normal content-addressed cache
  (:mod:`repro.runtime.cache`) under its config's compile key,
  and the finished report itself is cached (kind ``"autotune"``), so a
  warm re-search costs one cache read.
* candidate batches are fully determined before they are dispatched
  through :func:`repro.runtime.parallel.parallel_map` and reduced by
  ``(cycles, submission index)``, so ``--jobs N`` results are
  byte-identical to serial runs.
* every candidate is compiled with the static verifier on; a dirty
  program is recorded as ``verify-rejected`` and can never win.

Telemetry (``compiler.autotune.*`` counters and an ``autotune`` span) is
accounted in the calling process from the workers' returned statuses,
which keeps traces identical between serial and parallel searches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..graph import Graph
from ..schema import check
from .ir import CompileError
from .pipeline import (KNOB_SPACE, PIPELINE_VERSION, PipelineConfig,
                       all_configs, knob_space_size)

#: Schema tag stamped into every report (see :data:`AUTOTUNE_SPEC`).
REPORT_SCHEMA = "repro-autotune-report-v1"

@dataclass
class AutotuneReport:
    """Outcome of one pipeline search for one (model, architecture).

    ``candidates`` preserves submission order; ``counters`` holds the
    search-wide tallies (``candidates``, ``verifier_rejects``,
    ``cache_hits``) that :mod:`tests.test_telemetry` cross-checks
    against the ``compiler.autotune.*`` trace counters. ``cached`` marks
    a report served from the runtime cache (not part of the serialized
    form, so warm and cold reports stay byte-identical).
    """

    model: str
    budget: int
    strategy: str
    space_size: int
    seed: int
    baseline_cycles: float
    best_config: Dict
    best_label: str
    best_cycles: float
    improvement: float
    candidates: List[Dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    cached: bool = False

    def best_pipeline(self) -> PipelineConfig:
        """The winning config, ready for ``compile_model(pipeline=...)``."""
        return PipelineConfig.from_dict(self.best_config)

    def as_dict(self) -> Dict:
        """JSON-ready report (the ``repro autotune --json`` payload)."""
        return {
            "schema": REPORT_SCHEMA,
            "model": self.model,
            "budget": self.budget,
            "strategy": self.strategy,
            "space_size": self.space_size,
            "seed": self.seed,
            "baseline_cycles": self.baseline_cycles,
            "best": {
                "config": self.best_config,
                "label": self.best_label,
                "cycles": self.best_cycles,
            },
            "improvement": self.improvement,
            "candidates": self.candidates,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AutotuneReport":
        """Rehydrate a report from its :meth:`as_dict` payload."""
        best = data["best"]
        return cls(model=data["model"], budget=data["budget"],
                   strategy=data["strategy"], space_size=data["space_size"],
                   seed=data["seed"],
                   baseline_cycles=data["baseline_cycles"],
                   best_config=best["config"], best_label=best["label"],
                   best_cycles=best["cycles"],
                   improvement=data["improvement"],
                   candidates=list(data["candidates"]),
                   counters=dict(data["counters"]))


#: Shape of an autotune report (:meth:`AutotuneReport.as_dict`).
AUTOTUNE_SPEC = {"keys": {
    "schema": {"enum": [REPORT_SCHEMA]},
    "model": "str", "budget": "int",
    "strategy": {"enum": ["exhaustive", "greedy"]},
    "space_size": "int", "seed": "int", "baseline_cycles": "number",
    "best": {"keys": {"config": "object", "label": "str",
                      "cycles": "number"}},
    "improvement": "number",
    "candidates": {"min": 1, "items": {"keys": {
        "config": "object", "label": "str",
        "status": {"enum": ["ok", "verify-rejected", "compile-error"]},
        "cycles": "any", "error": "any", "cache_hit": "bool"}}},
    "counters": {"keys": {"candidates": "int", "verifier_rejects": "int",
                          "cache_hits": "int"}},
}}


def validate_autotune_report(payload: Any) -> List[str]:
    """Problems with an autotune report (empty list = valid)."""
    return check(payload, AUTOTUNE_SPEC)


def _decode_report(text: str) -> Dict:
    """Parse a cached report; a record that fails validation is stale."""
    payload = json.loads(text)
    if validate_autotune_report(payload):
        raise ValueError("malformed autotune report")
    return payload


def _score_candidate(work: Tuple) -> Dict:
    """Compile, verify and cycle-score one config (worker-process safe).

    ``work`` is ``(graph, npu_config, special_functions, config_dict)``;
    the return value is a small picklable status dict the parent folds
    into the report and the telemetry counters.
    """
    graph, npu_config, special_functions, config_dict = work
    from ..analysis.verifier import VerificationError
    from ..npu import NPUTandem
    from ..runtime.cache import get_cache
    from .compiler import _compile_key, compile_model

    config = PipelineConfig.from_dict(config_dict)
    key = _compile_key(graph, npu_config.sim, npu_config.gemm,
                       special_functions, config)
    cache_hit = get_cache().has("compiled", key)
    try:
        model = compile_model(graph, npu_config.sim, npu_config.gemm,
                              special_functions, verify=True,
                              pipeline=config)
    except VerificationError as err:
        return {"status": "verify-rejected", "cycles": None,
                "error": str(err)[:300], "cache_hit": cache_hit}
    except CompileError as err:
        return {"status": "compile-error", "cycles": None,
                "error": str(err)[:300], "cache_hit": cache_hit}
    result = NPUTandem(npu_config,
                       special_functions=special_functions).evaluate(model)
    cycles = result.total_seconds * npu_config.frequency_hz
    return {"status": "ok", "cycles": cycles, "error": None,
            "cache_hit": cache_hit}


def _report_key(graph: Graph, npu_config, special_functions: bool,
                budget: int) -> str:
    """Content address of a finished report (kind ``"autotune"``)."""
    from ..runtime import knobs
    from ..runtime.cache import (fingerprint, graph_fingerprint,
                                 object_fingerprint)
    return fingerprint("autotune-report", PIPELINE_VERSION, REPORT_SCHEMA,
                       graph_fingerprint(graph),
                       object_fingerprint(npu_config), special_functions,
                       budget, knobs.get("REPRO_SEED"),
                       {k: list(v) for k, v in KNOB_SPACE.items()})


def autotune_model(graph: Graph, npu_config=None, budget: Optional[int] = None,
                   jobs: int = 1,
                   special_functions: bool = False) -> AutotuneReport:
    """Search the pipeline knob space for ``graph`` on ``npu_config``.

    ``budget`` caps candidate evaluations (default
    ``REPRO_AUTOTUNE_BUDGET``); the whole space is enumerated when it
    fits, else greedy coordinate descent explores one knob per batch.
    ``jobs > 1`` fans candidate compiles across worker processes without
    changing any result byte. Returns the (possibly cached)
    :class:`AutotuneReport`; the winner is always verifier-clean and
    never worse than the default pipeline.
    """
    from ..npu import table3_config
    from ..runtime import knobs
    from ..runtime.cache import get_cache
    from ..runtime.parallel import parallel_map
    from ..runtime.seed import seeded_rng
    from ..telemetry import get_telemetry

    npu_config = npu_config or table3_config()
    budget = (budget if budget is not None
              else knobs.get("REPRO_AUTOTUNE_BUDGET"))
    tel = get_telemetry()
    cache = get_cache()
    key = None
    with tel.span("autotune", cat="compiler", model=graph.name):
        tel_on = tel.enabled
        if tel_on:
            tel.count("compiler.autotune.searches")
        if cache.enabled:
            key = _report_key(graph, npu_config, special_functions, budget)
            hit = cache.get("autotune", key, decode=_decode_report)
            if hit is not None:
                if tel_on:
                    tel.count("compiler.autotune.report_hits")
                report = AutotuneReport.from_dict(hit)
                report.cached = True
                return report

        default = PipelineConfig()
        scores: Dict[PipelineConfig, Dict] = {}
        order: List[PipelineConfig] = []
        counters = {"candidates": 0, "verifier_rejects": 0, "cache_hits": 0}

        def evaluate(batch: List[PipelineConfig]) -> None:
            """Score a deduplicated batch; fold statuses into counters."""
            batch = [c for c in batch if c not in scores][:max(
                0, budget - counters["candidates"])]
            if not batch:
                return
            work = [(graph, npu_config, special_functions, c.as_dict())
                    for c in batch]
            with tel.span("autotune.batch", cat="compiler",
                          model=graph.name, size=len(batch)):
                results = parallel_map(_score_candidate, work, jobs=jobs)
            for config, status in zip(batch, results):
                scores[config] = status
                order.append(config)
                counters["candidates"] += 1
                counters["cache_hits"] += int(status["cache_hit"])
                counters["verifier_rejects"] += int(
                    status["status"] == "verify-rejected")
            if tel_on:
                tel.count("compiler.autotune.candidates", len(batch))

        space = all_configs()
        if budget >= len(space):
            strategy = "exhaustive"
            evaluate([default] + [c for c in space if c != default])
        else:
            strategy = "greedy"
            evaluate([default])
            knob_order = list(KNOB_SPACE)
            seeded_rng("autotune", graph.name, budget).shuffle(knob_order)
            best = default
            improved = True
            while improved and counters["candidates"] < budget:
                improved = False
                for knob in knob_order:
                    evaluate([replace(best, **{knob: value})
                              for value in KNOB_SPACE[knob]
                              if value != getattr(best, knob)])
                    new_best = _best_config(order, scores)
                    if new_best is not None and new_best != best:
                        best, improved = new_best, True

        if tel_on and counters["verifier_rejects"]:
            tel.count("compiler.autotune.verifier_rejects",
                      counters["verifier_rejects"])
        if tel_on and counters["cache_hits"]:
            tel.count("compiler.autotune.cache_hits",
                      counters["cache_hits"])

        baseline = scores.get(default)
        if baseline is None or baseline["status"] != "ok":
            raise CompileError(
                f"default pipeline failed for {graph.name}: "
                f"{(baseline or {}).get('error')}")
        winner = _best_config(order, scores) or default
        best_cycles = scores[winner]["cycles"]
        report = AutotuneReport(
            model=graph.name, budget=budget, strategy=strategy,
            space_size=knob_space_size(), seed=knobs.get("REPRO_SEED"),
            baseline_cycles=baseline["cycles"],
            best_config=winner.as_dict(), best_label=winner.label(),
            best_cycles=best_cycles,
            improvement=1.0 - best_cycles / baseline["cycles"],
            candidates=[{"config": c.as_dict(), "label": c.label(),
                         **scores[c]} for c in order],
            counters=counters)
        if key is not None:
            cache.put("autotune", key, report.as_dict())
        return report


def _best_config(order: List[PipelineConfig],
                 scores: Dict[PipelineConfig, Dict]
                 ) -> Optional[PipelineConfig]:
    """Cheapest ``ok`` config so far; submission order breaks ties."""
    best = None
    best_cycles = None
    for config in order:
        status = scores[config]
        if status["status"] != "ok":
            continue
        if best_cycles is None or status["cycles"] < best_cycles:
            best, best_cycles = config, status["cycles"]
    return best
