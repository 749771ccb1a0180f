"""Evaluation runtime: caching and fan-out shared by every entry point.

The paper's evaluation is a 22-figure sweep over 7 DNNs x ~6 design
points; without help it recompiles and re-estimates identical work in
every experiment and every process. This package supplies the serving
disciplines the ROADMAP asks for:

* :mod:`repro.runtime.cache` — a content-addressed, two-tier
  (in-memory + on-disk) cache of compiled models and run results, keyed
  by structural fingerprints of the graph and the design parameters.
* :mod:`repro.runtime.parallel` — a deterministic ``concurrent.futures``
  fan-out over (model x design-point) work items with a serial fallback.
* :mod:`repro.runtime.seed` — the ``REPRO_SEED`` discipline: every RNG
  in the repository derives from one environment seed plus stable
  stream labels, so stochastic runs replay exactly.
* :mod:`repro.runtime.knobs` — the registry of every ``REPRO_*``
  environment variable: one parser, one set of bool spellings, and a
  :class:`KnobError` naming the variable for any value it cannot parse.
"""

from .cache import (
    CACHE_EPOCH,
    CacheStats,
    EvalCache,
    cached_evaluate,
    fingerprint,
    get_cache,
    graph_fingerprint,
    object_fingerprint,
    set_cache,
)
from .knobs import KnobError
from .parallel import parallel_map
from .seed import seeded_rng

__all__ = [
    "CACHE_EPOCH",
    "CacheStats",
    "EvalCache",
    "KnobError",
    "cached_evaluate",
    "fingerprint",
    "get_cache",
    "graph_fingerprint",
    "object_fingerprint",
    "parallel_map",
    "seeded_rng",
    "set_cache",
]
