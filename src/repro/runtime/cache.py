"""Content-addressed compile/result cache (in-memory + on-disk).

Keys are structural fingerprints: a sha256 over the canonical JSON form
of the graph (names, tensor specs, nodes, attributes) and of the
parameter dataclasses (``SimParams``, ``SystolicParams``, compiler
options). Two structurally identical inputs therefore share one cache
entry, and any change to the graph or the configuration changes the key
— invalidation is by construction, never by timestamp.

Two tiers back each key:

* an in-memory dict (process-local, always on while the cache is
  enabled), and
* a JSON file per entry under ``.repro_cache/<kind>/<key>.json``
  (cross-process; survives interpreter restarts), written atomically so
  concurrent ``--jobs`` workers never observe torn entries.

Environment controls: ``REPRO_CACHE=0`` disables caching entirely,
``REPRO_CACHE_DIR`` moves the on-disk tier (default ``.repro_cache`` in
the working directory). ``EvalCache.stats`` counts hits, misses, stores
and invalidations (disk entries discarded because their schema or
payload no longer decodes).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from ..telemetry import get_telemetry
from . import knobs

#: Bump when the meaning of cached values changes (estimator semantics,
#: result fields, serialized-artifact layout) so stale on-disk entries
#: from older code versions miss instead of resurfacing.
CACHE_EPOCH = 1


def _json_scalar(value):
    """JSON fallback for numpy scalars (numpy shapes, result payloads)."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------
def _canonical(obj: Any, depth: int = 0) -> Any:
    """Reduce ``obj`` to JSON-able primitives, deterministically."""
    if depth > 12:
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__class__": type(obj).__name__,
            **{f.name: _canonical(getattr(obj, f.name), depth + 1)
               for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, depth + 1) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(_canonical(v, depth + 1)) for v in obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k], depth + 1)
                for k in sorted(obj, key=str)}
    if hasattr(obj, "__dict__"):
        state = {k: _canonical(v, depth + 1)
                 for k, v in sorted(vars(obj).items())
                 if not k.startswith("_") and not callable(v)}
        return {"__class__": type(obj).__name__, **state}
    return repr(obj)


def fingerprint(*parts: Any) -> str:
    """Stable hex digest of the canonical form of ``parts``."""
    payload = json.dumps([CACHE_EPOCH] + [_canonical(p) for p in parts],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def graph_fingerprint(graph) -> str:
    """Structural hash of a :class:`~repro.graph.Graph` (memoized)."""
    cached = graph.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    desc = {
        "name": graph.name,
        "tensors": {name: [spec.dtype, list(spec.shape)]
                    for name, spec in sorted(graph.tensors.items())},
        "nodes": [[n.name, n.op_type, list(n.inputs), list(n.outputs),
                   _canonical(n.attrs), list(n.params)]
                  for n in graph.nodes],
        "inputs": list(graph.graph_inputs),
        "outputs": list(graph.graph_outputs),
    }
    fp = fingerprint(desc)
    graph.__dict__["_fingerprint"] = fp
    return fp


def object_fingerprint(obj: Any) -> str:
    """Fingerprint an arbitrary design object by its public state."""
    return fingerprint(_canonical(obj))


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class EvalCache:
    """Two-tier (memory + disk) cache of evaluation artifacts.

    ``kind`` namespaces entries (``"compiled"``, ``"results"``). On disk
    each entry is one text document: ``encode(value) -> str`` is written
    as is and ``decode(str) -> value`` parses it once, so this class
    stays ignorant of compiler and simulator types. Kinds without an
    encoder are stored as compact JSON.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 enabled: bool = True, persist: bool = True):
        self.enabled = enabled
        self.persist = persist and directory is not None
        self.directory = Path(directory) if directory is not None else None
        self.stats = CacheStats()
        self._memory: Dict[Tuple[str, str], Any] = {}

    # -- tier plumbing -----------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        return self.directory / kind / f"{key}.json"

    def get(self, kind: str, key: str,
            decode: Optional[Callable[[str], Any]] = None) -> Optional[Any]:
        """Look up ``key``; memory first, then disk (re-encoding to memory)."""
        if not self.enabled:
            return None
        tel = get_telemetry()
        tel = tel if tel.enabled else None
        slot = (kind, key)
        if slot in self._memory:
            self.stats.hits += 1
            if tel is not None:
                tel.count(f"cache.{kind}.hits")
            return self._memory[slot]
        if self.persist:
            path = self._path(kind, key)
            if path.exists():
                try:
                    text = path.read_text()
                    value = decode(text) if decode else json.loads(text)
                except (ValueError, KeyError, TypeError, OSError):
                    # Stale or corrupt artifact from an older code version.
                    self.stats.invalidations += 1
                    if tel is not None:
                        tel.count(f"cache.{kind}.invalidations")
                    try:
                        path.unlink()
                    except OSError:
                        pass
                else:
                    self._memory[slot] = value
                    self.stats.hits += 1
                    if tel is not None:
                        tel.count(f"cache.{kind}.hits")
                        tel.count(f"cache.{kind}.bytes_read", len(text))
                    return value
        self.stats.misses += 1
        if tel is not None:
            tel.count(f"cache.{kind}.misses")
        return None

    def has(self, kind: str, key: str) -> bool:
        """True when ``key`` is present in either tier.

        A pure presence probe: no decode, no memory-tier promotion and
        no hit/miss accounting, so callers (e.g. the autotuner's
        cache-hit counters) can test for warmth without disturbing the
        stats or pre-empting a later :meth:`get`.
        """
        if not self.enabled:
            return False
        if (kind, key) in self._memory:
            return True
        return self.persist and self._path(kind, key).exists()

    def put(self, kind: str, key: str, value: Any,
            encode: Optional[Callable[[Any], str]] = None) -> None:
        if not self.enabled:
            return
        tel = get_telemetry()
        tel = tel if tel.enabled else None
        self._memory[(kind, key)] = value
        self.stats.stores += 1
        if tel is not None:
            tel.count(f"cache.{kind}.stores")
        if self.persist:
            # Encoded before the temp file exists, so an encoder error
            # leaves nothing behind in the cache directory.
            text = encode(value) if encode else json.dumps(
                value, separators=(",", ":"), default=_json_scalar)
            path = self._path(kind, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: parallel workers may race on the same key.
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
                if tel is not None:
                    tel.count(f"cache.{kind}.bytes_written", len(text))
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def clear(self) -> None:
        """Drop both tiers (and every on-disk entry)."""
        self._memory.clear()
        if self.persist and self.directory is not None and \
                self.directory.exists():
            for path in self.directory.glob("*/*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def entry_counts(self) -> Dict[str, int]:
        """On-disk entries per kind (for ``repro cache stats``)."""
        counts: Dict[str, int] = {}
        if self.persist and self.directory is not None and \
                self.directory.exists():
            for sub in self.directory.iterdir():
                if sub.is_dir():
                    counts[sub.name] = sum(1 for _ in sub.glob("*.json"))
        return counts


# ---------------------------------------------------------------------------
# Process-wide singleton
# ---------------------------------------------------------------------------
_cache: Optional[EvalCache] = None


def get_cache() -> EvalCache:
    global _cache
    if _cache is None:
        _cache = EvalCache(directory=knobs.get("REPRO_CACHE_DIR"),
                           enabled=knobs.get("REPRO_CACHE"))
    return _cache


def set_cache(cache: Optional[EvalCache]) -> None:
    """Install (or with ``None``, reset) the process-wide cache."""
    global _cache
    _cache = cache


# ---------------------------------------------------------------------------
# RunResult-level convenience
# ---------------------------------------------------------------------------
def _result_decode(payload: Dict) -> "object":
    from ..results import RunResult
    # Copy the nested breakdown dicts so callers can mutate their result
    # without polluting the cached payload.
    return RunResult(**{k: dict(v) if isinstance(v, dict) else v
                        for k, v in payload.items()})


def result_key(design_desc: Any, graph) -> str:
    graph_fp = graph if isinstance(graph, str) else graph_fingerprint(graph)
    return fingerprint("run-result", _canonical(design_desc), graph_fp)


def get_result(key: str):
    """Cached :class:`RunResult` for ``key``; always a fresh object."""
    cache = get_cache()
    payload = cache.get("results", key)
    if payload is None:
        return None
    return _result_decode(payload)


def put_result(key: str, result) -> None:
    get_cache().put("results", key, dataclasses.asdict(result))


def cached_evaluate(design, model):
    """``design.evaluate(model)`` through the shared result cache.

    ``design`` is fingerprinted by its public state (parameters,
    nested dataclasses); ``model`` is a zoo name or a Graph. Hits
    rehydrate a fresh :class:`RunResult`, so callers may freely mutate
    what they get back.
    """
    if not get_cache().enabled:
        return design.evaluate(model)
    if isinstance(model, str):
        from ..models import build_model
        graph = build_model(model)
    else:
        graph = model
    key = result_key(design, graph)
    hit = get_result(key)
    if hit is not None:
        return hit
    result = design.evaluate(model)
    put_result(key, result)
    return result
