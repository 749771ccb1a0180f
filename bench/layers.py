"""Layer map and in-memory tracer for the benchmark's traced runs.

:data:`LAYERS` names, for each layer of the program, the public entry
points a traced repetition wraps from outside the program.  A wrapper
opens a span on entry and closes it on exit; a layer's *self time* is
its span's duration minus the time its child spans cover, so the layers
of one repetition never count the same second twice.  Spans are held in
memory and returned with the repetition's result; ``run.py`` merges
them into one Chrome trace per workload.

A module-level function is patched where it is defined *and* in every
loaded ``repro`` module that imported it by name, because callers look
it up there (``repro.npu.npu.estimate`` is the analytic model's
``estimate`` under another module).  Methods are patched on their class.

An entry that no longer resolves raises :class:`LayerMapError` at
install time, and :func:`check_expected` raises it when a layer recorded
no call on a workload listed in its ``on`` field, so a rename upstream
fails loudly instead of reading as zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept per layer per repetition for the Chrome trace.  Self time
#: and call counts always cover every call; the cap only bounds the
#: trace file for layers called once per simulated event.
SPAN_CAP = 5000


class LayerMapError(RuntimeError):
    """A layer entry does not resolve, or an expected layer stayed idle."""


@dataclass(frozen=True)
class Layer:
    """One layer: its metric prefix and the entry points that time it."""

    name: str
    #: ``"module:attribute.path"`` of each wrapped callable.
    targets: Tuple[str, ...]
    #: Workloads on which the traced run must record at least one call.
    on: Tuple[str, ...]
    #: Position of the argument naming the model, for the span's op id.
    model_arg: Optional[int] = None


_VERIFIER = "repro.analysis.verifier"

LAYERS: Tuple[Layer, ...] = (
    Layer("models.build", ("repro.models.zoo:build_model",),
          ("zoo_cold",), model_arg=0),
    Layer("compiler.search_tiles", ("repro.compiler.tiling:search_tiles",),
          ("zoo_cold",)),
    Layer("compiler.lower_tile", ("repro.compiler.lowering:lower_tile",),
          ("zoo_cold",)),
    Layer("verifier.interpret", (f"{_VERIFIER}.state:interpret",),
          ("zoo_cold",)),
    Layer("verifier.decode", (f"{_VERIFIER}.decode:run",), ("zoo_cold",)),
    Layer("verifier.loops", (f"{_VERIFIER}.loops:run",), ("zoo_cold",)),
    Layer("verifier.dataflow", (f"{_VERIFIER}.dataflow:run",),
          ("zoo_cold",)),
    Layer("verifier.ownership", (f"{_VERIFIER}.ownership:run",),
          ("zoo_cold",)),
    Layer("verifier.lint", (f"{_VERIFIER}.lint:run",), ("zoo_cold",)),
    Layer("deps.validate_tile",
          ("repro.analysis.deps.validate:validate_tile",), ("zoo_cold",)),
    Layer("deps.check_model", ("repro.analysis.deps.races:check_model",),
          ("zoo_cold",)),
    Layer("serialize.dump", ("repro.compiler.serialize:dump_model",),
          ("zoo_cold",)),
    Layer("serialize.load", ("repro.compiler.serialize:load_model",),
          ("zoo_warm", "fleet_day", "fleet_chaos")),
    Layer("cache.get", ("repro.runtime.cache:EvalCache.get",),
          ("zoo_cold", "zoo_warm", "fleet_day", "fleet_chaos")),
    Layer("cache.put", ("repro.runtime.cache:EvalCache.put",),
          ("zoo_cold",)),
    Layer("npu.evaluate", ("repro.npu.npu:NPUTandem.evaluate",),
          ("zoo_cold", "zoo_warm"), model_arg=1),
    Layer("simulator.estimate", ("repro.simulator.analytic:estimate",),
          ("zoo_cold",)),
    Layer("serving.workload",
          ("repro.serving.workload:OpenLoopPoisson.__init__",
           "repro.serving.workload:DiurnalTrace.__init__"),
          ("fleet_day", "fleet_chaos")),
    Layer("serving.scale.run",
          ("repro.serving.scale:ScaledFleetSimulator.run",), ("fleet_day",)),
    Layer("autoscale.decide",
          ("repro.serving.autoscale:AutoscaleController.decide",),
          ("fleet_day",)),
    Layer("alerts.observe", ("repro.telemetry.alerts:AlertEngine.observe",),
          ("fleet_day", "fleet_chaos")),
    Layer("serving.fleet.run", ("repro.serving.fleet:FleetSimulator.run",),
          ("fleet_chaos",)),
    Layer("faults.injector",
          ("repro.faults.injector:FaultInjector.__init__",),
          ("fleet_chaos",)),
    Layer("monitor.advance", ("repro.serving.monitor:FleetMonitor.advance",),
          ("fleet_chaos",)),
)


# ---------------------------------------------------------------------------
# Probes: counts taken at the same boundaries as the spans
# ---------------------------------------------------------------------------
def _count_interpret(counts, run, program, *args, **kwargs):
    counts["verifier.instructions"] += len(program.instructions)
    return run(program, *args, **kwargs)


def _count_dump(counts, run, *args, **kwargs):
    text = run(*args, **kwargs)
    counts["serialize.dump.bytes"] += len(text)
    return text


def _count_cache_get(counts, run, cache, kind, key, *args, **kwargs):
    # The memory tier keeps every entry it has seen, so a hit on a slot
    # absent before the call was read from disk.
    from_disk = (kind, key) not in cache._memory
    value = run(cache, kind, key, *args, **kwargs)
    if value is None:
        counts["cache.misses"] += 1
    else:
        counts["cache.hits"] += 1
        if from_disk:
            counts["cache.bytes_read"] += \
                cache._path(kind, key).stat().st_size
    return value


def _count_cache_put(counts, run, cache, kind, key, *args, **kwargs):
    run(cache, kind, key, *args, **kwargs)
    if cache.enabled and cache.persist:
        path = cache._path(kind, key)
        if path.exists():
            counts["cache.bytes_written"] += path.stat().st_size


def _count_scale_run(counts, run, sim, *args, **kwargs):
    report = run(sim, *args, **kwargs)
    counts["serving.sim_events"] += sim.payload["sim"]["events"]
    counts["serving.sim_requests"] += sim.payload["sim"]["requests"]
    for decision in sim.payload["autoscale_events"]:
        if decision["action"] == "scale-out":
            counts["autoscale.scale_outs"] += 1
        elif decision["action"] == "scale-in":
            counts["autoscale.scale_ins"] += 1
    return report


def _count_fleet_run(counts, run, sim, *args, **kwargs):
    report = run(sim, *args, **kwargs)
    counts["serving.retries"] += report.retries
    counts["serving.ejects"] += report.devices_ejected
    # ``corrupt_detected`` counts the verifier's catches, not injections.
    counts["faults.injected"] += sum(
        n for kind, n in report.faults.items() if kind != "corrupt_detected")
    if sim.monitor_payload is not None:
        counts["monitor.alerts"] += len(sim.monitor_payload["alerts"])
    return report


PROBES: Dict[str, Callable] = {
    f"{_VERIFIER}.state:interpret": _count_interpret,
    "repro.compiler.serialize:dump_model": _count_dump,
    "repro.runtime.cache:EvalCache.get": _count_cache_get,
    "repro.runtime.cache:EvalCache.put": _count_cache_put,
    "repro.serving.scale:ScaledFleetSimulator.run": _count_scale_run,
    "repro.serving.fleet:FleetSimulator.run": _count_fleet_run,
}

#: Counters the probes fill, with their units.
COUNTERS: Dict[str, str] = {
    "verifier.instructions": "count",
    "serialize.dump.bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "serving.sim_events": "count",
    "serving.sim_requests": "count",
    "autoscale.scale_outs": "count",
    "autoscale.scale_ins": "count",
    "serving.retries": "count",
    "serving.ejects": "count",
    "faults.injected": "count",
    "monitor.alerts": "count",
}

#: Ratios derived from the counts: ``name -> (unit, numerator, denominator)``.
#: ``compiler.attempts_per_block`` is tile attempts lowered per tile
#: search; every attempt past the first is wasted work.
RATIOS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "compiler.attempts_per_block": (
        "ratio", "compiler.lower_tile.calls", ("compiler.search_tiles.calls",)),
    "cache.hit_ratio": ("ratio", "cache.hits", ("cache.hits", "cache.misses")),
}

#: Whole-run trace metrics (computed by ``run.py``).
TRACE_METRICS: Dict[str, str] = {
    "trace.unattributed_share": "%",
    "trace.overhead": "ratio",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.self_pct"] = "%"
        units[f"{layer.name}.calls"] = "count"
    units.update(COUNTERS)
    units.update({name: unit for name, (unit, _, _) in RATIOS.items()})
    units.update(TRACE_METRICS)
    return units


# ---------------------------------------------------------------------------
# Resolution and the tracer
# ---------------------------------------------------------------------------
def resolve(target: str):
    """``(owner, attribute, callable)`` for a ``module:attr.path`` entry."""
    module_name, _, path = target.partition(":")
    if not module_name or not path:
        raise LayerMapError(f"{target!r} is not 'module:attribute'")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as err:
        raise LayerMapError(f"{target}: {err}") from None
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise LayerMapError(f"{target}: {part!r} not found")
        owner = getattr(owner, part)
    if not callable(getattr(owner, attr, None)):
        raise LayerMapError(f"{target}: no callable {attr!r} on "
                            f"{getattr(owner, '__name__', owner)!r}")
    return owner, attr, getattr(owner, attr)


def _model_name(value) -> str:
    return value if isinstance(value, str) else getattr(value, "name", "?")


class Tracer:
    """Spans, self times and counts for one traced repetition.

    Frames on the stack are ``[layer, start, child_s, span_id, op,
    parent_id]``; spans are ``(layer, start, dur, span_id, parent_id,
    op)`` with times from :func:`time.perf_counter`.
    """

    def __init__(self, root_op: str):
        self.root_op = root_op
        self.active = False
        #: ``layer -> [calls, self_s]``.
        self.stats: Dict[str, List[float]] = {
            layer.name: [0, 0.0] for layer in LAYERS}
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.spans: List[tuple] = []
        self.dropped: Dict[str, int] = {}
        #: Time covered by outermost spans, per phase of the repetition.
        self.covered: Dict[str, float] = {"setup": 0.0, "run": 0.0}
        self.phase = "setup"
        self._kept: Dict[str, int] = dict.fromkeys(self.stats, 0)
        self._stack: List[list] = []
        self._next_id = 1

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`LAYERS` and start recording."""
        for layer in LAYERS:
            for target in layer.targets:
                owner, attr, original = resolve(target)
                wrapper = self._wrap(layer, original, PROBES.get(target))
                setattr(owner, attr, wrapper)
                if not isinstance(owner, type):
                    self._patch_aliases(original, wrapper)
        self.active = True
        return self

    def stop(self) -> None:
        """Stop recording; the wrappers call straight through from now on."""
        self.active = False

    @staticmethod
    def _patch_aliases(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, layer: Layer, fn, probe):
        enter, leave = self._enter, self._leave
        name, model_arg = layer.name, layer.model_arg
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            op = None
            if model_arg is not None and len(args) > model_arg:
                op = f"{tracer.root_op}/{_model_name(args[model_arg])}"
            enter(name, op)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        if probe is None:
            return timed
        counts = self.counts

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return probe(counts, timed, *args, **kwargs)

        return probed

    def _enter(self, layer: str, op: Optional[str]) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        if op is None:
            op = parent[4] if parent is not None else self.root_op
        span_id = self._next_id
        self._next_id += 1
        stack.append([layer, time.perf_counter(), 0.0, span_id, op,
                      parent[3] if parent is not None else 0])

    def _leave(self) -> None:
        end = time.perf_counter()
        layer, start, child_s, span_id, op, parent_id = self._stack.pop()
        dur = end - start
        stat = self.stats[layer]
        stat[0] += 1
        stat[1] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.covered[self.phase] += dur
        if self._kept[layer] < SPAN_CAP:
            self._kept[layer] += 1
            self.spans.append((layer, start, dur, span_id, parent_id, op))
        else:
            self.dropped[layer] = self.dropped.get(layer, 0) + 1

    def result(self) -> Dict:
        """JSON-ready record of this repetition's trace."""
        return {
            "stats": self.stats,
            "counts": self.counts,
            "covered": self.covered,
            "spans": self.spans,
            "dropped": self.dropped,
        }


# ---------------------------------------------------------------------------
# From traced repetitions to per-layer metrics
# ---------------------------------------------------------------------------
def layer_metrics(trace: Dict, window_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``window_s`` is the repetition's traced wall time (set-up plus timed
    section); self times are reported as a percentage of it.
    """
    values: Dict[str, float] = {}
    for name, (calls, self_s) in trace["stats"].items():
        values[f"{name}.self_pct"] = 100.0 * self_s / window_s
        values[f"{name}.calls"] = calls
    values.update(trace["counts"])
    for name, (_unit, num, den) in RATIOS.items():
        total = sum(values[d] for d in den)
        values[name] = values[num] / total if total else 0.0
    return values


def check_expected(workload: str, calls: Dict[str, int]) -> None:
    """Raise :class:`LayerMapError` if a layer expected on ``workload``
    recorded no call (``calls`` maps layer name to its call count)."""
    idle = [layer.name for layer in LAYERS
            if workload in layer.on and not calls.get(layer.name)]
    if idle:
        raise LayerMapError(
            f"{workload}: expected layers recorded no call: "
            f"{', '.join(idle)} (renamed entry point or dead path?)")
