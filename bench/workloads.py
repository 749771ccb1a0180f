"""One benchmark repetition, run in a fresh child process by ``run.py``.

Each workload has a set-up (imports, warm cost resolution, input
generation), a timed pass, and checks that run after the timer stops.
A repetition sets up once and then times passes until ``--pass-seconds``
of them have run (at least :data:`MIN_PASSES`); a cold workload, or a
traced repetition, times exactly one.  A pass is one or more steps, each
timed on its own between two host probes.  Every pass must give the same
outputs as the first.  The child writes one JSON record: host times of
the set-up and of each step, peak RSS, the simulated and counted outputs
(which must repeat exactly across repetitions), the operations attempted
and failed, and, when traced, the layer spans of :mod:`layers`.

``--prep`` fills the child's cache directory with a cold resolution of
the workload's models and writes the cold reference (costs and program
digests) that warm repetitions are checked against.

Run it through ``run.py``; it expects ``REPRO_SEED`` and
``REPRO_CACHE_DIR`` to be set and ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from layers import LayerMapError, Tracer

WORKLOADS = ("zoo_cold", "zoo_warm", "fleet_day", "fleet_chaos")
#: Exit status of a child whose layer map does not resolve.
LAYER_MAP_EXIT = 3

#: Model set of the serving workloads.
FLEET_MODELS = ("bert", "resnet50")
#: Zoo subset of ``--smoke`` runs.
SMOKE_ZOO = ("mobilenetv2", "tinynet")

#: Full-size and ``--smoke`` inputs.  The day is a 1000-device fleet
#: over a 15 s diurnal trace with a 40k req/s crest; the chaos run is
#: the 64-device resilient fleet under the fault plan in
#: :func:`_fault_plan` for 20 s.  Both keep a pass near one host second,
#: so a run holds enough passes for its median to ride out the
#: second-long slowdowns of a shared host.
SIZES = {
    False: {"day": {"devices": 1000, "cells": 125, "peak_rps": 40000.0,
                    "duration_s": 15.0},
            "chaos": {"devices": 64, "rate_rps": 2000.0, "duration_s": 20.0}},
    True: {"day": {"devices": 100, "cells": 10, "peak_rps": 4000.0,
                   "duration_s": 3.0},
           "chaos": {"devices": 8, "rate_rps": 250.0, "duration_s": 10.0}},
}
#: Fewest timed passes of an untraced repetition of a repeatable
#: workload, so that every such repetition checks that passes repeat.
MIN_PASSES = 2


# ---------------------------------------------------------------------------
# Shared checks and outputs
# ---------------------------------------------------------------------------
def _zoo_models(smoke: bool) -> List[str]:
    from repro.models import available_models
    return list(SMOKE_ZOO) if smoke else available_models()


def _program_digest(compiled) -> str:
    """sha256 over every tile program's 32-bit words, in block order."""
    digest = hashlib.sha256()
    for cb in compiled.blocks:
        if cb.tile is not None:
            for word in cb.tile.program.pack():
                digest.update(word.to_bytes(4, "little"))
    return digest.hexdigest()


def _cost_record(cost) -> list:
    return [cost.latency_s, cost.compile_s, cost.verified, cost.tiles]


def _tinynet_problems(compiled, seed: int, label: str) -> List[str]:
    """TinyNet on the functional machine, bit-exact vs the reference."""
    import numpy as np
    from repro.compiler import ReferenceExecutor
    from repro.npu import FunctionalRunner
    graph = compiled.graph
    rng = np.random.default_rng(seed)
    bindings = {name: rng.integers(-5, 5, spec.shape)
                for name, spec in graph.tensors.items()
                if graph.producer(name) is None}
    runner = FunctionalRunner(compiled)
    runner.bind(bindings)
    outputs = runner.run({name: bindings[name] for name in graph.graph_inputs})
    reference = ReferenceExecutor(graph).run(bindings)
    return [f"tinynet: {label} output {name} differs from the reference"
            for name in graph.graph_outputs
            if not np.array_equal(outputs[name], reference[name])]


def _dir_mib(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) \
        / 2 ** 20


def _model_outputs(models: Sequence[str], costs, cache_dir: Path) -> Dict:
    """Simulated NPU latency, program size and cache footprint."""
    from repro.npu import NPUTandem
    npu = NPUTandem()
    words = sum(npu.compile(m).total_instructions() for m in models)
    logs = [math.log(costs.latency_s(m) * 1e6) for m in models]
    return {
        "npu_geomean_us": math.exp(sum(logs) / len(logs)),
        "code_kwords": words / 1000.0,
        "cache_mb": _dir_mib(cache_dir),
    }


def _fresh_cache(cache_dir: Path) -> None:
    """A new process-wide cache on ``cache_dir`` (empty memory tier)."""
    from repro.runtime.cache import EvalCache, set_cache
    set_cache(EvalCache(directory=cache_dir))


def _cost_problems(models, costs, reference) -> List[str]:
    return [f"{m}: warm costs differ from the cold ones" for m in models
            if _cost_record(costs.costs[m]) != reference["costs"][m]]


def _digest_problems(models, reference) -> List[str]:
    """The programs in the current cache against the cold digests."""
    from repro.npu import NPUTandem
    npu = NPUTandem()
    return [f"{m}: warm program words differ from the cold ones"
            for m in models
            if _program_digest(npu.compile(m)) != reference["digests"][m]]


def _verified_problems(models, costs) -> List[str]:
    return [f"{m}: not verifier-clean" for m in models
            if not costs.is_verified(m)]


# ---------------------------------------------------------------------------
# Workloads: setup(), then per pass steps() and pass_outputs(), then check()
# ---------------------------------------------------------------------------
class Workload:
    """A workload whose pass is one step, :meth:`run`, and may repeat."""

    repeatable = True

    def steps(self):
        """The callables of one pass; each is timed on its own."""
        return [self.run]


class ZooCold(Workload):
    """Cold compile, verify, cache write and evaluate of the zoo."""

    #: A second pass in the same process would not be cold.
    repeatable = False

    def __init__(self, args):
        self.args = args
        self.cache_dir = Path(os.environ["REPRO_CACHE_DIR"])

    def setup(self):
        from repro.serving import ServiceCosts
        self.resolve = ServiceCosts.resolve
        self.models = _zoo_models(self.args.smoke)
        self.ops = list(self.models)
        _fresh_cache(self.cache_dir)

    def steps(self):
        """``ServiceCosts.resolve`` of the zoo, one step per model.

        The host probe then brackets each model's compile (0.1 to 0.5 s)
        instead of the whole 2 s pass, so it follows the host's speed
        more closely (see README.md, host-speed scaling).
        """
        from repro.npu import NPUTandem
        from repro.serving import ServiceCosts
        npu = NPUTandem()
        self.costs = ServiceCosts()

        def resolve(model):
            self.costs.costs.update(self.resolve([model], npu=npu).costs)
        return [functools.partial(resolve, m) for m in self.models]

    def pass_outputs(self):
        """The pass's outputs by op, which every pass must repeat."""
        return {m: _cost_record(self.costs.costs[m]) for m in self.models}

    def check(self):
        from repro.npu import NPUTandem
        outputs = _model_outputs(self.models, self.costs, self.cache_dir)
        npu = NPUTandem()
        cold = {m: npu.compile(m) for m in self.models}
        reference = {
            "costs": {m: _cost_record(self.costs.costs[m])
                      for m in self.models},
            "digests": {m: _program_digest(c) for m, c in cold.items()},
        }
        problems = _verified_problems(self.models, self.costs)
        _fresh_cache(self.cache_dir)
        warm = self.resolve(self.models)
        problems += _cost_problems(self.models, warm, reference)
        problems += _digest_problems(self.models, reference)
        if "tinynet" in self.models:
            problems += _tinynet_problems(cold["tinynet"], self.args.seed,
                                          "cold-compiled")
            problems += _tinynet_problems(npu.compile("tinynet"),
                                          self.args.seed, "warm-loaded")
        outputs["programs_sha256"] = hashlib.sha256(json.dumps(
            reference["digests"], sort_keys=True).encode()).hexdigest()
        return problems, outputs


class ZooWarm(ZooCold):
    """The same resolution, served from a disk cache filled by the prep.

    Each pass starts a new cache on the prep's directory, so every pass
    reads every artifact from disk."""

    repeatable = True
    steps = Workload.steps

    def setup(self):
        super().setup()
        self.reference = json.loads(Path(self.args.reference).read_text())

    def run(self):
        _fresh_cache(self.cache_dir)
        self.costs = self.resolve(self.models)

    def check(self):
        from repro.npu import NPUTandem
        outputs = _model_outputs(self.models, self.costs, self.cache_dir)
        problems = _cost_problems(self.models, self.costs, self.reference)
        # The compiled programs in memory are the last pass's loads.
        problems += _verified_problems(self.models, self.costs)
        problems += _digest_problems(self.models, self.reference)
        if "tinynet" in self.models:
            problems += _tinynet_problems(NPUTandem().compile("tinynet"),
                                          self.args.seed, "warm-loaded")
        return problems, outputs


def _conservation_problems(report: Dict) -> List[str]:
    accounted = report["completed"] + report["rejected"] + report["failed"]
    if report["offered"] == accounted:
        return []
    return [f"run: offered {report['offered']} != completed + rejected + "
            f"failed ({accounted})"]


def _fleet_outputs(report: Dict) -> Dict:
    return {
        "sim_p99_ms": report["p99_ms"],
        "sim_p99_samples": report["completed"],
        "sim_slo_attainment": report["slo_attainment"],
    }


def _fleet_pass(report: Dict) -> Dict:
    return {"run": [report[k] for k in ("offered", "completed", "rejected",
                                        "failed", "p99_ms", "slo_attainment")]}


class FleetDay(Workload):
    """The scaled event core and autoscaler over a diurnal day."""

    ops = ["run"]

    def __init__(self, args):
        self.args = args
        self.cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
        self.size = SIZES[args.smoke]["day"]
        self.sim = None

    def setup(self):
        from repro.serving import (AutoscaleConfig, DiurnalTrace,
                                   ScaledFleetSimulator, ServiceCosts)
        self.simulator = ScaledFleetSimulator
        # The 30 s day's controller (0.25 s interval, 1 s cooldown) on
        # half the time scale, to match the 15 s day; left at 30 s
        # values it scales out too late and meets the SLO for only 23%
        # of requests.
        self.autoscale = AutoscaleConfig(interval_s=0.125, min_cells=8,
                                         cooldown_s=0.5, queue_high=1.0,
                                         queue_low=0.2)
        self.costs = ServiceCosts.resolve(FLEET_MODELS)
        self.trace = DiurnalTrace(FLEET_MODELS, self.size["peak_rps"],
                                  self.size["duration_s"],
                                  trough_fraction=0.2)

    def run(self):
        self.sim = None  # free the previous pass's fleet first
        self.sim = self.simulator(
            self.costs, devices=self.size["devices"],
            cells=self.size["cells"], routing="least_loaded",
            autoscale=self.autoscale)
        self.sim.run(self.trace, rate_rps=self.size["peak_rps"])

    def pass_outputs(self):
        outputs = _fleet_pass(self.sim.payload["serving"])
        outputs["run"] += [self.sim.payload["sim"]["events"],
                           len(self.sim.payload["autoscale_events"])]
        return outputs

    def check(self):
        from repro.serving import validate_fleet_scale_report
        payload = self.sim.payload
        report = payload["serving"]
        problems = [f"run: {p}" for p in validate_fleet_scale_report(payload)]
        problems += _conservation_problems(report)
        if report["offered"] != len(self.trace.initial()):
            problems.append("run: offered requests != trace length")
        outputs = _model_outputs(FLEET_MODELS, self.costs, self.cache_dir)
        outputs.update(_fleet_outputs(report))
        outputs["bounded_rps_per_dollar"] = \
            payload["slo"]["bounded_throughput_per_dollar"]
        outputs["sim_events"] = payload["sim"]["events"]
        outputs["scale_events"] = len(payload["autoscale_events"])
        return problems, outputs


def _fault_plan():
    from repro.faults import (CorruptSpec, CrashSpec, FaultPlan,
                              FlakyCompileSpec, TileFaultSpec)
    return FaultPlan(name="bench-chaos",
                     crash=CrashSpec(p_per_device_s=0.01, outage_s=6.0),
                     tile_fault=TileFaultSpec(p_per_batch=0.02),
                     corrupt=CorruptSpec(p_per_download=0.05),
                     flaky_compile=FlakyCompileSpec(p=0.05))


class FleetChaos(Workload):
    """The legacy fleet core with faults, retries, breaker and monitor."""

    ops = ["run"]

    def __init__(self, args):
        self.args = args
        self.cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
        self.size = SIZES[args.smoke]["chaos"]
        self.out = None

    def setup(self):
        from repro.serving import ServiceCosts
        from repro.serving.monitor import MonitorPoint, run_monitor_point
        self.run_point = run_monitor_point
        self.costs = ServiceCosts.resolve(FLEET_MODELS)
        self.point = MonitorPoint(
            costs=self.costs, models=FLEET_MODELS,
            devices=self.size["devices"], rate_rps=self.size["rate_rps"],
            duration_s=self.size["duration_s"],
            resilience_kind="resilient", fault_plan=_fault_plan())

    def run(self):
        self.out = None  # free the previous pass's reports first
        self.out = self.run_point(self.point)

    def pass_outputs(self):
        report = self.out["serving"]
        outputs = _fleet_pass(report)
        outputs["run"] += [report["retries"], report["devices_ejected"],
                           len(self.out["monitor"]["alerts"])]
        return outputs

    def check(self):
        from repro.serving.monitor import validate_monitor_report
        monitor, report = self.out["monitor"], self.out["serving"]
        problems = [f"run: {p}" for p in validate_monitor_report(monitor)]
        problems += _conservation_problems(report)
        outputs = _model_outputs(FLEET_MODELS, self.costs, self.cache_dir)
        outputs.update(_fleet_outputs(report))
        outputs["retries"] = report["retries"]
        outputs["ejects"] = report["devices_ejected"]
        outputs["crashes"] = report["faults"].get("device_crash", 0)
        outputs["alerts"] = len(monitor["alerts"])
        return problems, outputs


CLASSES = {"zoo_cold": ZooCold, "zoo_warm": ZooWarm,
           "fleet_day": FleetDay, "fleet_chaos": FleetChaos}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def _probe_slice() -> None:
    table: Dict[int, int] = {}
    rows = []
    for i in range(6000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i
        rows.append((key, str(i)))
    rows.sort()
    json.loads(json.dumps(rows[:2000]))


def host_probe(slices: int = 8) -> List[float]:
    """Durations of a fixed stdlib-only kernel (~4 ms each on a 2-core
    x86 VM): the host's speed next to a timed step."""
    times = []
    for _ in range(slices):
        start = time.perf_counter()
        _probe_slice()
        times.append(time.perf_counter() - start)
    return times


def prep(args) -> None:
    """Fill the cache cold and write the cold reference."""
    from repro.npu import NPUTandem
    from repro.serving import ServiceCosts
    models = (FLEET_MODELS if args.workload.startswith("fleet")
              else _zoo_models(args.smoke))
    costs = ServiceCosts.resolve(models)
    npu = NPUTandem()
    Path(args.reference).write_text(json.dumps({
        "costs": {m: _cost_record(costs.costs[m]) for m in models},
        "digests": {m: _program_digest(npu.compile(m)) for m in models},
    }))


def failed_ops(problems: Sequence[str], ops: Sequence[str],
               passes: int) -> int:
    """How many of the ``passes x ops`` operations the problems fail.

    A problem starts with the op it failed: ``"pass3/run: ..."`` fails
    that pass only, ``"bert: ..."`` (found on the last pass, which every
    pass repeated) fails that op in every pass, and a head naming no op
    fails every op.
    """
    failed = set()
    for problem in problems:
        where, _, op = problem.split(":", 1)[0].rpartition("/")
        rounds = [where] if where else [f"pass{i}" for i in range(passes)]
        names = [op] if op in ops else ops
        failed.update((r, name) for r in rounds for name in names)
    return len(failed)


def repetition(args) -> Dict:
    """Set up, time and check one repetition; return its record."""
    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}/{args.rep}").install()
    workload = CLASSES[args.workload](args)
    workload.setup()
    ready = time.perf_counter()
    setup_s = time.monotonic() - args.spawn
    # probes[k] is taken right before the k-th timed step (counting over
    # all passes) and right after the one before it.
    probes = [host_probe()]
    if tracer is not None:
        tracer.phase = "run"
    single = tracer is not None or not workload.repeatable
    passes: List[List[float]] = []
    problems: List[str] = []
    first = run_at = run_span = None
    while True:
        steps = []
        for step in workload.steps():
            start = time.perf_counter()
            step()
            end = time.perf_counter()
            steps.append(end - start)
            if run_at is None:
                run_at = start
            probes.append(host_probe())
        passes.append(steps)
        if run_span is None:
            run_span = end - run_at
        if tracer is not None:
            tracer.stop()
        got = workload.pass_outputs()
        if first is None:
            first = got
        problems += [f"pass{len(passes) - 1}/{op}: outputs differ from "
                     f"pass 0" for op in got if got[op] != first[op]]
        if single or (len(passes) >= MIN_PASSES
                      and sum(map(sum, passes)) >= args.pass_seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    final_problems, outputs = workload.check()
    problems += final_problems
    record = {
        "setup_s": setup_s,
        "pass_steps_s": passes,
        "run_at_s": setup_s + (run_at - ready),
        "run_span_s": run_span,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(passes) * len(workload.ops),
        "failed": failed_ops(problems, workload.ops, len(passes)),
        "problems": problems,
        "outputs": outputs,
    }
    if tracer is not None:
        trace = tracer.result()
        # Span start times relative to the child's start.
        origin = ready - setup_s
        trace["spans"] = [(layer, start - origin, dur, sid, parent, op)
                          for layer, start, dur, sid, parent, op
                          in trace["spans"]]
        record["trace"] = trace
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, default=None,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--result", help="where to write the JSON record")
    parser.add_argument("--pass-seconds", type=float, default=0.0,
                        help="time passes until this many seconds have run")
    parser.add_argument("--reference", help="cold reference JSON")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--prep", action="store_true")
    args = parser.parse_args(argv)
    if args.prep:
        prep(args)
        return 0
    if args.spawn is None:
        args.spawn = time.monotonic()
    try:
        record = repetition(args)
    except LayerMapError as err:
        print(err, file=sys.stderr)
        return LAYER_MAP_EXIT
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
