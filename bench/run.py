"""Seeded benchmark of the compile, cache-load and fleet paths.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--out DIR]
    python3 bench/run.py --compare A.json B.json

Runs each workload named in ``BENCHMARK.json`` (or only ``--workload``)
as a closed batch of repetitions.  Every repetition is a fresh,
single-threaded ``python`` child started one at a time with a hermetic
environment: inherited ``REPRO_*`` variables are dropped, ``REPRO_SEED``
comes from ``--seed`` and ``REPRO_CACHE_DIR`` is a private directory
under ``--out``.  A repetition sets up once and times passes of about a
second each for a quarter of ``--seconds`` (a cold workload times one
pass).  Repetitions continue until ``--seconds`` of them have run (at
least three).  ``run_s`` is the median over every untraced pass and
``setup_s`` the median over the untraced repetitions, both scaled by a
host-speed probe (see :func:`host_values`); simulated and counted
outputs must repeat exactly, and a repetition whose outputs differ, or
whose checks fail, counts its operations as failed.

With ``--trace`` every other repetition wraps the layer entry points of
``layers.py`` and times one pass; the traced repetitions give the
per-layer metrics and one Chrome trace per workload in ``--out``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (or, with
``--trace``, the per-layer metrics).
Each run also writes ``results-*.json`` to ``--out``; ``--compare``
prints the verdict of one such file, or a directory of them, against
another.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Nothing is written under the repository except ``--out``.
sys.dont_write_bytecode = True

import layers  # noqa: E402
from workloads import LAYER_MAP_EXIT  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 12345

#: Workloads whose repetitions read a cache the prep child filled cold.
WARM = ("zoo_warm", "fleet_day", "fleet_chaos")
#: Untraced (and, with ``--trace``, traced) repetitions per workload.
MIN_REPS = 3
#: An untraced repetition times passes for ``--seconds / PASS_SHARE``
#: seconds, so about ``PASS_SHARE - 1`` repetitions fill a run.
PASS_SHARE = MIN_REPS + 1
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: No new repetition starts if it would likely end past this many
#: seconds after the workload started.
WORKLOAD_DEADLINE_S = 160.0

#: Median probe-slice time (ms) that defines a reference-speed second:
#: the quiet-host median on the 2-vCPU x86 VM the baselines were taken on.
PROBE_REF_MS = 3.75
HOST_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB",
              "setup_raw_s": "s", "run_raw_s": "s", "probe_ms": "ms"}
#: Units of the simulated and counted outputs; ``BENCHMARK.json`` wins
#: for the metrics it lists.
OUTPUT_UNITS = {
    "npu_geomean_us": "sim_us",
    "code_kwords": "kwords",
    "cache_mb": "MiB",
    "sim_p99_ms": "sim_ms",
    "sim_p99_samples": "count",
    "sim_slo_attainment": "ratio",
    "bounded_rps_per_dollar": "rps/USD",
    "sim_events": "count",
    "scale_events": "count",
    "retries": "count",
    "ejects": "count",
    "crashes": "count",
    "alerts": "count",
}
#: Serving outputs reported with the per-layer metrics (0 on workloads
#: that run no fleet): ``metric -> output``.
SERVING_OUTPUTS = {
    "serving.sim_p99_ms": "sim_p99_ms",
    "serving.sim_p99_samples": "sim_p99_samples",
    "serving.sim_slo_attainment": "sim_slo_attainment",
    "serving.bounded_rps_per_dollar": "bounded_rps_per_dollar",
}


class ChildFailed(RuntimeError):
    """A repetition's child process crashed or timed out."""


def per_layer_units():
    units = layers.metric_units()
    units.update({name: OUTPUT_UNITS[out]
                  for name, out in SERVING_OUTPUTS.items()})
    return units


def host_values(reps):
    """Host metric values of a workload's untraced repetitions.

    ``run_s`` has one value per timed pass and ``setup_s`` one per
    repetition; their medians are the metrics.  Each step of a pass is
    scaled to reference-speed seconds by the host probe taken right
    before and right after it, and each set-up by the probe right after
    it.  On a shared host a co-tenant can slow every process by up to 2x
    for tens of seconds; the probe and the workload slow together, so
    the ratio holds.  Slowdowns shorter than a pass hit single passes,
    which the median leaves out.  The unscaled times stay in the results
    as ``*_raw_s``; ``probe_ms`` has one value per step.
    """
    run, raw, probe_ms = [], [], []
    for r in reps:
        probes, k = r["probes"], 0
        for steps in r["pass_steps_s"]:
            scaled = 0.0
            for t in steps:
                ms = 1e3 * statistics.median(probes[k] + probes[k + 1])
                scaled += t * PROBE_REF_MS / ms
                probe_ms.append(ms)
                k += 1
            run.append(scaled)
            raw.append(sum(steps))
    return {
        "setup_s": [r["setup_s"] * PROBE_REF_MS
                    / (1e3 * statistics.median(r["probes"][0]))
                    for r in reps],
        "run_s": run,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_raw_s": [r["setup_s"] for r in reps],
        "run_raw_s": raw,
        "probe_ms": probe_ms,
    }


def central(values):
    """The median; a value every repetition repeated is kept as it is."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def child_env(seed, cache_dir, work, out):
    # Bytecode is always cached, under --out, so import cost does not
    # depend on the caller's PYTHONDONTWRITEBYTECODE.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update({
        "REPRO_SEED": str(seed),
        "REPRO_CACHE_DIR": str(cache_dir),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(out / "pycache"),
        "TMPDIR": str(work / "tmp"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(workload, args, work, cache_dir, extra):
    """Run one child to completion; return its wall time in seconds."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload,
           "--seed", str(args.seed),
           "--pass-seconds", repr(0.0 if args.smoke
                                  else args.seconds / PASS_SHARE)] + extra
    if args.smoke:
        cmd.append("--smoke")
    env = child_env(args.seed, cache_dir, work, args.out)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn", repr(start)], env=env,
                              cwd=work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: child timed out after "
                          f"{CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode == LAYER_MAP_EXIT:
        raise layers.LayerMapError(proc.stderr.strip())
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}\n"
                          f"{proc.stderr[-4000:]}")
    return time.monotonic() - start


def have_reps(reps, args, need):
    """At least ``need`` untraced (and, with --trace, traced) reps."""
    traced = sum(r["traced"] for r in reps)
    return len(reps) - traced >= need and traced >= (need if args.trace else 0)


def bench_workload(name, args):
    """All repetitions of one workload, as child records."""
    work = args.out / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    started = time.monotonic()
    try:
        reference = work / "reference.json"
        if name in WARM:
            run_child(name, args, work, work / "cache",
                      ["--prep", "--reference", str(reference)])
        reps, measured, longest = [], 0.0, 0.0
        need = 1 if args.smoke else MIN_REPS
        while not (have_reps(reps, args, need)
                   and (args.smoke or measured >= args.seconds)):
            i = len(reps)
            if have_reps(reps, args, 1) and (
                    time.monotonic() - started + longest
                    > WORKLOAD_DEADLINE_S):
                break
            traced = bool(args.trace) and i % 2 == 1
            cache_dir = work / ("cache" if name in WARM else f"cache-{i}")
            result = work / f"rep{i}.json"
            extra = ["--rep", str(i), "--result", str(result),
                     "--reference", str(reference)]
            wall = run_child(name, args, work, cache_dir,
                             extra + (["--trace"] if traced else []))
            record = json.loads(result.read_text())
            record.update(rep=i, traced=traced)
            reps.append(record)
            measured += wall
            longest = max(longest, wall)
            if name not in WARM:
                shutil.rmtree(cache_dir, ignore_errors=True)
        return reps
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def _differs(got, first, keys):
    return sorted(k for k in keys if got.get(k) != first.get(k))


def summarize(name, reps, spec):
    """Checks, metric values per repetition, and the per-layer metrics."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [f"rep {r['rep']}: {p}" for r in reps for p in r["problems"]]

    def mismatch(rep, what, diff):
        # Outputs that do not repeat fail every op of the repetition.
        nonlocal failed
        failed += rep["attempted"] - rep["failed"]
        problems.append(f"rep {rep['rep']}: {what} differ from rep "
                        f"{reps[0]['rep']}: {', '.join(diff)}")

    first = reps[0]["outputs"]
    for r in reps[1:]:
        diff = _differs(r["outputs"], first, set(r["outputs"]) | set(first))
        if diff:
            mismatch(r, "outputs", diff)

    units = dict(HOST_UNITS)
    values = host_values(plain)
    for key in first:
        if key in OUTPUT_UNITS:
            values[key] = [r["outputs"][key] for r in plain]
            units[key] = OUTPUT_UNITS[key]
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"]})

    layer_values, layer_self_s = {}, {}
    if traced:
        plain_run = statistics.median(values["run_s"])
        per_rep = []
        for r in traced:
            trace, run_s = r["trace"], sum(r["pass_steps_s"][0])
            metrics = layers.layer_metrics(trace, r["setup_s"] + run_s)
            metrics["trace.unattributed_share"] = \
                100.0 * (run_s - trace["covered"]["run"]) / run_s
            metrics["trace.overhead"] = \
                host_values([r])["run_s"][0] / plain_run - 1.0
            for metric, output in SERVING_OUTPUTS.items():
                metrics[metric] = r["outputs"].get(output, 0)
            per_rep.append(metrics)
        counted = [k for k, unit in per_layer_units().items()
                   if unit in ("count", "bytes")]
        for r, metrics in zip(traced[1:], per_rep[1:]):
            diff = _differs(metrics, per_rep[0], counted)
            if diff:
                mismatch(r, "traced counts", diff)
        layers.check_expected(name, {
            layer: calls for layer, (calls, _) in
            traced[0]["trace"]["stats"].items()})
        layer_values = {key: [m[key] for m in per_rep]
                        for key in per_layer_units()}
        layer_self_s = {
            layer: statistics.median(r["trace"]["stats"][layer][1]
                                     for r in traced)
            for layer in traced[0]["trace"]["stats"]}
    values["error_rate"] = [failed / attempted]
    units["error_rate"] = "ratio"
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "reps": len(reps),
        "traced_reps": len(traced),
        "units": units,
        "values": values,
        "layer_values": layer_values,
        "layer_self_s": layer_self_s,
        "host": [{"rep": r["rep"], "traced": r["traced"],
                  "setup_s": r["setup_s"], "pass_steps_s": r["pass_steps_s"],
                  "probes_ms": [[1e3 * p for p in bracket]
                                for bracket in r["probes"]]}
                 for r in reps],
    }


def write_chrome_trace(path, name, seed, traced):
    """One Chrome trace (chrome://tracing, Perfetto) of the traced reps."""
    events = []
    for r in traced:
        pid = r["rep"]
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": f"{name} rep {pid}"}})
        for phase, ts, dur in (("setup", 0.0, r["setup_s"]),
                               ("run", r["run_at_s"], r["run_span_s"])):
            events.append({"name": phase, "cat": "bench", "ph": "X",
                           "ts": ts * 1e6, "dur": dur * 1e6, "pid": pid,
                           "tid": 0, "args": {"op": f"{name}/{pid}"}})
        for layer, start, dur, span, parent, op in r["trace"]["spans"]:
            events.append({"name": layer, "cat": layer.split(".")[0],
                           "ph": "X", "ts": start * 1e6, "dur": dur * 1e6,
                           "pid": pid, "tid": 0,
                           "args": {"span": span, "parent": parent,
                                    "op": op}})
    path.write_text(json.dumps({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": name, "seed": seed,
                      "dropped_spans": {str(r["rep"]): r["trace"]["dropped"]
                                        for r in traced}},
    }, separators=(",", ":")))


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(name, summary, args):
    print(f"== {name}: seed {args.seed}, {summary['reps']} reps "
          f"({summary['traced_reps']} traced), "
          f"{len(summary['values']['run_s'])} untraced passes, attempted "
          f"{summary['attempted']}, failed {summary['failed']}")
    for problem in summary["problems"]:
        print(f"  FAILED {problem}")
    for key, vals in summary["values"].items():
        unit = summary["units"][key]
        q1, q3 = quartiles(vals)
        line = f"  {key:<24} {fmt(central(vals)):>12} {unit:<8}"
        if len(set(vals)) > 1:
            line += f" q1 {fmt(q1)} q3 {fmt(q3)}"
        if key == "sim_p99_ms":
            samples = summary["values"]["sim_p99_samples"][0]
            line += f" ({samples} samples)"
        print(line)
    values = summary["layer_values"]
    if values:
        units = per_layer_units()
        print(f"  -- per layer, median of {summary['traced_reps']} traced "
              f"reps; self % is of set-up + run")
        print(f"  {'layer':<24} {'calls':>9} {'self s':>9} {'self %':>7}")
        for layer in layers.LAYERS:
            calls = central(values[f"{layer.name}.calls"])
            pct = central(values[f"{layer.name}.self_pct"])
            print(f"  {layer.name:<24} {fmt(calls):>9} "
                  f"{summary['layer_self_s'][layer.name]:9.4f} {pct:7.2f}")
        for key, vals in values.items():
            if not key.endswith((".calls", ".self_pct")):
                print(f"  {key:<30} {fmt(central(vals)):>12} "
                      f"{units[key]}")


def result_line(summaries, spec, trace):
    """The final JSON object (metrics prefixed by workload when several)."""
    metrics = {}
    for name, summary in summaries.items():
        if trace:
            chosen = {m["name"]: (summary["layer_values"][m["name"]],
                                  m["unit"]) for m in spec["per_layer"]}
        else:
            chosen = {m["name"]: (summary["values"][m["name"]], m["unit"])
                      for m in spec["end_to_end"]}
        prefix = f"{name}." if len(summaries) > 1 else ""
        for key, (vals, unit) in chosen.items():
            metrics[prefix + key] = {"value": central(vals),
                                     "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def verdict(a, b, better, bound):
    """``within bound``, ``worse``, ``better`` or ``unresolved``."""
    ma, mb = statistics.median(a), statistics.median(b)
    scale = abs(ma) or 1.0
    spread = max((q3 - q1) / (abs(m) or 1.0)
                 for (q1, q3), m in ((quartiles(a), ma), (quartiles(b), mb)))
    worse_by = (mb - ma if better == "lower" else ma - mb) / scale
    if spread > bound:
        b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "better" if b_wins else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def load_side(path):
    """The runs one side of ``--compare`` names: one results file, or
    every ``results-*.json`` in a directory."""
    path = Path(path)
    files = sorted(path.glob("results-*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def side_values(runs, name):
    """One side's values of each metric on workload ``name``.

    A single run gives its own samples (passes or repetitions); several
    runs give one value per run, its median, so that the quartiles are
    the run-to-run spread.
    """
    values = [r["workloads"][name]["values"] for r in runs
              if name in r["workloads"]]
    if len(values) <= 1:
        return values[0] if values else {}
    return {key: [central(v[key]) for v in values]
            for key in values[0] if all(key in v for v in values)}


def output_verdict(a, b, name, key):
    """Simulated and counted outputs must repeat exactly for a seed, so
    they are compared run by run on the seeds both sides ran."""
    def by_seed(runs):
        return {r["seed"]: r["workloads"][name]["values"][key] for r in runs
                if key in r["workloads"].get(name, {}).get("values", {})}
    sa, sb = by_seed(a), by_seed(b)
    common = sa.keys() & sb.keys()
    if not common:
        return "other seeds"
    same = all(set(sa[s]) == set(sb[s]) for s in common)
    return "identical" if same else "differs"


def compare(path_a, path_b, spec):
    a, b = load_side(path_a), load_side(path_b)
    if not a or not b:
        print("run.py: --compare found no results-*.json on one side",
              file=sys.stderr)
        return 2
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bad = 0
    print(f"{len(a)} run(s) in A, {len(b)} run(s) in B")
    print(f"{'workload':<12} {'metric':<24} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for name in dict.fromkeys(n for r in a for n in r["workloads"]):
        va, vb = side_values(a, name), side_values(b, name)
        for key in va:
            if key not in vb:
                continue
            if key in bounds:
                better, bound = bounds[key]
                result = verdict(va[key], vb[key], better, bound)
            elif key in HOST_UNITS:
                result = "unscaled, no bound"
            else:
                result = output_verdict(a, b, name, key)
            bad += result in ("worse", "unresolved", "differs")
            cells = []
            for vals in (va[key], vb[key]):
                q1, q3 = quartiles(vals)
                cells.append(f"{fmt(central(vals))} "
                             f"[{fmt(q1)}, {fmt(q3)}]")
            print(f"{name:<12} {key:<24} {cells[0]:>34} {cells[1]:>34}  "
                  f"{result}")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Seeded benchmark of the compile, cache-load and fleet "
                    "paths.")
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition on small inputs")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results-*.json files, or two "
                             "directories of them (one per run)")
    return parser.parse_args(argv)


def main(argv=None):
    if not SPEC_PATH.is_file():
        print(f"run.py: {SPEC_PATH.name} not found next to bench/",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("run.py: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    missing = {m["name"] for m in spec["per_layer"]} - set(per_layer_units())
    if missing:
        print(f"run.py: BENCHMARK.json names per-layer metrics no layer "
              f"produces: {', '.join(sorted(missing))}", file=sys.stderr)
        return 3
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    summaries = {}
    try:
        for name in names:
            reps = bench_workload(name, args)
            summaries[name] = summarize(name, reps, spec)
            print_summary(name, summaries[name], args)
            if args.trace:
                trace_path = args.out / f"trace-{name}-{args.seed}.json"
                write_chrome_trace(trace_path, name, args.seed,
                                   [r for r in reps if r["traced"]])
                print(f"  chrome trace: {trace_path}")
    except ChildFailed as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    except layers.LayerMapError as err:
        print(f"run.py: layer map: {err}", file=sys.stderr)
        return 3
    label = args.workload or "all"
    kind = ("-smoke" if args.smoke else "") + ("-trace" if args.trace else "")
    results = args.out / (f"results-{label}-{args.seed}{kind}-"
                          f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    results.write_text(json.dumps({
        "seed": args.seed, "smoke": args.smoke, "trace": args.trace,
        "seconds": args.seconds,
        "workloads": {name: {k: s[k] for k in (
            "attempted", "failed", "problems", "units", "values",
            "layer_values", "host")} for name, s in summaries.items()},
    }, indent=1))
    print(f"results: {results}")
    line = result_line(summaries, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
