"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``models`` — list the benchmark models.
* ``evaluate MODEL [--design NAME]`` — end-to-end latency/energy on one
  design point (``npu``, ``baseline1``, ``baseline2``, ``gemmini``,
  ``gemmini32``, ``vpu``, ``jetson``, ``rtx2080ti``, ``a100-tensorrt``,
  ``a100-cuda``).
* ``compare MODEL`` — one model across every design class.
* ``compile MODEL [--disassemble N] [--dump FILE] [--explain]
  [--autotune]`` — compile and inspect/serialize the Tandem programs;
  ``--explain`` narrates the pass pipeline, ``--autotune`` searches it
  first.
* ``autotune MODEL [--budget N] [--jobs N] [--json FILE]`` — search the
  compiler pass pipeline for one model, scored by the cycle model (see
  :mod:`repro.compiler.autotune`).
* ``experiment ID [ID...] [--jobs N]`` — regenerate paper
  figures/tables, optionally across worker processes.
* ``trace MODEL [--json FILE]`` — ASCII timeline of the
  software-pipelined execution, optionally also exported as a
  Perfetto-loadable Chrome trace-event file.
* ``profile MODEL [--trace-out FILE]`` — run one model with telemetry
  on: compile/verify/simulate spans, the hardware-counter dump, and
  optionally a merged Chrome trace (host spans + device tile timeline).
* ``cache {stats,clear,path}`` — inspect or drop the content-addressed
  evaluation cache (``.repro_cache``; see :mod:`repro.runtime.cache`).
* ``serve --model M --devices N --rate R`` — simulate a serving fleet
  of NPU-Tandem devices under load (see :mod:`repro.serving`).
  ``--faults plan.json`` injects a fault plan; ``--resilience
  {naive,resilient}`` picks the response policy (default: resilient
  when faults are injected, naive otherwise); ``--monitor`` streams SLO
  burn-rate alerts; ``--cells``/``--autoscale``/``--diurnal`` run
  datacenter-scale days on the same core.
* ``serve --llm`` — LLM mode: sweep continuous vs one-shot batching
  over decode-step costs and report goodput at SLO, TTFT and
  inter-token latency percentiles (see :mod:`repro.llm.sweep`).
* ``decode CONFIG [--prompt N] [--tokens N]`` — autoregressive
  KV-cache decoding on the detailed machine (``tinyllm``) or the
  integer reference, one table row per prefill/decode step.
* ``chaos`` — sweep fault-rate scales x resilience policies and report
  goodput retention vs the fault-free control (see
  :mod:`repro.faults.chaos`).
* ``docs`` — regenerate the ISA reference (``docs/isa.md``) from the
  ISA definitions; ``--check`` fails when the checked-in file drifts,
  ``--coverage`` gates docstring coverage instead.
* ``verify TARGET... | --all`` — static verification of compiled Tandem
  programs (zoo model names, serialized ``compile --dump`` JSON, or raw
  program blobs); exit 1 on any error finding (``--strict``: warnings
  too). ``lint`` is the same pipeline showing the info tier as well.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from .runtime import KnobError, knobs
from .schema import report_json

# Each command imports the modules it runs inside its ``cmd_*``
# function, and a design's factory imports it when called, so start-up
# loads only what the argument parser needs.


def _npu():
    from .npu import NPUTandem
    return NPUTandem()


def _baselines():
    from . import baselines
    return baselines


def _gpu(device: str, *stack: str):
    baselines = _baselines()
    return baselines.GpuDesign(getattr(baselines, device), *stack)


_DESIGNS: Dict[str, Callable[[], object]] = {
    "npu": _npu,
    "baseline1": lambda: _baselines().CpuFallbackDesign(),
    "baseline2": lambda: _baselines().DedicatedUnitsDesign(),
    "gemmini": lambda: _baselines().GemminiDesign(1),
    "gemmini32": lambda: _baselines().GemminiDesign(32),
    "vpu": lambda: _baselines().TpuVpuDesign(),
    "jetson": lambda: _gpu("JETSON_XAVIER_NX"),
    "rtx2080ti": lambda: _gpu("RTX_2080_TI"),
    "a100-tensorrt": lambda: _gpu("A100", "tensorrt"),
    "a100-cuda": lambda: _gpu("A100", "cuda"),
}


def _invalid(command: str, what: str, problems: List[str]) -> bool:
    """Print a report's validation problems to stderr; True if any."""
    if problems:
        print(f"repro {command}: invalid {what}:\n  " + "\n  ".join(problems),
              file=sys.stderr)
    return bool(problems)


def _fault_plan(command: str, path: str):
    """The fault plan in ``path``, or ``None`` after one stderr line
    saying why it cannot be read."""
    from .faults import FaultPlan
    try:
        return FaultPlan.from_file(path)
    except OSError as error:
        reason = error.strerror or str(error)
    except (TypeError, ValueError) as error:
        reason = str(error)
    print(f"repro {command}: fault plan {path}: {reason}", file=sys.stderr)
    return None


def _write(path: str, text: str) -> None:
    """Write one output file and say so."""
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _result_row(result) -> tuple:
    return (result.design, result.total_seconds * 1e3,
            result.energy_joules * 1e3, result.average_power_watts)


def cmd_models(_args) -> int:
    """List the model-zoo names, one per line."""
    from .models import available_models
    for name in available_models():
        print(name)
    return 0


def cmd_evaluate(args) -> int:
    """Evaluate one model on one design point; optional per-op breakdown."""
    from .harness import render_table
    from .runtime import cached_evaluate
    design = _DESIGNS[args.design]()
    result = cached_evaluate(design, args.model)
    print(render_table(("design", "latency (ms)", "energy (mJ)", "power (W)"),
                       [_result_row(result)],
                       title=f"{args.model} on {args.design}"))
    if args.per_op and result.per_op_seconds:
        rows = sorted(result.per_op_seconds.items(), key=lambda kv: -kv[1])
        print()
        print(render_table(("operator", "seconds"), rows,
                           title="non-GEMM time per operator"))
    return 0


def cmd_compare(args) -> int:
    """Evaluate one model across every registered design class."""
    from .harness import render_table
    from .runtime import cached_evaluate
    rows = [_result_row(cached_evaluate(_DESIGNS[name](), args.model))
            for name in _DESIGNS]
    print(render_table(("design", "latency (ms)", "energy (mJ)", "power (W)"),
                       rows, title=f"{args.model} across design classes"))
    return 0


def cmd_compile(args) -> int:
    """Compile a model; optionally explain, disassemble, or dump JSON."""
    from .compiler import dump_model
    from .npu import NPUTandem
    npu = NPUTandem(autotune=True if args.autotune else None)
    if args.explain:
        from .compiler import explain_compile
        from .models import build_model
        graph = build_model(args.model)
        model, lines = explain_compile(
            graph, npu.config.sim, npu.config.gemm,
            special_functions=npu.special_functions,
            pipeline=npu.pipeline_for(graph))
        print("\n".join(lines))
    else:
        model = npu.compile(args.model)
    print(f"{args.model}: {len(model.blocks)} blocks, "
          f"{model.total_instructions()} Tandem instruction words")
    if args.disassemble:
        shown = 0
        for cb in model.blocks:
            if cb.tile is None:
                continue
            print(f"\n--- {cb.name} (tiles={cb.tiles}) ---")
            print(cb.tile.program.disassemble())
            shown += 1
            if shown >= args.disassemble:
                break
    if args.dump:
        _write(args.dump, dump_model(model))
    return 0


def cmd_autotune(args) -> int:
    """Search the pass pipeline for one model; print/export the report."""
    from .compiler import autotune_model
    from .harness import render_table
    from .models import build_model
    from .npu import NPUTandem

    npu = NPUTandem()
    graph = build_model(args.model)
    jobs = args.jobs if args.jobs is not None else knobs.get("REPRO_JOBS")
    report = autotune_model(graph, npu.config, budget=args.budget, jobs=jobs,
                            special_functions=npu.special_functions)
    rows = []
    for cand in report.candidates:
        cycles = cand["cycles"]
        rows.append((cand["label"], cand["status"],
                     f"{cycles:.0f}" if cycles is not None else "-",
                     (f"{cycles / report.baseline_cycles:.4f}"
                      if cycles is not None else "-")))
    print(render_table(("pipeline", "status", "cycles", "vs default"), rows,
                       title=f"autotune {args.model} "
                             f"({report.strategy}, budget {report.budget}"
                             f"{', cached' if report.cached else ''})"))
    print(f"\nbest: {report.best_label} — {report.best_cycles:.0f} cycles, "
          f"{report.improvement * 100:.2f}% below the default pipeline "
          f"({report.counters['candidates']} candidates, "
          f"{report.counters['verifier_rejects']} verifier-rejected, "
          f"{report.counters['cache_hits']} cache hits)")
    if args.json:
        _write(args.json, report_json(report.as_dict()))
    return 0


def _render_experiment(exp_id: str) -> str:
    from .harness import run_experiment
    return run_experiment(exp_id).render()


def cmd_experiment(args) -> int:
    """Regenerate paper figures/tables, optionally across processes."""
    from .harness import all_experiment_ids
    from .runtime import parallel_map
    unknown = sorted(set(args.ids) - set(all_experiment_ids()))
    if unknown:
        print(f"repro experiment: unknown experiment(s) "
              f"{', '.join(unknown)}; known: "
              f"{', '.join(all_experiment_ids())}", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs is not None else knobs.get("REPRO_JOBS")
    for text in parallel_map(_render_experiment, args.ids, jobs=jobs):
        print(text)
        print()
    return 0


def cmd_cache(args) -> int:
    """Inspect, clear, or print the path of the evaluation cache."""
    from .harness import render_table
    from .runtime import get_cache
    cache = get_cache()
    if args.action == "clear":
        cache.clear()
        print("cache cleared")
    elif args.action == "path":
        print(cache.directory if cache.directory is not None else "(memory)")
    else:  # stats
        counts = cache.entry_counts()
        rows = [(kind, counts[kind]) for kind in sorted(counts)] or \
            [("(empty)", 0)]
        print(render_table(("kind", "entries"), rows,
                           title=f"cache at {cache.directory}"))
        stats = cache.stats.as_dict()
        print()
        print(render_table(("counter", "value"),
                           [(k, stats[k]) for k in sorted(stats)],
                           title="this process"))
    return 0


def cmd_trace(args) -> int:
    """Render the tile timeline; optionally export a Chrome trace."""
    from .npu import render_timeline, trace_model
    events = trace_model(args.model)
    print(render_timeline(events[:args.events], width=args.width))
    if args.json:
        from .telemetry.export import (
            chrome_trace,
            tile_timeline_events,
            write_trace,
        )
        payload = chrome_trace(
            [], device_events=tile_timeline_events(events),
            extra_other_data={"model": args.model})
        write_trace(args.json, payload)
        print(f"wrote {args.json}")
    return 0


def cmd_profile(args) -> int:
    """Run one model with telemetry on: spans, counters, optional trace."""
    from .analysis.verifier import verify_model
    from .compiler import compile_model
    from .models import build_model
    from .npu import NPUTandem, trace_model
    from .telemetry import Telemetry, scoped_telemetry
    from .telemetry.export import (
        chrome_trace,
        format_counters,
        tile_timeline_events,
        write_trace,
    )

    npu = NPUTandem()
    graph = build_model(args.model)
    pipeline = npu.pipeline_for(graph)
    with scoped_telemetry(Telemetry(enabled=True,
                                    label=f"profile:{args.model}")) as tel:
        with tel.span("profile", cat="host", model=args.model):
            # Compile without the implicit verification pass, then verify
            # and simulate explicitly: each phase gets its own span even
            # when the compile cache is warm, and evaluating the
            # CompiledModel bypasses the result cache so the simulation
            # really runs and populates the npu.* counters.
            model = compile_model(graph, npu.config.sim, npu.config.gemm,
                                  special_functions=npu.special_functions,
                                  verify=False, pipeline=pipeline)
            with tel.span("verify", cat="compiler", model=args.model):
                report = verify_model(model)
            with tel.span("simulate", cat="npu", model=args.model):
                result = npu.evaluate(model)
        snapshot = tel.snapshot()

    print(f"{args.model} on {npu.name}: {result.total_seconds * 1e3:.4f} ms, "
          f"verification {'clean' if report.clean else 'DIRTY'}")
    print()
    print(format_counters(snapshot["counters"],
                          title=f"hardware counters: {args.model}"))
    if args.trace_out:
        payload = chrome_trace(
            [snapshot],
            device_events=tile_timeline_events(trace_model(model, npu)),
            extra_other_data={"model": args.model, "design": npu.name})
        write_trace(args.trace_out, payload)
        print(f"\nwrote {args.trace_out}")
    return 0


def cmd_decode(args) -> int:
    """Autoregressively decode on the detailed machine; print each step."""
    from .harness import render_table
    from .llm import DecodeSession, available_llm_configs, get_llm_config
    from .runtime import seeded_rng

    if args.config not in available_llm_configs():
        print(f"repro decode: unknown config {args.config!r}; available: "
              f"{', '.join(available_llm_configs())}", file=sys.stderr)
        return 2
    config = get_llm_config(args.config)
    if args.prompt + args.tokens > config.max_context:
        print(f"repro decode: prompt + tokens exceeds {args.config}'s "
              f"{config.max_context}-token context window", file=sys.stderr)
        return 2
    rng = seeded_rng("llm-prompt", args.config, args.prompt)
    prompt = [int(t) for t in rng.integers(0, config.vocab, args.prompt)]
    session = DecodeSession(config, executor=args.executor)
    session.prefill(prompt)
    generated = session.decode(args.tokens)
    rows = [(r.phase, r.past_len, r.n_new,
             " ".join(str(t) for t in r.tokens_in), r.next_token,
             r.blocks or "-", r.machine_cycles or "-")
            for r in session.records]
    print(render_table(
        ("phase", "past", "new", "tokens in", "argmax", "blocks", "cycles"),
        rows, title=f"{args.config} ({args.executor}): "
                    f"{args.prompt}-token prompt, {args.tokens} decoded"))
    print(f"\ngenerated: {' '.join(str(t) for t in generated)}")
    print(f"KV-cache: {session.past_len} tokens resident, "
          f"{session.past_len * config.kv_bytes_per_token} DRAM bytes")
    if args.json:
        import json
        payload = {
            "config": args.config,
            "executor": args.executor,
            "prompt": prompt,
            "generated": generated,
            "kv_tokens": session.past_len,
            "kv_bytes": session.past_len * config.kv_bytes_per_token,
            "steps": [{"phase": r.phase, "past_len": r.past_len,
                       "n_new": r.n_new, "tokens_in": list(r.tokens_in),
                       "next_token": r.next_token, "blocks": r.blocks,
                       "machine_cycles": r.machine_cycles}
                      for r in session.records],
        }
        _write(args.json, report_json(payload))
    return 0


def _cmd_serve_llm(args) -> int:
    """The ``serve --llm`` path: continuous vs one-shot batching sweep."""
    defaults = build_parser().parse_args(["serve"])
    for flag in ("faults", "resilience", "cells", "autoscale", "routing",
                 "devices"):
        if getattr(args, flag) != getattr(defaults, flag):
            print(f"repro serve: --{flag} does not apply to --llm (LLM "
                  f"batching runs on one device)", file=sys.stderr)
            return 2
    from .llm import llm_grid, llm_report, llm_table, validate_llm_report
    from .runtime import parallel_map
    from .serving import LLM_SCHEDULERS, LLMServiceCosts, run_cell

    schedulers = tuple(s.strip() for s in args.schedulers.split(",")
                       if s.strip())
    unknown = [s for s in schedulers if s not in LLM_SCHEDULERS]
    if unknown:
        print(f"repro serve: unknown LLM schedulers {', '.join(unknown)}; "
              f"known: {', '.join(LLM_SCHEDULERS)}", file=sys.stderr)
        return 2
    rates = None
    if args.rates:
        try:
            rates = tuple(float(r) for r in args.rates.split(",")
                          if r.strip())
        except ValueError:
            print(f"repro serve: --rates must be comma-separated numbers, "
                  f"got {args.rates!r}", file=sys.stderr)
            return 2
    costs = LLMServiceCosts.resolve(args.llm_config,
                                    kv_budget_tokens=args.kv_budget)
    max_slots = args.slots or knobs.get("REPRO_LLM_MAX_SLOTS")
    cells = llm_grid(costs=costs, schedulers=schedulers, rates=rates,
                     duration_s=args.duration, max_slots=max_slots)
    jobs = args.jobs if args.jobs is not None else 1
    payload = llm_report([sim.report for sim in
                          parallel_map(run_cell, cells, jobs=jobs)])
    if _invalid("serve", "LLM report", validate_llm_report(payload)):
        return 1  # pragma: no cover - internal invariant
    print(llm_table(payload))
    for scheduler in schedulers:
        entry = payload["summary"][scheduler]
        print(f"{scheduler}: goodput at "
              f">={payload['slo_attainment_bar']:.0%} SLO "
              f"{entry['goodput_at_slo_rps']:.2f} req/s "
              f"(best {entry['best_goodput_rps']:.2f})")
    if payload["summary"].get("continuous_beats_oneshot") is not None:
        verdict = ("continuous batching beats one-shot"
                   if payload["summary"]["continuous_beats_oneshot"]
                   else "continuous batching does NOT beat one-shot")
        print(verdict)
    monitored = knobs.switch("REPRO_MONITOR", args.monitor)
    if monitored or args.trace_out:
        # Re-run the busiest continuous point once with the monitor and
        # tracing attached (both are observational, so the sweep numbers
        # above are untouched).
        from dataclasses import replace

        from .serving import MonitorConfig, validate_monitor_report
        from .telemetry.dashboard import render_dashboard
        from .telemetry.export import (chrome_trace, llm_trace_events,
                                       write_trace)
        cell = max((c for c in cells
                    if c.sim["batch_policy"].kind == "continuous"),
                   default=cells[-1], key=lambda c: c.rate_rps)
        sim = run_cell(replace(cell, sim={
            **cell.sim, "collect_trace": bool(args.trace_out),
            "monitor_config": (MonitorConfig.from_env(
                interval_s=args.monitor_interval) if monitored else None)}))
        if monitored:
            if _invalid("serve", "monitor report",
                        validate_monitor_report(sim.monitor_payload)):
                return 1  # pragma: no cover - internal invariant
            print(render_dashboard(sim.monitor_payload,
                                   color=sys.stdout.isatty()))
            if args.monitor_out:
                _write(args.monitor_out, report_json(sim.monitor_payload))
        if args.trace_out:
            write_trace(args.trace_out, chrome_trace(
                [], device_events=llm_trace_events(sim.trace_log),
                extra_other_data={"config": args.llm_config,
                                  "scheduler": sim.policy.kind,
                                  "rate_rps": cell.rate_rps}))
            print(f"wrote {args.trace_out}")
    if args.json:
        _write(args.json, report_json(payload))
    return 0


def cmd_serve(args) -> int:
    """Simulate a serving fleet: faults, resilience, monitor, cells, autoscale."""
    if args.llm:
        return _cmd_serve_llm(args)
    from .harness import render_table
    from .serving import (
        AdmissionPolicy,
        AutoscaleConfig,
        BatchPolicy,
        ClosedLoop,
        DiurnalTrace,
        MonitorConfig,
        OpenLoopPoisson,
        ResiliencePolicy,
        ScaledFleetSimulator,
        ServiceCosts,
        TraceFileError,
        load_trace,
        save_trace,
        scale_table,
        validate_fleet_scale_report,
        validate_monitor_report,
    )
    models = [m.strip() for m in args.model.split(",") if m.strip()]
    fault_plan = None
    if args.faults:
        fault_plan = _fault_plan("serve", args.faults)
        if fault_plan is None:
            return 2
    autoscale_on = knobs.switch("REPRO_AUTOSCALE", args.autoscale)
    monitor_on = knobs.switch("REPRO_MONITOR", args.monitor)
    monitor_config = (MonitorConfig.from_env(interval_s=args.monitor_interval)
                      if monitor_on else None)
    # Default policy: respond to injected faults, stay naive (nothing
    # armed, nothing to respond to) when nothing is being injected.
    resilience_kind = args.resilience or (
        "resilient" if fault_plan is not None else "naive")
    resilience = ResiliencePolicy(kind=resilience_kind)
    cells = args.cells
    if cells is None:
        # Autoscaling needs multiple cells to act on; default to ~25
        # devices per cell, the sweet spot for the in-cell route scan.
        cells = max(2, args.devices // 25) if autoscale_on else 1
    autoscale = AutoscaleConfig.from_env() if autoscale_on else None
    if args.trace:
        # A replayed trace names its own model mix; --model is ignored.
        try:
            workload = load_trace(args.trace)
        except TraceFileError as error:
            _invalid("serve", f"trace {args.trace}", error.problems)
            return 2
        except (OSError, json.JSONDecodeError) as error:
            print(f"repro serve: cannot read {args.trace}: {error}",
                  file=sys.stderr)
            return 2
        _, picks, names, _ = workload.arrivals()
        models = sorted({names[p] for p in set(picks)})
    config_rows = [
        ("models", "+".join(models)),
        ("devices", f"{args.devices} ({cells} cell(s) x "
                    f"{args.devices // cells if cells else 0})"),
        ("batch policy", f"{args.batch_policy} (max_batch={args.max_batch}, "
                         f"wait={args.max_wait_ms}ms)"),
        ("routing", args.routing),
        ("workload",
         f"trace replay from {args.trace}" if args.trace else
         "closed-loop" if args.closed_loop else
         (f"diurnal @ peak {args.rate} req/s, trough {args.trough:g}x"
          if args.diurnal else f"open-loop poisson @ {args.rate} req/s")),
        ("duration (s)", args.duration),
        ("admission max queue", args.max_queue),
        ("SLO multiplier", args.slo_multiplier),
        ("fault plan", fault_plan.name if fault_plan else "(none)"),
        ("resilience", resilience_kind),
        ("autoscale",
         (f"interval={autoscale.interval_s}s "
          f"min_cells={autoscale.min_cells} "
          f"cooldown={autoscale.cooldown_s}s "
          f"${autoscale.price_per_device_hour}/dev-h")
         if autoscale else "off"),
    ]
    if monitor_on:
        config_rows.append((
            "monitor",
            f"interval={monitor_config.interval_s}s "
            f"window={monitor_config.window_intervals} "
            f"target={monitor_config.objective.target}"))
    if args.dry_run:
        print(render_table(("parameter", "value"), config_rows,
                           title="serve --dry-run (no simulation)"))
        return 0
    try:
        if args.trace:
            rate = 0.0
        elif args.closed_loop:
            workload = ClosedLoop(models, clients=args.clients,
                                  duration_s=args.duration,
                                  think_s=args.think_ms * 1e-3)
            rate = 0.0
        elif args.diurnal:
            workload = DiurnalTrace(models, args.rate, args.duration,
                                    trough_fraction=args.trough)
            rate = args.rate
        else:
            workload = OpenLoopPoisson(models, args.rate, args.duration)
            rate = args.rate
    except ValueError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    if args.save_trace:
        written = save_trace(workload, args.save_trace)
        print(f"wrote {args.save_trace} ({written} requests)")
    costs = ServiceCosts.resolve(models)
    sim = ScaledFleetSimulator(
        costs, devices=args.devices, cells=cells,
        batch_policy=BatchPolicy(args.batch_policy, args.max_batch,
                                 args.max_wait_ms),
        admission=AdmissionPolicy(args.max_queue),
        routing=args.routing,
        slo_multiplier=args.slo_multiplier,
        autoscale=autoscale,
        collect_trace=bool(args.trace_out),
        fault_plan=fault_plan,
        resilience=resilience,
        monitor_config=monitor_config)
    if args.trace_out:
        from .telemetry import Telemetry, scoped_telemetry
        from .telemetry.export import (
            chrome_trace,
            monitor_counter_events,
            serving_trace_events,
            write_trace,
        )
        with scoped_telemetry(Telemetry(enabled=True,
                                        label="serve")) as tel:
            report = sim.run(workload, rate_rps=rate)
            snapshot = tel.snapshot()
        device_events = list(serving_trace_events(sim.trace_log))
        if sim.monitor_payload is not None:
            device_events.extend(monitor_counter_events(sim.monitor_payload))
        write_trace(args.trace_out, chrome_trace(
            [snapshot], device_events=device_events,
            extra_other_data={"models": models, "devices": args.devices}))
    else:
        report = sim.run(workload, rate_rps=rate)
    problems = validate_fleet_scale_report(sim.payload)
    if sim.monitor_payload is not None:
        problems += validate_monitor_report(sim.monitor_payload)
    if _invalid("serve", "report", problems):
        return 1  # pragma: no cover - internal invariant
    print(report.table())
    print(scale_table(sim.payload))
    if sim.monitor_payload is not None:
        from .telemetry.dashboard import render_dashboard
        print(render_dashboard(sim.monitor_payload,
                               color=sys.stdout.isatty()))
    for path, payload in ((args.monitor_out, sim.monitor_payload),
                          (args.scale_out, sim.payload)):
        if path and payload is not None:
            _write(path, report_json(payload))
    if args.trace_out:
        print(f"wrote {args.trace_out}")
    if args.json:
        _write(args.json, report.to_json())
    return 0


def cmd_monitor(args) -> int:
    """Replay a saved monitor report as the terminal dashboard."""
    from .serving import validate_monitor_report
    from .telemetry.dashboard import render_dashboard
    try:
        with open(args.report) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"repro monitor: cannot read {args.report}: {error}",
              file=sys.stderr)
        return 2
    if _invalid("monitor", f"report {args.report}",
                validate_monitor_report(payload)):
        return 1
    color = sys.stdout.isatty() and not args.no_color
    print(render_dashboard(payload, color=color))
    return 0


def cmd_chaos(args) -> int:
    """Sweep fault-rate scales x resilience policies; report retention."""
    from .faults import (
        chaos_grid,
        chaos_report,
        chaos_table,
        default_plan,
        validate_chaos_report,
    )
    from .runtime import parallel_map
    from .serving import RESILIENCE_POLICIES, ServiceCosts, run_cell

    model = args.model.strip()
    if not model or "," in model:
        print(f"repro chaos: --model takes one zoo model, got "
              f"{args.model!r}", file=sys.stderr)
        return 2
    plan = _fault_plan("chaos", args.plan) if args.plan else default_plan()
    if plan is None:
        return 2
    try:
        scales = tuple(float(s) for s in args.scales.split(",") if s.strip())
    except ValueError:
        print(f"repro chaos: --scales must be comma-separated numbers, "
              f"got {args.scales!r}", file=sys.stderr)
        return 2
    policies = tuple(p.strip() for p in args.policies.split(",")
                     if p.strip())
    unknown = [p for p in policies if p not in RESILIENCE_POLICIES]
    if unknown:
        print(f"repro chaos: unknown policies {', '.join(unknown)}; "
              f"known: {', '.join(RESILIENCE_POLICIES)}", file=sys.stderr)
        return 2
    grid = chaos_grid(plan=plan, scales=scales, policies=policies,
                      model=model, devices=args.devices,
                      rate_rps=args.rate, duration_s=args.duration,
                      costs=ServiceCosts.resolve([model]))
    jobs = args.jobs if args.jobs is not None else 1
    sims = parallel_map(run_cell, [cell for _, cell in grid], jobs=jobs)
    payload = chaos_report(grid, [sim.report for sim in sims], plan, model)
    if _invalid("chaos", "report", validate_chaos_report(payload)):
        return 1  # pragma: no cover - internal invariant
    print(chaos_table(payload))
    for policy, entry in payload["summary"].items():
        print(f"{policy}: worst goodput retention "
              f"{entry['min_goodput_retention']:.4f} "
              f"(baseline {entry['baseline_goodput_rps']:.2f} req/s)")
    if args.json:
        _write(args.json, report_json(payload))
    return 0


def cmd_docs(args) -> int:
    """Generate/check the ISA reference, or gate docstring coverage."""
    import difflib
    import os

    from .docsgen import (
        coverage_table,
        docstring_coverage,
        render_isa_reference,
    )

    if args.rules:
        from .analysis.verifier import rules_table
        rendered = rules_table()
        out = "docs/rules.md"
        if args.stdout:
            print(rendered, end="")
            return 0
        if args.check:
            try:
                with open(out) as handle:
                    on_disk = handle.read()
            except FileNotFoundError:
                print(f"repro docs: {out} does not exist; run "
                      f"`repro docs --rules` to generate it",
                      file=sys.stderr)
                return 1
            if on_disk != rendered:
                print(f"repro docs: {out} has drifted from the rule "
                      f"registry; run `repro docs --rules` to regenerate",
                      file=sys.stderr)
                return 1
            print(f"{out} is up to date")
            return 0
        out_dir = os.path.dirname(out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        _write(out, rendered)
        return 0

    if args.coverage:
        report = docstring_coverage()
        print(coverage_table(report))
        if args.fail_under is not None and \
                report.coverage * 100 < args.fail_under:
            print(f"repro docs: docstring coverage "
                  f"{report.coverage * 100:.1f}% is below the "
                  f"--fail-under bar of {args.fail_under:.1f}%",
                  file=sys.stderr)
            return 1
        return 0

    rendered = render_isa_reference()
    if args.stdout:
        print(rendered, end="")
        return 0
    if args.check:
        try:
            with open(args.out) as handle:
                on_disk = handle.read()
        except FileNotFoundError:
            print(f"repro docs: {args.out} does not exist; "
                  f"run `repro docs` to generate it", file=sys.stderr)
            return 1
        if on_disk != rendered:
            diff = difflib.unified_diff(
                on_disk.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=args.out, tofile="generated")
            sys.stderr.writelines(list(diff)[:60])
            print(f"repro docs: {args.out} has drifted from the ISA "
                  f"definitions; run `repro docs` to regenerate",
                  file=sys.stderr)
            return 1
        print(f"{args.out} is up to date")
        return 0
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    _write(args.out, rendered)
    return 0


def _verify_target(target: str, deps=None):
    """Verify one CLI target; returns a Model- or program VerifyReport.

    A target is a zoo model name (compiled, every block verified), an
    LLM decode step ``<config>:decode`` (a single-token step after a
    short prefix, compiled and verified like a model), a JSON file from
    ``repro compile --dump`` (verified without a graph), or anything
    else readable as a raw little-endian program blob.
    """
    import os

    from .analysis.verifier import verify_blob, verify_block_dicts
    from .compiler import compile_model, load_blocks
    from .models import available_models, build_model
    from .npu import NPUTandem

    if target in available_models():
        from .analysis.verifier import verify_model
        npu = NPUTandem()
        graph = build_model(target)
        model = compile_model(graph, npu.config.sim, npu.config.gemm,
                              special_functions=npu.special_functions,
                              verify=False, pipeline=npu.pipeline_for(graph))
        return verify_model(model, deps=deps)
    if target.endswith(":decode"):
        from .analysis.verifier import verify_model
        from .llm import build_step, get_llm_config
        step = build_step(get_llm_config(target[:-len(":decode")]),
                          past_len=4, n_new=1)
        model = compile_model(step.graph, verify=False)
        return verify_model(model, deps=deps)
    if not os.path.exists(target):
        raise FileNotFoundError(
            f"{target!r} is neither a zoo model ({', '.join(available_models())}) "
            f"nor a file")
    with open(target, "rb") as handle:
        payload = handle.read()
    name = os.path.basename(target)
    try:
        blocks = load_blocks(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return verify_blob(name, payload)
    return verify_block_dicts(name, blocks, deps=deps)


def _cmd_verify(args, lint_mode: bool) -> int:
    from .analysis.verifier import Severity, resolve_ignores
    from .models import available_models

    try:
        ignores = resolve_ignores(args.ignore or [])
    except ValueError as err:
        print(f"repro verify: {err}", file=sys.stderr)
        return 2
    deps = "strict" if args.deps else None
    targets = list(args.targets)
    if args.all:
        targets.extend(m for m in available_models() if m not in targets)
        if args.deps:
            from .llm import available_llm_configs
            targets.extend(f"{cfg}:decode" for cfg in available_llm_configs()
                           if f"{cfg}:decode" not in targets)
    if not targets:
        print("repro verify: no targets (give model names, files, or --all)",
              file=sys.stderr)
        return 2
    reports = []
    for target in targets:
        try:
            report = _verify_target(target, deps=deps)
        except FileNotFoundError as err:
            print(f"repro verify: {err}", file=sys.stderr)
            return 2
        if ignores:
            report.suppress(ignores)
        reports.append(report)
    errors = sum(r.errors for r in reports)
    warnings = sum(r.warnings for r in reports)
    failed = errors > 0 or (args.strict and warnings > 0)
    if args.json:
        import json
        print(json.dumps({
            "targets": [r.as_dict() for r in reports],
            "errors": errors,
            "warnings": warnings,
            "infos": sum(r.infos for r in reports),
            "clean": errors == 0,
            "strict": bool(args.strict),
            "ok": not failed,
        }, indent=2, sort_keys=True))
        return 1 if failed else 0
    min_severity = Severity.INFO if lint_mode else Severity.WARN
    for report in reports:
        print(report.render(min_severity))
    verdict = "FAIL" if failed else "ok"
    print(f"\n{len(reports)} target(s): {errors} error(s), "
          f"{warnings} warning(s), {sum(r.infos for r in reports)} info(s) "
          f"— {verdict}")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    """Static verification of compiled programs (errors fail)."""
    return _cmd_verify(args, lint_mode=False)


def cmd_lint(args) -> int:
    """Verification plus the info-tier findings."""
    return _cmd_verify(args, lint_mode=True)


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser with every subcommand registered."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tandem Processor (ASPLOS 2024) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list benchmark models")

    evaluate = sub.add_parser("evaluate", help="run one model on one design")
    evaluate.add_argument("model")
    evaluate.add_argument("--design", choices=sorted(_DESIGNS),
                          default="npu")
    evaluate.add_argument("--per-op", action="store_true",
                          help="show the per-operator breakdown")

    compare = sub.add_parser("compare", help="one model, every design class")
    compare.add_argument("model")

    compile_cmd = sub.add_parser("compile", help="compile + inspect programs")
    compile_cmd.add_argument("model")
    compile_cmd.add_argument("--disassemble", type=int, default=0,
                             metavar="N", help="print N blocks' programs")
    compile_cmd.add_argument("--dump", metavar="FILE",
                             help="serialize the compiled model to JSON")
    compile_cmd.add_argument("--explain", action="store_true",
                             help="narrate the pass pipeline's decisions")
    compile_cmd.add_argument("--autotune", action="store_true",
                             help="search the pass pipeline first "
                                  "(default: follow $REPRO_AUTOTUNE)")

    autotune = sub.add_parser("autotune",
                              help="search the compiler pass pipeline")
    autotune.add_argument("model")
    autotune.add_argument("--budget", type=int, default=None, metavar="N",
                          help="candidate evaluations "
                               "(default: $REPRO_AUTOTUNE_BUDGET or 16)")
    autotune.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                          help="worker processes (default: $REPRO_JOBS)")
    autotune.add_argument("--json", metavar="FILE",
                          help="write the schema-tagged report as JSON")

    experiment = sub.add_parser("experiment",
                                help="regenerate paper figures/tables")
    experiment.add_argument("ids", nargs="+")
    experiment.add_argument("--jobs", "-j", type=int, default=None,
                            metavar="N",
                            help="worker processes (default: $REPRO_JOBS)")

    trace = sub.add_parser("trace", help="ASCII execution timeline")
    trace.add_argument("model")
    trace.add_argument("--events", type=int, default=80)
    trace.add_argument("--width", type=int, default=72)
    trace.add_argument("--json", metavar="FILE",
                       help="also write a Perfetto-loadable trace file")

    profile = sub.add_parser("profile",
                             help="run one model with telemetry enabled")
    profile.add_argument("model")
    profile.add_argument("--trace-out", metavar="FILE",
                         help="write a Chrome/Perfetto trace-event file")

    cache = sub.add_parser("cache", help="inspect/clear the eval cache")
    cache.add_argument("action", choices=("stats", "clear", "path"),
                       nargs="?", default="stats")

    from .serving import (
        BATCH_POLICIES,
        RESILIENCE_POLICIES,
        ROUTING_POLICIES,
    )
    serve = sub.add_parser("serve", help="simulate a serving fleet")
    serve.add_argument("--model", default="bert",
                       help="zoo model, or comma-separated mix")
    serve.add_argument("--devices", type=int, default=4,
                       help="fleet size (replicated NPU-Tandem devices)")
    serve.add_argument("--rate", type=float, default=100.0,
                       help="open-loop offered rate (req/s)")
    serve.add_argument("--duration", type=float, default=5.0,
                       help="simulated traffic horizon (s)")
    serve.add_argument("--batch-policy", choices=BATCH_POLICIES,
                       default="dynamic")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="dynamic batching hold time")
    serve.add_argument("--routing", choices=ROUTING_POLICIES,
                       default="least_loaded")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="per-device admission limit")
    serve.add_argument("--slo-multiplier", type=float, default=10.0,
                       help="SLO = multiplier x isolated model latency")
    serve.add_argument("--closed-loop", action="store_true",
                       help="closed-loop clients instead of Poisson")
    serve.add_argument("--clients", type=int, default=32,
                       help="closed-loop client count")
    serve.add_argument("--think-ms", type=float, default=1.0,
                       help="closed-loop think time")
    serve.add_argument("--json", metavar="FILE",
                       help="also write the report as JSON")
    serve.add_argument("--trace-out", metavar="FILE",
                       help="write request lifecycles as a Chrome trace")
    serve.add_argument("--faults", metavar="FILE",
                       help="inject a fault plan (JSON; see repro.faults)")
    serve.add_argument("--resilience", choices=RESILIENCE_POLICIES,
                       default=None,
                       help="fault response policy (default: resilient "
                            "with --faults, naive otherwise)")
    serve.add_argument("--dry-run", action="store_true",
                       help="print the configuration and exit")
    serve.add_argument("--llm", action="store_true",
                       help="LLM mode: continuous vs one-shot batching "
                            "sweep over decode-step costs")
    serve.add_argument("--llm-config", default="gpt2_rms",
                       help="decode config for --llm (see repro.llm)")
    serve.add_argument("--kv-budget", type=int, default=None, metavar="TOK",
                       help="KV-cache admission budget in tokens "
                            "(default: $REPRO_LLM_KV_BUDGET or 1024)")
    serve.add_argument("--slots", type=int, default=None, metavar="N",
                       help="decode-batch slots for --llm "
                            "(default: $REPRO_LLM_MAX_SLOTS or 8)")
    serve.add_argument("--schedulers", default="oneshot,continuous",
                       help="comma-separated LLM schedulers to sweep")
    serve.add_argument("--rates", default=None,
                       help="comma-separated offered rates (req/s) for "
                            "--llm (default: a saturation-anchored ladder)")
    serve.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                       help="worker processes for the --llm sweep")
    serve.add_argument("--monitor", action="store_true",
                       help="stream per-interval telemetry + SLO burn-rate "
                            "alerts (also REPRO_MONITOR=1; =0 force-off)")
    serve.add_argument("--monitor-out", metavar="FILE",
                       help="write the repro-monitor-report-v1 JSON")
    serve.add_argument("--monitor-interval", type=float, default=None,
                       metavar="S",
                       help="sampling interval in simulated seconds "
                            "(default: $REPRO_MONITOR_INTERVAL or 0.1)")
    serve.add_argument("--cells", type=int, default=None, metavar="N",
                       help="device cells for hierarchical routing "
                            "(must divide --devices; default 1, or "
                            "devices/25 under --autoscale)")
    serve.add_argument("--autoscale", action="store_true",
                       help="scale cells out/in on SLO burn rate + queue "
                            "depth (also REPRO_AUTOSCALE=1; =0 force-off)")
    serve.add_argument("--scale-out", metavar="FILE",
                       help="write the repro-fleet-scale-report-v1 JSON")
    serve.add_argument("--diurnal", action="store_true",
                       help="diurnal workload: cosine rate envelope with "
                            "--rate as the peak (see DiurnalTrace)")
    serve.add_argument("--trough", type=float, default=0.25,
                       metavar="FRAC",
                       help="diurnal trough rate as a fraction of peak")
    serve.add_argument("--trace", metavar="FILE",
                       help="replay a repro-request-trace-v1 JSON trace "
                            "instead of generating arrivals")
    serve.add_argument("--save-trace", metavar="FILE",
                       help="write the generated workload as a "
                            "repro-request-trace-v1 JSON trace")

    monitor = sub.add_parser(
        "monitor", help="replay a saved monitor report as a dashboard")
    monitor.add_argument("report", metavar="FILE",
                         help="repro-monitor-report-v1 JSON "
                              "(from serve --monitor-out)")
    monitor.add_argument("--no-color", action="store_true",
                         help="plain ASCII dashboard (no ANSI colors)")

    decode = sub.add_parser("decode",
                            help="autoregressive KV-cache decoding")
    decode.add_argument("config", nargs="?", default="tinyllm",
                        help="decode config (tinyllm runs the detailed "
                             "machine; see repro.llm)")
    decode.add_argument("--prompt", type=int, default=4, metavar="N",
                        help="seeded prompt length in tokens")
    decode.add_argument("--tokens", type=int, default=4, metavar="N",
                        help="tokens to greedy-decode after prefill")
    decode.add_argument("--executor", choices=("functional", "reference"),
                        default="functional",
                        help="detailed machine or integer reference")
    decode.add_argument("--json", metavar="FILE",
                        help="also write the per-step record as JSON")

    chaos = sub.add_parser("chaos",
                           help="sweep fault rates x resilience policies")
    chaos.add_argument("--model", default="bert",
                       help="zoo model for the chaos workload")
    chaos.add_argument("--devices", type=int, default=4)
    chaos.add_argument("--rate", type=float, default=120.0,
                       help="open-loop offered rate (req/s)")
    chaos.add_argument("--duration", type=float, default=8.0,
                       help="simulated traffic horizon (s)")
    chaos.add_argument("--plan", metavar="FILE",
                       help="fault plan JSON (default: built-in chaos plan)")
    chaos.add_argument("--scales", default="0,0.5,1,2",
                       help="comma-separated fault-rate multipliers")
    chaos.add_argument("--policies",
                       default=",".join(RESILIENCE_POLICIES),
                       help="comma-separated resilience policies to sweep")
    chaos.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                       help="worker processes for the sweep")
    chaos.add_argument("--json", metavar="FILE",
                       help="write the schema-tagged chaos report as JSON")

    docs = sub.add_parser("docs",
                          help="generate reference docs from the ISA")
    docs.add_argument("--out", default="docs/isa.md", metavar="FILE",
                      help="where the ISA reference lives")
    docs.add_argument("--check", action="store_true",
                      help="exit 1 if FILE drifts from generated output")
    docs.add_argument("--stdout", action="store_true",
                      help="print the generated reference instead")
    docs.add_argument("--coverage", action="store_true",
                      help="report docstring coverage instead of the ISA")
    docs.add_argument("--fail-under", type=float, default=None,
                      metavar="PCT",
                      help="with --coverage: exit 1 below this percentage")
    docs.add_argument("--rules", action="store_true",
                      help="generate the verifier rule reference "
                           "(docs/rules.md) instead of the ISA")

    for cmd_name, help_text in (
            ("verify", "statically verify compiled Tandem programs"),
            ("lint", "verify + show info-tier lint findings")):
        check = sub.add_parser(cmd_name, help=help_text)
        check.add_argument("targets", nargs="*",
                           help="zoo model, compile --dump JSON, raw blob, "
                                "or <llm-config>:decode")
        check.add_argument("--all", action="store_true",
                           help="verify the entire model zoo")
        check.add_argument("--json", action="store_true",
                           help="machine-readable report on stdout")
        check.add_argument("--strict", action="store_true",
                           help="exit 1 on warnings as well as errors")
        check.add_argument("--deps", action="store_true",
                           help="force strict dependence analysis "
                                "(translation validation + race checks); "
                                "with --all, also verify LLM decode steps")
        check.add_argument("--ignore", action="append", default=[],
                           metavar="RULE",
                           help="suppress findings by rule ID or name "
                                "(repeatable; see docs/rules.md)")
    return parser


_COMMANDS = {
    "models": cmd_models,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "compile": cmd_compile,
    "autotune": cmd_autotune,
    "experiment": cmd_experiment,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "cache": cmd_cache,
    "monitor": cmd_monitor,
    "serve": cmd_serve,
    "decode": cmd_decode,
    "chaos": cmd_chaos,
    "docs": cmd_docs,
    "verify": cmd_verify,
    "lint": cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        knobs.check_all()
        return _COMMANDS[args.command](args)
    except KnobError as err:
        print(f"repro: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
