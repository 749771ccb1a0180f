"""Render every experiment: ``python -m repro.harness [ids...] [-j N]``.

Experiments are independent, so ``--jobs N`` fans them out across
worker processes; output stays in request order (byte-identical to a
serial run). Evaluations flow through the shared content-addressed
cache (``.repro_cache`` by default), so a warm invocation skips the
compile and sweep work entirely — ``--no-cache``, ``--cache-dir`` and
``--clear-cache`` control it.

``--check`` renders the body of ``EXPERIMENTS.md`` and exits 1 with a
diff when the checked-in numbers differ from what the harness computes.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..runtime import KnobError, knobs, parallel_map, set_cache
from .experiments import all_experiment_ids, run_experiment


def _render(exp_id: str) -> str:
    return run_experiment(exp_id).render()


def _render_traced(exp_id: str):
    """Render one experiment under a fresh telemetry session.

    Runs in the worker process; the (picklable) snapshot travels back
    with the rendered text and the parent merges snapshots in request
    order, so serial and ``--jobs`` runs produce the same trace.
    """
    from ..telemetry import Telemetry, scoped_telemetry
    with scoped_telemetry(Telemetry(enabled=True,
                                    label=f"experiment:{exp_id}")) as tel:
        with tel.span(f"experiment:{exp_id}", cat="harness"):
            text = run_experiment(exp_id).render()
        return text, tel.snapshot()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate paper figures/tables (EXPERIMENTS.md content)")
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids (default: all)")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the compile/result cache")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="on-disk cache location (default .repro_cache)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="drop every cached entry before running")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="run with telemetry on and write a merged "
                             "Chrome trace-event file")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1, with a diff) when the body of "
                             "EXPERIMENTS.md differs from a fresh render")
    return parser


def main(argv=None) -> int:
    """Entry point; a bad knob or experiment id exits 2 with one line."""
    args = _build_parser().parse_args(argv)
    unknown = sorted(set(args.ids) - set(all_experiment_ids()))
    if unknown:
        print(f"python -m repro.harness: unknown experiment(s) "
              f"{', '.join(unknown)}; known: "
              f"{', '.join(all_experiment_ids())}", file=sys.stderr)
        return 2
    if args.check and args.ids:
        print("python -m repro.harness: --check renders every experiment; "
              "give no ids", file=sys.stderr)
        return 2
    try:
        knobs.check_all()
        return _run(args)
    except KnobError as err:
        print(f"python -m repro.harness: {err}", file=sys.stderr)
        return 2


def _run(args) -> int:
    # Cache policy travels through the environment so that spawned
    # workers inherit it regardless of start method.
    if args.no_cache:
        os.environ["REPRO_CACHE"] = "0"
        set_cache(None)
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
        set_cache(None)
    if args.clear_cache:
        from ..runtime import get_cache
        get_cache().clear()
    if args.check:
        return _check()
    ids = args.ids or all_experiment_ids()
    jobs = args.jobs if args.jobs is not None else knobs.get("REPRO_JOBS")
    if args.trace_out:
        snapshots = []
        for text, snapshot in parallel_map(_render_traced, ids, jobs=jobs):
            print(text)
            print()
            snapshots.append(snapshot)
        from ..telemetry.export import chrome_trace, write_trace
        write_trace(args.trace_out,
                    chrome_trace(snapshots,
                                 extra_other_data={"experiments": list(ids)}))
        print(f"wrote {args.trace_out}")
    else:
        for text in parallel_map(_render, ids, jobs=jobs):
            print(text)
            print()
    return 0


def _check() -> int:
    from .markdown import EXPERIMENTS_MD, experiments_drift
    try:
        diff = experiments_drift()
    except FileNotFoundError:
        print(f"python -m repro.harness: {EXPERIMENTS_MD} does not exist",
              file=sys.stderr)
        return 1
    if diff:
        sys.stderr.writelines(diff)
        print(f"python -m repro.harness: {EXPERIMENTS_MD} has drifted from "
              f"the harness; regenerate its body with "
              f"repro.harness.markdown.write_experiments_body"
              f"({EXPERIMENTS_MD!r})", file=sys.stderr)
        return 1
    print(f"{EXPERIMENTS_MD} is up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
