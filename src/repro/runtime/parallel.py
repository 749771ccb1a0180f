"""Parallel sweep executor: deterministic fan-out over work items.

Experiments, DSE sweeps and the harness all map a pure function over a
list of (model x design-point) work items. ``parallel_map`` runs that
map across a process pool (the work is CPU-bound Python, so threads
would serialize on the GIL) while keeping the output order identical to
the input order — ``--jobs N`` output is byte-for-byte the serial
output. ``jobs=1`` short-circuits to a plain loop.

An error a work item causes — one that does not pickle, or one ``fn``
raises — propagates, as it would serially.  Only a pool that cannot
start (no processes or semaphores in a sandbox, or every worker dead
before any result came back) falls back to the serial loop, with a
``RuntimeWarning`` and a ``parallel.serial_fallback`` telemetry count.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 jobs: int = 1) -> List[R]:
    """Map ``fn`` over ``items`` with results in input order."""
    work: Sequence[T] = list(items)
    jobs = min(max(1, jobs or 1), len(work)) if work else 1
    if jobs <= 1:
        return [fn(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    results: List[R] = []
    started = False
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # executor.map preserves input order regardless of
            # completion order, which keeps output deterministic.
            mapped = pool.map(fn, work)   # submits, starting the workers
            started = True
            for result in mapped:
                results.append(result)
    except (OSError, BrokenProcessPool) as error:
        # An OSError after the start came from a work item.
        if results or (started and not isinstance(error,
                                                   BrokenProcessPool)):
            raise
        from ..telemetry import get_telemetry
        warnings.warn(f"parallel_map: process pool unavailable "
                      f"({error!r}); running {len(work)} items serially",
                      RuntimeWarning, stacklevel=2)
        get_telemetry().count("parallel.serial_fallback")
        return [fn(item) for item in work]
    return results
