"""Parallel sweep executor: deterministic fan-out over work items.

Experiments, DSE sweeps and the harness all map a pure function over a
list of (model x design-point) work items. ``parallel_map`` runs that
map across a process pool (the work is CPU-bound Python, so threads
would serialize on the GIL) while keeping the output order identical to
the input order — ``--jobs N`` output is byte-for-byte the serial
output. ``jobs=1`` short-circuits to a plain loop, and any pool
infrastructure failure (sandboxes without fork, unpicklable work items)
silently degrades to the serial path.
"""

from __future__ import annotations

import pickle
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
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - stdlib always has it
        return [fn(item) for item in work]
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # executor.map preserves input order regardless of
            # completion order, which keeps output deterministic.
            return list(pool.map(fn, work))
    except (BrokenProcessPool, pickle.PicklingError, PermissionError,
            OSError):
        return [fn(item) for item in work]
