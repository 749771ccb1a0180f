"""Design-space exploration over Tandem Processor configurations.

The paper positions the Tandem Processor as the heart of GeneSys, "a
parametrizable NPU *generator*". This module explores the generator's
knobs — SIMD lanes, Interim BUF capacity, systolic-array size — and
reports latency/energy/area per point, including the Pareto frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence

from ..gemm import SystolicParams
from ..npu import NPUConfig, NPUTandem, table3_config
from ..simulator.params import SimParams, TandemParams
from .area import tandem_area


@dataclass(frozen=True)
class DesignPoint:
    lanes: int
    interim_buf_kb: int
    array_dim: int

    def label(self) -> str:
        return f"{self.lanes}L/{self.interim_buf_kb}KB/{self.array_dim}x{self.array_dim}"


@dataclass
class DseResult:
    point: DesignPoint
    seconds: float
    energy_joules: float
    tandem_area_mm2: float


def config_for(point: DesignPoint,
               base: Optional[NPUConfig] = None) -> NPUConfig:
    base = base or table3_config()
    tandem = replace(base.sim.tandem, lanes=point.lanes,
                     interim_buf_kb=point.interim_buf_kb)
    sim = SimParams(tandem=tandem, dram=base.sim.dram,
                    energy=base.sim.energy, overlay=base.sim.overlay)
    gemm = replace(base.gemm, rows=point.array_dim, cols=point.array_dim)
    return replace(base, sim=sim, gemm=gemm,
                   name=f"npu-tandem[{point.label()}]")


def _evaluate_point(work) -> Optional[DseResult]:
    """One grid point; module-level so worker processes can pickle it."""
    from ..compiler import CompileError
    model, point, base, autotune = work
    npu = NPUTandem(config_for(point, base), autotune=autotune)
    try:
        run = npu.evaluate(model)
    except CompileError:
        # The model genuinely does not fit this configuration (e.g. an
        # untileable reduction dimension exceeds the scratchpads) — an
        # infeasible design point.
        return None
    area = tandem_area(npu.config.sim.tandem).total_mm2
    return DseResult(point=point, seconds=run.total_seconds,
                     energy_joules=run.energy_joules,
                     tandem_area_mm2=area)


def sweep(model: str,
          lanes: Sequence[int] = (16, 32, 64),
          interim_buf_kb: Sequence[int] = (32, 64, 128),
          array_dims: Sequence[int] = (32,),
          base: Optional[NPUConfig] = None,
          jobs: int = 1,
          autotune: Optional[bool] = None) -> List[DseResult]:
    """Evaluate one model across the configuration grid.

    Grid points are independent, so ``jobs > 1`` fans them out across
    worker processes; result order is the deterministic grid order
    either way, and every evaluation flows through the shared runtime
    cache. ``autotune=True`` compiles each point with its own searched
    pass pipeline (the per-point architecture changes which pipeline
    wins); ``None`` follows ``REPRO_AUTOTUNE``.
    """
    from ..runtime import parallel_map
    work = [(model, DesignPoint(lane_count, buf_kb, dim), base, autotune)
            for dim in array_dims
            for lane_count in lanes
            for buf_kb in interim_buf_kb]
    evaluated = parallel_map(_evaluate_point, work, jobs=jobs)
    return [result for result in evaluated if result is not None]


def pareto_frontier(results: Iterable[DseResult]) -> List[DseResult]:
    """Points not dominated in (latency, energy, area)."""
    results = list(results)
    frontier = []
    for candidate in results:
        dominated = any(
            other is not candidate
            and other.seconds <= candidate.seconds
            and other.energy_joules <= candidate.energy_joules
            and other.tandem_area_mm2 <= candidate.tandem_area_mm2
            and (other.seconds < candidate.seconds
                 or other.energy_joules < candidate.energy_joules
                 or other.tandem_area_mm2 < candidate.tandem_area_mm2)
            for other in results)
        if not dominated:
            frontier.append(candidate)
    return frontier
