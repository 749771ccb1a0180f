"""NPU-Tandem end-to-end evaluator (analytic mode).

Walks the compiled blocks through the execution controller, scaling
per-tile Tandem estimates by tile counts and overlapping them with the
GEMM unit per the Section 4.2 double-buffering protocol.
"""

from __future__ import annotations

from math import ceil
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..graph import Graph
from ..models import build_model
from ..results import RunResult
from ..simulator import EnergyLedger, MachineResult, estimate
from ..telemetry import get_telemetry
from .config import NPUConfig, table3_config
from .controller import ExecutionController

# The compiler is imported where it runs: a cache read or an autotune
# report hit needs only the design's configuration.
if TYPE_CHECKING:
    from ..compiler import CompiledModel, PipelineConfig


class NPUTandem:
    """The proposed design: GEMM unit + Tandem Processor, in tandem."""

    def __init__(self, config: Optional[NPUConfig] = None,
                 overlap: bool = True, fifo_coupling: bool = False,
                 special_functions: bool = False,
                 autotune: Optional[bool] = None):
        self.config = config or table3_config()
        self.overlap = overlap
        #: VPU emulation: GEMM outputs are forwarded through FIFOs to the
        #: vector unit's scratchpads instead of the Tandem Processor's
        #: fluid Output BUF ownership.
        self.fifo_coupling = fifo_coupling
        self.special_functions = special_functions
        #: Pipeline autotuning: ``True``/``False`` force it; ``None``
        #: follows ``REPRO_AUTOTUNE`` at compile time (default off, so
        #: existing figures/serving flows stay bit-identical).
        self.autotune = autotune
        self.controller = ExecutionController()

    @property
    def name(self) -> str:
        mode = "" if self.overlap else "-layerwise"
        return self.config.name + mode

    def _autotune_active(self) -> bool:
        """Whether compiles should search the pass pipeline."""
        from ..runtime import knobs
        return (self.autotune if self.autotune is not None
                else knobs.get("REPRO_AUTOTUNE"))

    def pipeline_for(self, graph: Graph) -> PipelineConfig:
        """The pass pipeline this design compiles ``graph`` with.

        The autotuner's winner (a cached report after the first search)
        when autotuning is active, else the default config.
        """
        from ..compiler.pipeline import PipelineConfig
        if not self._autotune_active():
            return PipelineConfig()
        from ..compiler.autotune import autotune_model
        from ..runtime import knobs
        report = autotune_model(graph, self.config,
                                jobs=knobs.get("REPRO_JOBS"),
                                special_functions=self.special_functions)
        return report.best_pipeline()

    def compile(self, graph: Union[str, Graph]) -> CompiledModel:
        """Compile for this design under :meth:`pipeline_for`."""
        from ..compiler.compiler import compile_model
        if isinstance(graph, str):
            graph = build_model(graph)
        return compile_model(graph, self.config.sim, self.config.gemm,
                             special_functions=self.special_functions,
                             pipeline=self.pipeline_for(graph))

    def verify_record(self, graph: Union[str, Graph]) -> Dict:
        """Static-verification record of the program :meth:`compile` serves.

        Resolves through the content-addressed cache (kind
        ``"verified"``), compiling + verifying on a miss; see
        :func:`repro.compiler.compiler.verify_record_for`.
        """
        from ..compiler import verify_record_for
        if isinstance(graph, str):
            graph = build_model(graph)
        return verify_record_for(graph, self.config.sim, self.config.gemm,
                                 special_functions=self.special_functions,
                                 pipeline=self.pipeline_for(graph))

    def evaluate(self, graph: Union[str, Graph, CompiledModel]) -> RunResult:
        """End-to-end latency/energy; results are content-cached.

        Evaluations of a zoo model name or a Graph go through the shared
        :mod:`repro.runtime.cache` result tier keyed on (design state,
        graph structure). Pre-compiled :class:`CompiledModel` inputs are
        evaluated directly — the caller may have customized the blocks.
        """
        from ..compiler.compiler import CompiledModel
        from ..runtime import cache as runtime_cache
        key = None
        if not isinstance(graph, CompiledModel) and \
                runtime_cache.get_cache().enabled:
            g = build_model(graph) if isinstance(graph, str) else graph
            desc = ("npu-tandem",
                    runtime_cache.object_fingerprint(self.config),
                    self.overlap, self.fifo_coupling, self.special_functions)
            if self._autotune_active():
                # Autotuned programs depend on the search budget and the
                # seed; default-flow keys stay exactly as before.
                from ..runtime import knobs
                desc = desc + ("autotune", knobs.get("REPRO_AUTOTUNE_BUDGET"),
                               knobs.get("REPRO_SEED"))
            key = runtime_cache.result_key(desc, g)
            hit = runtime_cache.get_result(key)
            if hit is not None:
                return hit
        result = self._evaluate(graph)
        if key is not None:
            runtime_cache.put_result(key, result)
        return result

    def block_schedules(self, model: CompiledModel, max_spans: int = 0):
        """Yield ``(block, tile estimate, per-op estimates, BlockSchedule)``.

        The one place a block's per-tile GEMM and Tandem cycles, Output
        BUF release and dispatch are derived; both the evaluator and the
        Figure 10 trace (``max_spans`` > 0 draws the first tiles) read
        them from here. The tile estimate is a per-tile
        :class:`MachineResult` (None for a GEMM-only block); the per-op
        estimates are ``(op_type, MachineResult)`` per source operator.
        Both are estimated once per distinct tile timing (see
        ``LoweredTile.timing_key``), so repeated blocks cost one estimate.
        """
        estimates: Dict[tuple, Tuple[MachineResult,
                                     List[Tuple[str, MachineResult]]]] = {}
        for cb in model.blocks:
            tile_result: Optional[MachineResult] = None
            op_results: List[Tuple[str, MachineResult]] = []
            release = None
            dispatch_insts = 0
            if cb.tile is not None:
                key = cb.tile.timing_key
                if key not in estimates:
                    estimates[key] = (
                        estimate(cb.tile.meta, model.sim_params),
                        [(op_type, estimate(meta, model.sim_params))
                         for op_type, meta in cb.tile.op_metas])
                tile_result, op_results = estimates[key]
                release = int(tile_result.pipelined_cycles
                              * cb.tile.obuf_release_fraction)
                dispatch_insts = len(cb.tile.program)
            g_total = cb.gemm_cost.cycles if cb.gemm_cost is not None else 0
            g_tile = ceil(g_total / cb.tiles) if g_total else 0
            t_tile = (tile_result.pipelined_cycles
                      if tile_result is not None else 0)
            units = min(self.config.tandem_units, cb.tiles)
            if units > 1 and tile_result is not None:
                # Tiles fan out across parallel Tandem units; the shared
                # HBM interface still bounds the per-tile transfer rate.
                compute = (tile_result.compute_cycles
                           + tile_result.config_cycles
                           + tile_result.permute_cycles)
                t_tile = max(ceil(compute / units), tile_result.dae_cycles)
                release = int(t_tile * cb.tile.obuf_release_fraction)
            if (self.fifo_coupling and cb.kind == "gemm_tandem"
                    and t_tile):
                # FIFO copy of the GEMM tile into the vector unit's
                # scratchpad; the Output BUF itself is never blocked.
                tile_words = ceil(
                    model.graph.out_spec(cb.block.gemm).numel / cb.tiles)
                t_tile += ceil(tile_words / model.sim_params.tandem.lanes)
                release = 0
            schedule = self.controller.schedule(
                cb.kind, cb.tiles,
                gemm_tile_cycles=g_tile,
                tandem_tile_cycles=t_tile,
                obuf_release_cycles=release,
                dispatch_insts=dispatch_insts,
                overlap=self.overlap,
                max_spans=max_spans)
            yield cb, tile_result, op_results, schedule

    def _evaluate(self, graph: Union[str, Graph, CompiledModel]) -> RunResult:
        from ..compiler.compiler import CompiledModel
        tel = get_telemetry()
        tel = tel if tel.enabled else None
        model = graph if isinstance(graph, CompiledModel) else self.compile(graph)
        freq = self.config.frequency_hz

        total_cycles = 0
        gemm_busy = 0
        tandem_busy = 0
        gemm_energy_pj = 0.0
        tandem_energy = EnergyLedger()
        per_op_cycles: Dict[str, float] = {}

        for cb, tile_result, op_results, schedule in \
                self.block_schedules(model):
            total_cycles += schedule.total_cycles
            gemm_busy += schedule.gemm_busy_cycles
            tandem_busy += schedule.tandem_busy_cycles
            if tel is not None:
                tel.count("npu.blocks")
                tel.count("npu.tiles", cb.tiles)

            if cb.gemm_cost is not None:
                gemm_energy_pj += cb.gemm_cost.energy_pj
            if tile_result is not None:
                tandem_energy = tandem_energy.add(
                    tile_result.energy.scaled(cb.tiles))
                for op_type, op_result in op_results:
                    per_op_cycles[op_type] = (
                        per_op_cycles.get(op_type, 0.0)
                        + op_result.pipelined_cycles * cb.tiles)

        if tel is not None:
            tel.count("npu.total_cycles", total_cycles)
            tel.count("npu.gemm.busy_cycles", gemm_busy)
            tel.count("npu.gemm.idle_cycles", total_cycles - gemm_busy)
            tel.count("npu.tandem.busy_cycles", tandem_busy)
            tel.count("npu.tandem.idle_cycles", total_cycles - tandem_busy)
            for op_type, cycles in per_op_cycles.items():
                tel.count(f"npu.op_cycles.{op_type}", cycles)

        total_seconds = total_cycles / freq
        static_j = total_seconds * self.config.static_watts
        energy_j = (gemm_energy_pj * 1e-12 + tandem_energy.total_joules()
                    + static_j)
        breakdown = {name: value * 1e-12 for name, value in {
            "dram": tandem_energy.dram_pj,
            "on_chip_sram": tandem_energy.spad_pj,
            "alu": tandem_energy.alu_pj,
            "loop_addr": tandem_energy.loop_addr_pj,
            "other": tandem_energy.other_pj,
            "regfile": tandem_energy.regfile_pj,
        }.items()}
        breakdown["gemm_unit"] = gemm_energy_pj * 1e-12
        breakdown["static"] = static_j
        return RunResult(
            design=self.name,
            model=model.name,
            total_seconds=total_seconds,
            gemm_seconds=gemm_busy / freq,
            nongemm_seconds=tandem_busy / freq,
            energy_joules=energy_j,
            energy_breakdown=breakdown,
            per_op_seconds={op: c / freq for op, c in per_op_cycles.items()},
            gemm_utilization=gemm_busy / total_cycles if total_cycles else 0.0,
            nongemm_utilization=(tandem_busy / total_cycles
                                 if total_cycles else 0.0),
        )
