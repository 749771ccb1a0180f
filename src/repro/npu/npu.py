"""NPU-Tandem end-to-end evaluator (analytic mode).

Walks the compiled blocks through the execution controller, scaling
per-tile Tandem estimates by tile counts and overlapping them with the
GEMM unit per the Section 4.2 double-buffering protocol.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, Optional, Union

from ..compiler import CompiledModel, compile_model
from ..graph import Graph
from ..models import build_model
from ..results import RunResult
from ..simulator import EnergyLedger, MachineResult, estimate, scale_result
from ..telemetry import get_telemetry
from .config import NPUConfig, table3_config
from .controller import ExecutionController


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

    def compile(self, graph: Union[str, Graph]) -> CompiledModel:
        """Compile for this design; autotunes the pipeline when opted in."""
        if isinstance(graph, str):
            graph = build_model(graph)
        pipeline = None
        if self._autotune_active():
            from ..compiler import autotune_model
            from ..runtime import knobs
            report = autotune_model(graph, self.config,
                                    jobs=knobs.get("REPRO_JOBS"),
                                    special_functions=self.special_functions)
            pipeline = report.best_pipeline()
        return compile_model(graph, self.config.sim, self.config.gemm,
                             special_functions=self.special_functions,
                             pipeline=pipeline)

    def verify_record(self, graph: Union[str, Graph]) -> Dict:
        """Static-verification record for ``graph`` under this design.

        Resolves through the content-addressed cache (kind
        ``"verified"``), compiling + verifying on a miss; see
        :func:`repro.compiler.compiler.verify_record_for`.
        """
        from ..compiler import verify_record_for
        if isinstance(graph, str):
            graph = build_model(graph)
        return verify_record_for(graph, self.config.sim, self.config.gemm,
                                 special_functions=self.special_functions)

    def evaluate(self, graph: Union[str, Graph, CompiledModel]) -> RunResult:
        """End-to-end latency/energy; results are content-cached.

        Evaluations of a zoo model name or a Graph go through the shared
        :mod:`repro.runtime.cache` result tier keyed on (design state,
        graph structure). Pre-compiled :class:`CompiledModel` inputs are
        evaluated directly — the caller may have customized the blocks.
        """
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

    def _evaluate(self, graph: Union[str, Graph, CompiledModel]) -> RunResult:
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

        for cb in model.blocks:
            tile_result: Optional[MachineResult] = None
            release = None
            dispatch_insts = 0
            if cb.tile is not None:
                tile_result = estimate(cb.tile.meta, model.sim_params)
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
                overlap=self.overlap)
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
                for op_type, meta in cb.tile.op_metas:
                    op_result = estimate(meta, model.sim_params)
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
