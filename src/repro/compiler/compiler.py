"""Top-level compilation (Figure 13).

``compile_model`` turns a graph into a list of :class:`CompiledBlock`:
per block, the tile count, one tile's lowered Tandem program (+ analytic
metadata), and the GEMM layer's cost dimensions. The NPU executor
(:mod:`repro.npu`) consumes this to produce end-to-end time/energy; the
functional runner replays the same programs on real data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, List, Optional

from ..gemm import GemmCost, SystolicArray, SystolicParams, gemm_dims
from ..graph import DTYPE_BYTES, Graph, Node
from ..isa import Namespace
from ..simulator.params import SimParams
from .fusion import Block, external_outputs, form_blocks, split_block
from .integer_ops import FRAC_BITS
from .ir import CompileError, Resident, TileContext
from .lowering import LoweredTile, lower_tile
from .pipeline import PIPELINE_VERSION, PassPipeline, PipelineConfig, \
    PipelineState
from .templates import emit_op
from .tiling import search_tiles


@dataclass
class CompiledBlock:
    """One execution block, ready for the execution controller."""

    block: Block
    tiles: int
    tile: Optional[LoweredTile]          # None for GEMM-only blocks
    gemm_cost: Optional[GemmCost]        # full-layer cost (all tiles)
    stores: List[str] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.block.kind

    @property
    def name(self) -> str:
        return self.block.name


@dataclass
class CompiledModel:
    graph: Graph
    blocks: List[CompiledBlock]
    sim_params: SimParams
    gemm_params: SystolicParams

    @property
    def name(self) -> str:
        return self.graph.name

    def total_instructions(self) -> int:
        return sum(len(b.tile.program) for b in self.blocks if b.tile is not None)


def _gemm_layer_cost(node: Node, graph: Graph,
                     array: SystolicArray) -> GemmCost:
    out = graph.out_spec(node)
    in_spec = graph.tensor(node.inputs[0])
    m, n, k = gemm_dims(node, out, in_spec)
    input_bytes = sum(graph.tensor(t).nbytes for t in node.inputs)
    weight_bytes = sum(graph.tensor(t).nbytes for t in node.params)
    return array.layer_cost(m, n, k, input_bytes, weight_bytes, out.nbytes)


def _compile_block_tile(block: Block, graph: Graph, params: SimParams,
                        tiles: int, frac_bits: int,
                        special_functions: bool = False,
                        pipeline: Optional[PassPipeline] = None,
                        pass_log: Optional[Dict[str, int]] = None) -> LoweredTile:
    ctx = TileContext(params.tandem, frac_bits, strict=(tiles == 1),
                      special_functions=special_functions)
    if block.gemm is not None:
        out_name = block.gemm.outputs[0]
        out_elems = graph.tensor(out_name).numel
        tile_elems = max(1, ceil(out_elems / tiles))
        if tile_elems > params.tandem.obuf_words:
            raise CompileError(
                f"GEMM tile of {tile_elems} words exceeds the Output BUF")
        ctx.set_resident(out_name, Resident(Namespace.OBUF, 0,
                                            (tile_elems,), (0,)))
    op_ranges = []
    for op in block.ops:
        start = len(ctx.events)
        emit_op(ctx, op, graph, tiles)
        op_ranges.append((op.op_type, start, len(ctx.events)))
    for name in external_outputs(block, graph):
        if ctx.resident(name) is not None:
            dtype = graph.tensor(name).dtype
            ctx.store(name, element_bytes=DTYPE_BYTES[dtype])
        elif pipeline is not None and name in ctx.dram_alias:
            # A pure DRAM rename (reshape of off-chip data) escaping the
            # block: consumers compiled into later blocks load ``name``
            # itself, so the rename must be materialized with a real
            # DAE round-trip. The seed's maximal fusion never splits a
            # rename from its consumer, so this only arises (and only
            # costs) under a pipeline that caps fusion depth.
            spec = graph.tensor(name)
            ctx.source(name, spec.shape,
                       element_bytes=DTYPE_BYTES[spec.dtype])
            ctx.store(name, element_bytes=DTYPE_BYTES[spec.dtype])
        # Other non-resident outputs (e.g. DAE-forwarded Concat) are
        # already off-chip under their own name.
    if pipeline is not None and (pipeline.config.fission
                                 or pipeline.config.interchange):
        state = PipelineState(config=pipeline.config, ctx=ctx,
                              op_ranges=op_ranges)
        pipeline.run_nests(state)
        op_ranges = state.op_ranges
        if pass_log is not None:
            for stage, applied in state.log:
                pass_log[stage] = pass_log.get(stage, 0) + applied
    return lower_tile(ctx, f"{block.name}_tile",
                      reads_obuf=block.gemm is not None,
                      op_ranges=op_ranges)


def _compile_key(graph: Graph, sim_params: SimParams,
                 gemm_params: SystolicParams, frac_bits: int,
                 special_functions: bool,
                 pipeline: Optional[PipelineConfig] = None) -> str:
    """Content address of the compiled artifact.

    Lowering and tiling read only ``sim_params.tandem`` (scratchpad
    capacities, lanes, iterator-table sizes); DRAM, energy and overlay
    parameters shape evaluation, not the artifact, so they stay out of
    the key and a cache hit is rebound to the requested ``sim_params``.

    A default (or absent) pass pipeline contributes nothing to the key,
    so artifacts compiled before pipelines existed keep hitting;
    non-default pipelines extend the fingerprint with their knob dict.
    """
    from ..runtime.cache import fingerprint, graph_fingerprint
    from .serialize import FORMAT_VERSION
    if pipeline is not None and not pipeline.is_default:
        return fingerprint("compiled-model", FORMAT_VERSION,
                           graph_fingerprint(graph), sim_params.tandem,
                           gemm_params, frac_bits, special_functions,
                           PIPELINE_VERSION, pipeline.as_dict())
    return fingerprint("compiled-model", FORMAT_VERSION,
                       graph_fingerprint(graph), sim_params.tandem,
                       gemm_params, frac_bits, special_functions)


def compile_model(graph: Graph, sim_params: Optional[SimParams] = None,
                  gemm_params: Optional[SystolicParams] = None,
                  frac_bits: int = FRAC_BITS,
                  special_functions: bool = False,
                  verify: Optional[bool] = None,
                  pipeline: Optional[PipelineConfig] = None) -> CompiledModel:
    """Compile a graph for the NPU-Tandem (Table 3 defaults).

    Compilation is content-cached (see :mod:`repro.runtime.cache`): a
    structurally identical (graph, Tandem core, GEMM array, options)
    request returns the cached artifact, rebound to the requested
    ``graph`` object and full ``sim_params``.

    Every freshly compiled model is statically verified
    (:mod:`repro.analysis.verifier`) before it is published to the
    cache; a program with error-severity findings raises
    :class:`~repro.analysis.verifier.VerificationError`. The
    verification record is cached under the same content key (kind
    ``"verified"``), so warm cache hits skip re-verification entirely.
    ``verify=None`` follows the ``REPRO_VERIFY`` environment variable
    (default on); pass ``verify=False`` to bypass explicitly.

    ``pipeline`` selects a non-default pass pipeline
    (:class:`~repro.compiler.pipeline.PipelineConfig`), typically one
    chosen by :func:`repro.compiler.autotune.autotune_model`. Omitted or
    default, the output is bit-identical to the fixed seed flow.
    """
    from ..runtime import knobs
    from ..runtime.cache import get_cache
    from ..telemetry import get_telemetry
    from .serialize import dump_model, load_model

    sim_params = sim_params or SimParams()
    gemm_params = gemm_params or SystolicParams()
    if pipeline is not None and pipeline.is_default:
        pipeline = None
    if verify is None:
        verify = knobs.get("REPRO_VERIFY")
    tel = get_telemetry()
    with tel.span("compile", cat="compiler", model=graph.name):
        cache = get_cache()
        key = None
        if cache.enabled:
            key = _compile_key(graph, sim_params, gemm_params, frac_bits,
                               special_functions, pipeline)
            hit = cache.get(
                "compiled", key,
                decode=lambda text: load_model(text, graph, sim_params,
                                               gemm_params))
            if hit is not None:
                # Blocks are shared, read-only artifacts; the wrapper binds
                # this caller's graph object and evaluation parameters.
                return CompiledModel(graph=graph, blocks=hit.blocks,
                                     sim_params=sim_params,
                                     gemm_params=gemm_params)
        with tel.span("lower", cat="compiler", model=graph.name):
            model = _compile_model_uncached(graph, sim_params, gemm_params,
                                            frac_bits, special_functions,
                                            pipeline)
        if verify:
            # Imported lazily: repro.analysis pulls in the DSE/NPU stack.
            from ..analysis.verifier import VerificationError, verify_model
            with tel.span("verify", cat="compiler", model=graph.name):
                report = verify_model(model)
            if key is not None:
                # The record is cached even when dirty so serving admission
                # control can distinguish "failed verification" from
                # "never verified".
                cache.put("verified", key, report.record())
            if not report.clean:
                raise VerificationError(report)
        if key is not None:
            cache.put("compiled", key, model, encode=dump_model)
        return model


def verify_record_for(graph: Graph, sim_params: Optional[SimParams] = None,
                      gemm_params: Optional[SystolicParams] = None,
                      frac_bits: int = FRAC_BITS,
                      special_functions: bool = False) -> Dict:
    """The cached verification record for a model, computing it if absent.

    Returns the compact dict produced by
    :meth:`~repro.analysis.verifier.ModelVerifyReport.record`; its
    ``"clean"`` field is what serving admission control gates on. A
    missing record is recomputed (compiling the model if necessary) and
    published under the model's compile key.
    """
    from ..runtime.cache import get_cache

    sim_params = sim_params or SimParams()
    gemm_params = gemm_params or SystolicParams()
    cache = get_cache()
    key = None
    if cache.enabled:
        key = _compile_key(graph, sim_params, gemm_params, frac_bits,
                           special_functions)
        record = cache.get("verified", key)
        if record is not None:
            return record
    from ..analysis.verifier import verify_model
    model = compile_model(graph, sim_params, gemm_params, frac_bits,
                          special_functions, verify=False)
    record = verify_model(model).record()
    if key is not None:
        cache.put("verified", key, record)
    return record


def explain_compile(graph: Graph, sim_params: Optional[SimParams] = None,
                    gemm_params: Optional[SystolicParams] = None,
                    frac_bits: int = FRAC_BITS,
                    special_functions: bool = False,
                    pipeline: Optional[PipelineConfig] = None):
    """Compile uncached and narrate the pass pipeline's decisions.

    Returns ``(model, lines)`` where ``lines`` is the human-readable
    account behind ``repro compile --explain``: the pipeline config,
    each stage's description, how many times each pass actually applied,
    and the resulting block/tile/instruction shape. Always runs the real
    (uncached) flow so the log reflects this compile, not a cache hit.
    """
    sim_params = sim_params or SimParams()
    gemm_params = gemm_params or SystolicParams()
    config = pipeline or PipelineConfig()
    pass_log: Dict[str, int] = {}
    model = _compile_model_uncached(
        graph, sim_params, gemm_params, frac_bits, special_functions,
        None if config.is_default else config, pass_log)
    lines = [f"pipeline: {config.label()}"]
    lines.extend("  " + line for line in config.describe())
    lines.append("applied:")
    for stage in ("fuse_blocks", "loop_fission", "loop_interchange"):
        lines.append(f"  {stage}: {pass_log.get(stage, 0)}")
    tiles = sum(b.tiles for b in model.blocks)
    lines.append(f"result: {len(model.blocks)} blocks, {tiles} tiles, "
                 f"{model.total_instructions()} instructions")
    return model, lines


def _compile_model_uncached(graph: Graph, sim_params: SimParams,
                            gemm_params: SystolicParams, frac_bits: int,
                            special_functions: bool,
                            pipeline: Optional[PipelineConfig] = None,
                            pass_log: Optional[Dict[str, int]] = None
                            ) -> CompiledModel:
    array = SystolicArray(gemm_params)
    passes = PassPipeline(pipeline) if pipeline is not None else None
    strategy = pipeline.tile_search if pipeline is not None else "pow2"

    compiled: List[CompiledBlock] = []
    pending = form_blocks(graph)
    if passes is not None:
        state = PipelineState(config=pipeline, blocks=pending)
        pending = passes.run_blocks(state)
        if pass_log is not None:
            for stage, applied in state.log:
                pass_log[stage] = pass_log.get(stage, 0) + applied
    while pending:
        block = pending.pop(0)
        gemm_cost = (None if block.gemm is None
                     else _gemm_layer_cost(block.gemm, graph, array))
        if not block.ops:
            compiled.append(CompiledBlock(block=block, tiles=1, tile=None,
                                          gemm_cost=gemm_cost))
            continue
        # Per-attempt pass logs: only the chosen tile count's log counts
        # toward the model-level summary.
        attempt_logs: Dict[int, Dict[str, int]] = {}

        def try_compile(t, block=block, attempt_logs=attempt_logs):
            """Compile one tile-count candidate, capturing its pass log."""
            tile_log: Dict[str, int] = {}
            tile = _compile_block_tile(block, graph, sim_params, t,
                                       frac_bits, special_functions,
                                       pipeline=passes, pass_log=tile_log)
            attempt_logs[t] = tile_log
            return tile

        try:
            tiles, tile = search_tiles(block, graph, sim_params.tandem,
                                       try_compile, strategy=strategy)
        except CompileError as err:
            if "IMM BUF" in str(err) and len(block.ops) > 1:
                # Too many distinct constants for one bundle: split it.
                pending = split_block(block) + pending
                continue
            raise
        if pass_log is not None:
            for stage, applied in attempt_logs.get(tiles, {}).items():
                pass_log[stage] = pass_log.get(stage, 0) + applied
        compiled.append(CompiledBlock(
            block=block, tiles=tiles, tile=tile, gemm_cost=gemm_cost,
            stores=external_outputs(block, graph)))
    return CompiledModel(graph=graph, blocks=compiled,
                         sim_params=sim_params, gemm_params=gemm_params)
