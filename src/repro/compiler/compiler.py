"""Top-level compilation (Figure 13).

``compile_model`` turns a graph into a list of :class:`CompiledBlock`:
per block, the tile count, one tile's lowered Tandem program (+ analytic
metadata), and the GEMM layer's cost dimensions. The NPU executor
(:mod:`repro.npu`) consumes this to produce end-to-end time/energy; the
functional runner replays the same programs on real data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil
from typing import Dict, List, Optional, Tuple, Union

from ..gemm import GemmCost, SystolicArray, SystolicParams, gemm_dims
from ..graph import DTYPE_BYTES, Graph, Node
from ..isa import Namespace, TandemProgram
from ..simulator.params import SimParams
from .fusion import Block, external_outputs, form_blocks, split_block
from .ir import CompileError, Resident, TileContext
from .lowering import LoweredTile, lower_tile
from .pipeline import PIPELINE_VERSION, PipelineConfig, fuse_blocks, \
    nest_passes
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
                        tiles: int, special_functions: bool,
                        pipeline: PipelineConfig,
                        pass_log: Dict[str, int]) -> LoweredTile:
    ctx = TileContext(params.tandem, strict=(tiles == 1),
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
        elif name in ctx.dram_alias:
            # A pure DRAM rename (reshape of off-chip data) escaping the
            # block: consumers compiled into later blocks load ``name``
            # itself, so the rename must be materialized with a real
            # DAE round-trip. Maximal fusion never splits a rename from
            # its consumer, so this only arises (and only costs) under a
            # pipeline that caps fusion depth.
            spec = graph.tensor(name)
            ctx.source(name, spec.shape,
                       element_bytes=DTYPE_BYTES[spec.dtype])
            ctx.store(name, element_bytes=DTYPE_BYTES[spec.dtype])
        # Other non-resident outputs (e.g. DAE-forwarded Concat) are
        # already off-chip under their own name.
    op_ranges = nest_passes(ctx, op_ranges, pipeline, pass_log)
    return lower_tile(ctx, f"{block.name}_tile",
                      reads_obuf=block.gemm is not None,
                      op_ranges=op_ranges)


def _compile_key(graph: Graph, sim_params: SimParams,
                 gemm_params: SystolicParams, special_functions: bool,
                 pipeline: PipelineConfig) -> str:
    """Content address of the compiled artifact.

    Lowering and tiling read only ``sim_params.tandem`` (scratchpad
    capacities, lanes, iterator-table sizes); DRAM, energy and overlay
    parameters shape evaluation, not the artifact, so they stay out of
    the key and a cache hit is rebound to the requested ``sim_params``.
    The pass pipeline's knob dict is always part of the key.
    """
    from ..runtime.cache import fingerprint, graph_fingerprint
    from .serialize import FORMAT_VERSION
    return fingerprint("compiled-model", FORMAT_VERSION,
                       graph_fingerprint(graph), sim_params.tandem,
                       gemm_params, special_functions,
                       PIPELINE_VERSION, pipeline.as_dict())


def compile_model(graph: Graph, sim_params: Optional[SimParams] = None,
                  gemm_params: Optional[SystolicParams] = None,
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

    ``pipeline`` selects the pass pipeline
    (:class:`~repro.compiler.pipeline.PipelineConfig`, default
    ``PipelineConfig()``), typically one chosen by
    :func:`repro.compiler.autotune.autotune_model`.
    """
    from ..runtime import knobs
    from ..runtime.cache import get_cache
    from ..telemetry import get_telemetry
    from .serialize import dump_model, load_model

    sim_params = sim_params or SimParams()
    gemm_params = gemm_params or SystolicParams()
    pipeline = pipeline or PipelineConfig()
    if verify is None:
        verify = knobs.get("REPRO_VERIFY")
    tel = get_telemetry()
    with tel.span("compile", cat="compiler", model=graph.name):
        cache = get_cache()
        key = None
        if cache.enabled:
            key = _compile_key(graph, sim_params, gemm_params,
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
                                            special_functions, pipeline, {})
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
                      special_functions: bool = False,
                      pipeline: Optional[PipelineConfig] = None) -> Dict:
    """The cached verification record for a model, computing it if absent.

    Returns the compact dict produced by
    :meth:`~repro.analysis.verifier.ModelVerifyReport.record`; its
    ``"clean"`` field is what serving admission control gates on. The
    record belongs to the program ``pipeline`` compiles (default
    ``PipelineConfig()``); a missing one is recomputed (compiling the
    model if necessary) and published under that compile key.
    """
    from ..runtime.cache import get_cache

    sim_params = sim_params or SimParams()
    gemm_params = gemm_params or SystolicParams()
    pipeline = pipeline or PipelineConfig()
    cache = get_cache()
    key = None
    if cache.enabled:
        key = _compile_key(graph, sim_params, gemm_params,
                           special_functions, pipeline)
        record = cache.get("verified", key)
        if record is not None:
            return record
    from ..analysis.verifier import verify_model
    model = compile_model(graph, sim_params, gemm_params, special_functions,
                          verify=False, pipeline=pipeline)
    record = verify_model(model).record()
    if key is not None:
        cache.put("verified", key, record)
    return record


def explain_compile(graph: Graph, sim_params: Optional[SimParams] = None,
                    gemm_params: Optional[SystolicParams] = None,
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
    model = _compile_model_uncached(graph, sim_params, gemm_params,
                                    special_functions, config, pass_log)
    lines = [f"pipeline: {config.label()}"]
    lines.extend("  " + line for line in config.describe())
    lines.append("applied:")
    for stage in ("fuse_blocks", "loop_fission", "loop_interchange"):
        lines.append(f"  {stage}: {pass_log.get(stage, 0)}")
    tiles = sum(b.tiles for b in model.blocks)
    lines.append(f"result: {len(model.blocks)} blocks, {tiles} tiles, "
                 f"{model.total_instructions()} instructions")
    return model, lines


def _block_key(block: Block, graph: Graph,
               stores: List[str]) -> Tuple[tuple, List[str]]:
    """A block's structural key, and its tensors in key order.

    The key covers everything :func:`_compile_block_tile` and
    :func:`search_tiles` read of a block: whether it has a GEMM, each
    node's operator and attributes, its tensor edges renamed by first
    appearance, each renamed tensor's shape and dtype, and which tensors
    escape the block (``stores``). The compiler never derives anything
    from a tensor's name, so two blocks with equal keys lower to the
    same tile up to that renaming.
    """
    index: Dict[str, int] = {}

    def ref(name: str) -> int:
        return index.setdefault(name, len(index))

    nodes = tuple((node.op_type, repr(sorted(node.attrs.items())),
                   tuple(map(ref, node.inputs)), tuple(map(ref, node.outputs)),
                   tuple(map(ref, node.params)))
                  for node in block.nodes)
    escapes = tuple(map(ref, stores))
    specs = tuple((graph.tensor(name).shape, graph.tensor(name).dtype)
                  for name in index)
    return (block.gemm is not None, nodes, escapes, specs), list(index)


def _rebind_tile(tile: LoweredTile, name: str,
                 names: Dict[Union[str, int], str]) -> LoweredTile:
    """``tile``, lowered for an equal-keyed block, renamed for this one.

    ``names`` maps the source block's tensors (or, for a template decoded
    from an artifact, its tensor indices) to this block's. Everything
    but the program name and the DRAM tensor bindings is shared by value;
    each list is copied so the two tiles stay independent objects. This
    is the only place a tile is renamed: the compiler binds repeated
    blocks here, and the artifact loader binds every block's tile here
    from its program-table entry.
    """
    def rename(tensor: str) -> str:
        if tensor not in names:
            raise RuntimeError(
                f"{tile.program.name} binds tensor {tensor!r}, which its "
                f"block key does not cover")
        return names[tensor]

    access = tile.access_meta
    access = replace(
        access, nests=list(access.nests), permutes=list(access.permutes),
        claims=list(access.claims),
        transfers=[_renamed(t, rename(t.tensor)) for t in access.transfers],
        dram_alias={rename(alias): rename(root)
                    for alias, root in access.dram_alias.items()})
    bound = replace(
        tile, program=TandemProgram(name, list(tile.program.instructions)),
        transfers=[_renamed(t, rename(t.tensor)) for t in tile.transfers],
        permutes=list(tile.permutes), imm_values=list(tile.imm_values),
        op_ranges=list(tile.op_ranges), access_meta=access)
    bound.template = tile.template or tile
    return bound


def _renamed(slot, tensor: str):
    """A copy of the frozen ``slot`` bound to DRAM tensor ``tensor``.

    Bypasses ``dataclasses.replace``, which re-runs ``__init__`` field by
    field and dominates a warm artifact load.
    """
    copy = object.__new__(type(slot))
    copy.__dict__.update(slot.__dict__)
    copy.__dict__["tensor"] = tensor
    return copy


def _compile_model_uncached(graph: Graph, sim_params: SimParams,
                            gemm_params: SystolicParams,
                            special_functions: bool,
                            pipeline: PipelineConfig,
                            pass_log: Dict[str, int]) -> CompiledModel:
    """Run the pass pipeline; ``pass_log`` collects its stage tallies."""
    from ..telemetry import get_telemetry

    array = SystolicArray(gemm_params)
    tel = get_telemetry()

    compiled: List[CompiledBlock] = []
    # Block key -> (its tensors, tile count, tile, chosen attempt's pass
    # log) of the first block lowered under that key.
    lowered: Dict[tuple, Tuple[List[str], int, LoweredTile,
                               Dict[str, int]]] = {}
    pending = fuse_blocks(form_blocks(graph), pipeline, pass_log)
    while pending:
        block = pending.pop(0)
        gemm_cost = (None if block.gemm is None
                     else _gemm_layer_cost(block.gemm, graph, array))
        if not block.ops:
            compiled.append(CompiledBlock(block=block, tiles=1, tile=None,
                                          gemm_cost=gemm_cost))
            continue
        stores = external_outputs(block, graph)
        key, names = _block_key(block, graph, stores)
        if key in lowered:
            source, tiles, tile, chosen_log = lowered[key]
            tile = _rebind_tile(tile, f"{block.name}_tile",
                                dict(zip(source, names)))
            tel.count("compiler.blocks.reused")
        else:
            # Per-attempt pass logs: only the chosen tile count's log
            # counts toward the model-level summary.
            attempt_logs: Dict[int, Dict[str, int]] = {}

            def try_compile(t, block=block, attempt_logs=attempt_logs):
                """Compile one tile-count candidate, capturing its pass log."""
                tile_log: Dict[str, int] = {}
                tile = _compile_block_tile(block, graph, sim_params, t,
                                           special_functions, pipeline,
                                           tile_log)
                attempt_logs[t] = tile_log
                return tile

            try:
                tiles, tile = search_tiles(block, graph, sim_params.tandem,
                                           try_compile,
                                           strategy=pipeline.tile_search)
            except CompileError as err:
                if "IMM BUF" in str(err) and len(block.ops) > 1:
                    # Too many distinct constants for one bundle: split it.
                    pending = split_block(block) + pending
                    continue
                raise
            chosen_log = attempt_logs.get(tiles, {})
            lowered[key] = (names, tiles, tile, chosen_log)
            tel.count("compiler.blocks.lowered")
        for stage, applied in chosen_log.items():
            pass_log[stage] = pass_log.get(stage, 0) + applied
        compiled.append(CompiledBlock(
            block=block, tiles=tiles, tile=tile, gemm_cost=gemm_cost,
            stores=stores))
    return CompiledModel(graph=graph, blocks=compiled,
                         sim_params=sim_params, gemm_params=gemm_params)
