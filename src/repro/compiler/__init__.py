"""The Tandem Processor compiler (Figure 13)."""

from .autotune import (
    AutotuneReport,
    autotune_model,
)
from .compiler import (
    CompiledBlock,
    CompiledModel,
    compile_model,
    explain_compile,
    verify_record_for,
)
from .fusion import Block, external_outputs, form_blocks, split_at_depth, \
    split_block
from .integer_ops import (
    FRAC_BITS,
    Step,
    from_fixed,
    i_erf,
    i_exp,
    i_gelu,
    i_reciprocal,
    i_sigmoid,
    i_sqrt,
    i_tanh,
    run_recipe,
    to_fixed,
)
from .ir import (
    CompileError,
    Nest,
    PermuteSlot,
    Resident,
    Stmt,
    TileContext,
    TransferSlot,
    TRef,
    broadcast_views,
    recipe_body,
)
from .lowering import LoweredTile, lower_tile
from .pipeline import (
    KNOB_SPACE,
    PassPipeline,
    PipelineConfig,
    PipelineState,
    all_configs,
    compiler_pass,
    knob_space_size,
)
from .reference import ReferenceExecutor
from .serialize import dump_model, load_blocks, tile_from_dict, tile_to_dict
from .templates import TEMPLATES, emit_op
from .tiling import initial_tiles, search_tiles
from .transforms import fission, fissionable, interchange, is_pointwise_parallel

__all__ = [
    "AutotuneReport",
    "KNOB_SPACE",
    "PassPipeline",
    "PipelineConfig",
    "PipelineState",
    "all_configs",
    "autotune_model",
    "compiler_pass",
    "explain_compile",
    "knob_space_size",
    "split_at_depth",
    "fission",
    "fissionable",
    "interchange",
    "is_pointwise_parallel",
    "dump_model",
    "load_blocks",
    "tile_from_dict",
    "tile_to_dict",
    "Block",
    "CompileError",
    "CompiledBlock",
    "CompiledModel",
    "FRAC_BITS",
    "LoweredTile",
    "Nest",
    "PermuteSlot",
    "ReferenceExecutor",
    "Resident",
    "Step",
    "Stmt",
    "TEMPLATES",
    "TRef",
    "TileContext",
    "TransferSlot",
    "broadcast_views",
    "compile_model",
    "emit_op",
    "external_outputs",
    "form_blocks",
    "from_fixed",
    "i_erf",
    "i_exp",
    "i_gelu",
    "i_reciprocal",
    "i_sigmoid",
    "i_sqrt",
    "i_tanh",
    "initial_tiles",
    "lower_tile",
    "recipe_body",
    "run_recipe",
    "search_tiles",
    "split_block",
    "to_fixed",
    "verify_record_for",
]
