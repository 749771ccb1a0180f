"""Per-operator compilation templates (Figure 13, "operation templates").

Each template lowers one non-GEMM graph node into the compiler IR for a
single tile: Data Access Engine transfers, permute-engine activations,
and Code Repeater loop nests of primitive INT32 statements. Complex
operators are expanded through the integer recipes in
:mod:`repro.compiler.integer_ops` (I-BERT / gemmlowp style).

Layout conventions (the loop-interchange optimization of Section 6):
reductions and window operators are compiled with the *parallel*
dimension innermost and unit-stride so the SIMD lanes vectorize over
independent outputs, never over a dependence chain:

* Softmax / ReduceMean over the last axis: tiles are stored transposed
  (columns-major), so lanes sweep rows.
* Pooling / depth-wise convolution: tiles are stored channel-last
  (H, W, C), so lanes sweep channels; the kernel window loops are the
  outer levels of a 5-deep nest.
"""

from __future__ import annotations

from math import ceil, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..graph import Graph, Node
from ..isa import AluFunc, ComparisonFunc, Namespace, Opcode
from .integer_ops import (
    CAUSAL_MASK_SHIFT,
    FRAC_BITS,
    UNARY_RECIPES,
    Step,
    abs_recipe,
    ceil_recipe,
    clip_recipe,
    exp_recipe,
    floor_recipe,
    leaky_relu_recipe,
    relu_recipe,
    sign_recipe,
    silu_recipe,
    sqrt_recipe,
    square_recipe,
)
from .ir import (
    CompileError,
    Resident,
    Stmt,
    TileContext,
    TRef,
    broadcast_views,
    c_strides,
    recipe_body,
    view_ref,
)

INT32_MIN = -(1 << 31)

TemplateFn = Callable[[TileContext, Node, Graph, int], None]
TEMPLATES: Dict[str, TemplateFn] = {}


def template(*op_types: str):
    """Register a lowering template for one operator type."""
    def wrap(fn: TemplateFn) -> TemplateFn:
        for op in op_types:
            TEMPLATES[op] = fn
        return fn
    return wrap


def emit_op(ctx: TileContext, node: Node, graph: Graph, tiles: int = 1) -> None:
    """Lower one non-GEMM node into ``ctx`` for one of ``tiles`` tiles."""
    try:
        fn = TEMPLATES[node.op_type]
    except KeyError:
        raise CompileError(
            f"no template for operator {node.op_type!r}") from None
    fn(ctx, node, graph, max(1, tiles))


def _split(count: int, tiles: int) -> int:
    return max(1, ceil(count / tiles))


def _flat_ref(res: Resident, var: str) -> TRef:
    return TRef(res.ns, res.base, {var: 1})


# ---------------------------------------------------------------------------
# Element-wise operators (flat layout, broadcast-aware)
# ---------------------------------------------------------------------------
_BINARY_ALU = {
    "Add": AluFunc.ADD,
    "Sub": AluFunc.SUB,
    "Mul": AluFunc.MUL,
    "Div": AluFunc.DIV,
    "Min": AluFunc.MIN,
    "Max": AluFunc.MAX,
    "BitShift": AluFunc.RSHIFT,
}
_BINARY_CMP = {
    "Greater": ComparisonFunc.GT,
    "Equal": ComparisonFunc.EQ,
    "Less": ComparisonFunc.LT,
}


def _binary_operands(node: Node, graph: Graph) -> List[Tuple[str, Tuple[int, ...]]]:
    """(name, shape) of the two operands: activations first, then params."""
    names = list(node.inputs) + list(node.params)
    if len(names) < 2:
        raise CompileError(f"{node.op_type} node {node.name} has <2 operands")
    a, b = names[0], names[1]
    return [(a, graph.tensor(a).shape), (b, graph.tensor(b).shape)]


def _tiled_elementwise_views(ctx: TileContext, node: Node, graph: Graph,
                             tiles: int, operands):
    """Shared machinery: tiled loop nest + operand/output references."""
    out = graph.out_spec(node)
    loops, in_maps, out_map = broadcast_views(
        out.shape, [shape for _, shape in operands])
    # Distribute the tile split across loop levels, outermost first
    # (one level may not have enough iterations to absorb it).
    factors = {}
    remaining = tiles
    tiled_loops = []
    for var, count in loops:
        factor = min(remaining, count)
        factors[var] = factor
        tiled_loops.append((var, _split(count, factor)))
        remaining = ceil(remaining / factor)
    loops = tiled_loops
    tile_points = prod(c for _, c in loops)

    refs = []
    for (name, shape), strides in zip(operands, in_maps):
        full = prod(shape)
        # An operand shrinks by the split factors of every loop it
        # actually walks; broadcast axes (stride 0) keep it whole there.
        shrink = prod(f for v, f in factors.items() if strides.get(v, 0) != 0)
        elems = max(1, ceil(full / shrink))
        res = ctx.source(name, (elems,))
        refs.append(TRef(res.ns, res.base, strides))
    out_res = ctx.dest(node.outputs[0], (tile_points,))
    out_ref = TRef(out_res.ns, out_res.base, out_map)
    return loops, refs, out_ref, tile_points


def _emit_binary(ctx, node, graph, tiles, opcode, func):
    operands = _binary_operands(node, graph)
    loops, refs, out_ref, _pts = _tiled_elementwise_views(
        ctx, node, graph, tiles, operands)
    ctx.nest(loops, [Stmt(opcode, int(func), out_ref, refs[0], refs[1])])


@template("Add", "Sub", "Mul", "Div", "Min", "Max", "BitShift")
def t_binary(ctx, node, graph, tiles):
    """Elementwise binary ops (Add/Sub/Mul/Div/Pow) over tiles."""
    _emit_binary(ctx, node, graph, tiles, Opcode.ALU, _BINARY_ALU[node.op_type])


@template("Greater", "Equal", "Less")
def t_compare(ctx, node, graph, tiles):
    """Elementwise comparisons writing 0/1 masks."""
    _emit_binary(ctx, node, graph, tiles, Opcode.COMPARISON,
                 _BINARY_CMP[node.op_type])


@template("Where")
def t_where(ctx, node, graph, tiles):
    """Mask-select between two operands (COND_MOVE)."""
    names = list(node.inputs) + list(node.params)
    cond, a, b = names[0], names[1], names[2]
    operands = [(cond, graph.tensor(cond).shape),
                (a, graph.tensor(a).shape),
                (b, graph.tensor(b).shape)]
    loops, refs, out_ref, _pts = _tiled_elementwise_views(
        ctx, node, graph, tiles, operands)
    cond_ref, a_ref, b_ref = refs
    ctx.nest(loops, [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), out_ref, b_ref),
        Stmt(Opcode.ALU, int(AluFunc.COND_MOVE), out_ref, a_ref, cond_ref),
    ])


def _unary_recipe_steps(ctx: TileContext, node: Node) -> List[Step]:
    op = node.op_type
    if op in UNARY_RECIPES:
        return UNARY_RECIPES[op]()
    if op == "Relu":
        return relu_recipe()
    if op == "LeakyRelu":
        return leaky_relu_recipe(node.attr("alpha", 0.01))
    if op == "Clip":
        one = 1 << FRAC_BITS
        lo = int(round(node.attr("min", 0.0) * one))
        hi = int(round(node.attr("max", 6.0) * one))
        return clip_recipe(lo, hi)
    if op == "Floor":
        return floor_recipe()
    if op == "Ceil":
        return ceil_recipe()
    if op == "Abs":
        return abs_recipe()
    if op == "Sign":
        return sign_recipe()
    if op == "Pow":
        exponent = node.attr("exponent", 2.0)
        if abs(exponent - 2.0) > 1e-9:
            raise CompileError(f"Pow exponent {exponent} unsupported")
        return square_recipe()
    raise CompileError(f"no unary recipe for {op!r}")


#: Operators a VPU-style special-function unit covers in one instruction.
SPECIAL_FUNCTION_OPS = frozenset({
    "Exp", "Erf", "Gelu", "Sigmoid", "Silu", "Tanh", "Sqrt", "Reciprocal",
})


@template("Relu", "LeakyRelu", "Clip", "Floor", "Ceil", "Abs", "Sign", "Pow",
          "Exp", "Erf", "Gelu", "Sigmoid", "Silu", "Tanh", "Sqrt",
          "Reciprocal")
def t_unary(ctx, node, graph, tiles):
    """Unary ops + activation recipes from integer_ops."""
    out = graph.out_spec(node)
    elems = _split(out.numel, tiles)
    in_res = ctx.source(node.inputs[0], (elems,))
    out_res = ctx.dest(node.outputs[0], (elems,))
    var = "i"
    loops = [(var, elems)]
    if ctx.special_functions and node.op_type in SPECIAL_FUNCTION_OPS:
        # One special-function instruction per element (VPU emulation).
        body = [Stmt(Opcode.ALU, int(AluFunc.MOVE), _flat_ref(out_res, var),
                     _flat_ref(in_res, var))]
    else:
        steps = _unary_recipe_steps(ctx, node)
        body = recipe_body(ctx, steps, _flat_ref(in_res, var),
                           _flat_ref(out_res, var), loops, elems)
    ctx.nest(loops, body)


# ---------------------------------------------------------------------------
# Reductions over the last axis: Softmax, ReduceMean
# ---------------------------------------------------------------------------
def _rows_cols(shape: Sequence[int], axis: int) -> Tuple[int, int]:
    axis = axis % len(shape)
    if axis != len(shape) - 1:
        raise CompileError(f"only last-axis reductions supported, got {axis}")
    cols = shape[-1]
    rows = prod(shape) // cols
    return rows, cols


@template("Softmax")
def t_softmax(ctx, node, graph, tiles):
    """Softmax: max-subtract, i_exp, sum, reciprocal-multiply."""
    spec = graph.tensor(node.inputs[0])
    rows, cols = _rows_cols(spec.shape, node.attr("axis", -1))
    rows_t = _split(rows, tiles)
    # Column-major tile so lanes vectorize over rows.
    x = ctx.source(node.inputs[0], (rows_t, cols), layout=(1, 0))
    out = ctx.dest(node.outputs[0], (rows_t, cols), layout=(1, 0))
    x_ref = view_ref(x, ("c", "r"), {"c": rows_t, "r": 1})
    out_ref = view_ref(out, ("c", "r"), {"c": rows_t, "r": 1})

    m_ns, m_base = ctx.alloc(rows_t)
    m_ref = TRef(m_ns, m_base, {"r": 1})
    s_ns, s_base = ctx.alloc(rows_t)
    s_ref = TRef(s_ns, s_base, {"r": 1})
    e_ns, e_base = ctx.alloc(rows_t * cols)
    e_ref = TRef(e_ns, e_base, {"c": rows_t, "r": 1})

    # 1. Row maxima (for numerical stability, as I-BERT does).
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), m_ref, ctx.imm(INT32_MIN))])
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MAX), m_ref, m_ref, x_ref)])
    # 2. e = i_exp(x - m).
    t_ns, t_base = ctx.alloc(rows_t)
    t_ref = TRef(t_ns, t_base, {"r": 1})
    loops = [("c", cols), ("r", rows_t)]
    body = [Stmt(Opcode.ALU, int(AluFunc.SUB), t_ref, x_ref, m_ref)]
    if ctx.special_functions:
        body.append(Stmt(Opcode.ALU, int(AluFunc.MOVE), e_ref, t_ref))
    else:
        body += recipe_body(ctx, exp_recipe(), t_ref, e_ref,
                            loops, rows_t * cols, temp_strides={"r": 1},
                            temp_elements=rows_t)
    ctx.nest(loops, body)
    # 3. Row sums.
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), s_ref, ctx.imm(0))])
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.ADD), s_ref, s_ref, e_ref)])
    # 4. out = (e << f) / s.
    u_ns, u_base = ctx.alloc(rows_t)
    u_ref = TRef(u_ns, u_base, {"r": 1})
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.LSHIFT), u_ref, e_ref,
             ctx.imm(FRAC_BITS)),
        Stmt(Opcode.ALU, int(AluFunc.DIV), out_ref, u_ref, s_ref),
    ])


@template("SwiGLU")
def t_swiglu(ctx, node, graph, tiles):
    """SwiGLU: silu(gate) * up, the gate expanded through silu_recipe."""
    operands = _binary_operands(node, graph)
    loops, refs, out_ref, tile_points = _tiled_elementwise_views(
        ctx, node, graph, tiles, operands)
    gate_ref, up_ref = refs
    s_ns, s_base = ctx.alloc(tile_points)
    s_ref = TRef(s_ns, s_base, dict(out_ref.strides))
    if ctx.special_functions:
        body = [Stmt(Opcode.ALU, int(AluFunc.MOVE), s_ref, gate_ref)]
    else:
        body = recipe_body(ctx, silu_recipe(), gate_ref, s_ref,
                           loops, tile_points)
    body += [
        Stmt(Opcode.ALU, int(AluFunc.MUL), s_ref, s_ref, up_ref),
        Stmt(Opcode.ALU, int(AluFunc.RSHIFT), out_ref, s_ref,
             ctx.imm(FRAC_BITS)),
    ]
    ctx.nest(loops, body)


@template("Rope")
def t_rope(ctx, node, graph, tiles):
    """Rotary embedding: paired rotation of (even, odd) lanes.

    The cos/sin tables live on-chip like any other parameter; the decode
    step binds tables already sliced at the cache offset, so the nest is
    position-agnostic.
    """
    spec = graph.tensor(node.inputs[0])
    shape = spec.shape
    seq, hd = shape[-2], shape[-1]
    half = node.attr("half", hd // 2)
    lead = prod(shape) // (seq * hd)
    f = ctx.imm(FRAC_BITS)
    if tiles == 1:
        x = ctx.source(node.inputs[0], (lead, seq, hd))
        out = ctx.dest(node.outputs[0], (lead, seq, hd))
        cos = ctx.source(node.params[0], (seq, half))
        sin = ctx.source(node.params[1], (seq, half))
        loops = [("b", lead), ("p", seq), ("i", half)]
        pair = {"b": seq * hd, "p": hd, "i": 2}
        tab = {"b": 0, "p": half, "i": 1}
        cos_ref = TRef(cos.ns, cos.base, tab)
        sin_ref = TRef(sin.ns, sin.base, tab)
    else:
        # Cost mode: a flat sweep with broadcast table reads — the same
        # instruction count per rotated pair, capacity-bounded buffers.
        pairs = _split(lead * seq * half, tiles)
        x = ctx.source(node.inputs[0], (pairs * 2,))
        out = ctx.dest(node.outputs[0], (pairs * 2,))
        cos = ctx.source(node.params[0], (seq, half))
        sin = ctx.source(node.params[1], (seq, half))
        loops = [("i", pairs)]
        pair = {"i": 2}
        cos_ref = TRef(cos.ns, cos.base, {"i": 0})
        sin_ref = TRef(sin.ns, sin.base, {"i": 0})
    xe = TRef(x.ns, x.base, pair)
    xo = TRef(x.ns, x.base + 1, pair)
    oe = TRef(out.ns, out.base, pair)
    oo = TRef(out.ns, out.base + 1, pair)
    t1_ns, t1_base = ctx.alloc(half)
    t2_ns, t2_base = ctx.alloc(half)
    t1 = TRef(t1_ns, t1_base, {"i": 1} if tiles == 1 else {})
    t2 = TRef(t2_ns, t2_base, {"i": 1} if tiles == 1 else {})
    ctx.nest(loops, [
        Stmt(Opcode.ALU, int(AluFunc.MUL), t1, xe, cos_ref),
        Stmt(Opcode.ALU, int(AluFunc.MUL), t2, xo, sin_ref),
        Stmt(Opcode.ALU, int(AluFunc.SUB), t1, t1, t2),
        Stmt(Opcode.ALU, int(AluFunc.RSHIFT), oe, t1, f),
        Stmt(Opcode.ALU, int(AluFunc.MUL), t1, xe, sin_ref),
        Stmt(Opcode.ALU, int(AluFunc.MUL), t2, xo, cos_ref),
        Stmt(Opcode.ALU, int(AluFunc.ADD), t1, t1, t2),
        Stmt(Opcode.ALU, int(AluFunc.RSHIFT), oo, t1, f),
    ])


@template("RMSNorm")
def t_rmsnorm(ctx, node, graph, tiles):
    """RMSNorm: mean-of-squares, i_sqrt, scale by gamma (column-major)."""
    spec = graph.tensor(node.inputs[0])
    rows, cols = _rows_cols(spec.shape, node.attr("axis", -1))
    rows_t = _split(rows, tiles)
    x = ctx.source(node.inputs[0], (rows_t, cols), layout=(1, 0))
    out = ctx.dest(node.outputs[0], (rows_t, cols), layout=(1, 0))
    gamma = ctx.source(node.params[0], (cols,))
    x_ref = view_ref(x, ("c", "r"), {"c": rows_t, "r": 1})
    out_ref = view_ref(out, ("c", "r"), {"c": rows_t, "r": 1})
    g_ref = TRef(gamma.ns, gamma.base, {"c": 1, "r": 0})

    # 1. sq = (x * x) >> f (per-element shift keeps the running sum in
    #    32 bits for wide hidden dims).
    sq_ns, sq_base = ctx.alloc(rows_t * cols)
    sq_ref = TRef(sq_ns, sq_base, {"c": rows_t, "r": 1})
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MUL), sq_ref, x_ref, x_ref),
        Stmt(Opcode.ALU, int(AluFunc.RSHIFT), sq_ref, sq_ref,
             ctx.imm(FRAC_BITS)),
    ])
    # 2. Row accumulation and mean (+1 ULP so all-zero rows stay finite).
    acc_ns, acc_base = ctx.alloc(rows_t)
    acc_ref = TRef(acc_ns, acc_base, {"r": 1})
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), acc_ref, ctx.imm(0))])
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.ADD), acc_ref, acc_ref, sq_ref)])
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.DIV), acc_ref, acc_ref, ctx.imm(cols)),
        Stmt(Opcode.ALU, int(AluFunc.ADD), acc_ref, acc_ref, ctx.imm(1)),
    ])
    # 3. rms = i_sqrt(mean).
    d_ns, d_base = ctx.alloc(rows_t)
    d_ref = TRef(d_ns, d_base, {"r": 1})
    loops = [("r", rows_t)]
    if ctx.special_functions:
        ctx.nest(loops, [Stmt(Opcode.ALU, int(AluFunc.MOVE), d_ref, acc_ref)])
    else:
        ctx.nest(loops, recipe_body(ctx, sqrt_recipe(),
                                    acc_ref, d_ref, loops, rows_t))
    # 4. out = (((x << f) / rms) * gamma) >> f.
    t_ns, t_base = ctx.alloc(rows_t)
    t_ref = TRef(t_ns, t_base, {"r": 1})
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.LSHIFT), t_ref, x_ref,
             ctx.imm(FRAC_BITS)),
        Stmt(Opcode.ALU, int(AluFunc.DIV), t_ref, t_ref, d_ref),
        Stmt(Opcode.ALU, int(AluFunc.MUL), t_ref, t_ref, g_ref),
        Stmt(Opcode.ALU, int(AluFunc.RSHIFT), out_ref, t_ref,
             ctx.imm(FRAC_BITS)),
    ])


@template("CausalSoftmax")
def t_causal_softmax(ctx, node, graph, tiles):
    """Fused causal mask + softmax over attention scores.

    Key column ``j`` is visible to query row ``p`` iff
    ``j <= p + offset``; invisible columns (including the unwritten tail
    of a max-context KV-cache) are stamped with a large negative constant
    whose i_exp is exactly zero, then the standard softmax tail runs.
    """
    spec = graph.tensor(node.inputs[0])
    shape = spec.shape
    q_len, cols = shape[-2], shape[-1]
    rows = prod(shape) // cols
    rows_t = _split(rows, tiles)
    offset = node.attr("offset", 0)
    mask = -(1 << (FRAC_BITS + CAUSAL_MASK_SHIFT))
    x = ctx.source(node.inputs[0], (rows_t, cols), layout=(1, 0))
    out = ctx.dest(node.outputs[0], (rows_t, cols), layout=(1, 0))
    x_ref = view_ref(x, ("c", "r"), {"c": rows_t, "r": 1})
    out_ref = view_ref(out, ("c", "r"), {"c": rows_t, "r": 1})

    # 0. Copy the scores into scratch and stamp the mask.
    scr_ns, scr_base = ctx.alloc(rows_t * cols)
    scr_ref = TRef(scr_ns, scr_base, {"c": rows_t, "r": 1})
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), scr_ref, x_ref)])
    if rows_t == rows:
        # Exact triangle: one nest per query position (decode steps have
        # q_len == 1, so a single nest covers the whole unwritten tail).
        batch = rows // q_len
        for p in range(q_len):
            start = p + offset + 1
            if start >= cols:
                continue
            ctx.nest([("b", batch), ("j", cols - start)], [
                Stmt(Opcode.ALU, int(AluFunc.MOVE),
                     TRef(scr_ns, scr_base + start * rows_t + p,
                          {"j": rows_t, "b": q_len}),
                     ctx.imm(mask))])
    else:
        # Cost mode (tiles > 1): stamp this tile's share of the masked
        # element count without exact per-row addressing.
        masked = (rows // q_len) * sum(
            max(0, cols - (p + offset + 1)) for p in range(q_len))
        masked_t = min(rows_t * cols, _split(masked, tiles)) if masked else 0
        if masked_t:
            ctx.nest([("m", masked_t)], [
                Stmt(Opcode.ALU, int(AluFunc.MOVE),
                     TRef(scr_ns, scr_base, {"m": 1}), ctx.imm(mask))])

    # 1-4. The standard softmax tail over the masked scratch.
    m_ns, m_base = ctx.alloc(rows_t)
    m_ref = TRef(m_ns, m_base, {"r": 1})
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), m_ref, ctx.imm(INT32_MIN))])
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MAX), m_ref, m_ref, scr_ref)])
    e_ns, e_base = ctx.alloc(rows_t * cols)
    e_ref = TRef(e_ns, e_base, {"c": rows_t, "r": 1})
    t_ns, t_base = ctx.alloc(rows_t)
    t_ref = TRef(t_ns, t_base, {"r": 1})
    loops = [("c", cols), ("r", rows_t)]
    body = [Stmt(Opcode.ALU, int(AluFunc.SUB), t_ref, scr_ref, m_ref)]
    if ctx.special_functions:
        body.append(Stmt(Opcode.ALU, int(AluFunc.MOVE), e_ref, t_ref))
    else:
        body += recipe_body(ctx, exp_recipe(), t_ref, e_ref,
                            loops, rows_t * cols, temp_strides={"r": 1},
                            temp_elements=rows_t)
    ctx.nest(loops, body)
    s_ns, s_base = ctx.alloc(rows_t)
    s_ref = TRef(s_ns, s_base, {"r": 1})
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), s_ref, ctx.imm(0))])
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.ADD), s_ref, s_ref, e_ref)])
    u_ns, u_base = ctx.alloc(rows_t)
    u_ref = TRef(u_ns, u_base, {"r": 1})
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.LSHIFT), u_ref, e_ref,
             ctx.imm(FRAC_BITS)),
        Stmt(Opcode.ALU, int(AluFunc.DIV), out_ref, u_ref, s_ref),
    ])


@template("ReduceMean")
def t_reduce_mean(ctx, node, graph, tiles):
    """Mean reduction over the trailing axis."""
    spec = graph.tensor(node.inputs[0])
    rows, cols = _rows_cols(spec.shape, node.attr("axis", -1))
    rows_t = _split(rows, tiles)
    x = ctx.source(node.inputs[0], (rows_t, cols), layout=(1, 0))
    out = ctx.dest(node.outputs[0], (rows_t,))
    x_ref = view_ref(x, ("c", "r"), {"c": rows_t, "r": 1})
    out_ref = _flat_ref(out, "r")
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), out_ref, ctx.imm(0))])
    ctx.nest([("c", cols), ("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.ADD), out_ref, out_ref, x_ref)])
    ctx.nest([("r", rows_t)], [
        Stmt(Opcode.ALU, int(AluFunc.DIV), out_ref, out_ref, ctx.imm(cols))])


@template("GlobalAveragePool")
def t_global_avgpool(ctx, node, graph, tiles):
    """Global average pooling via accumulate + scale."""
    n, c, h, w = graph.tensor(node.inputs[0]).shape
    hw = h * w
    c_t = _split(c, tiles)
    out = ctx.dest(node.outputs[0], (c_t,))
    out_ref = _flat_ref(out, "c")
    ctx.nest([("c", c_t)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE), out_ref, ctx.imm(0))])
    existing = ctx.resident(node.inputs[0])
    if existing is not None and existing.elements >= c_t * hw:
        # In-place reduction over the producer's NCHW buffer: lanes
        # vectorize over HW and combine through the lane-reduce tree —
        # no relayout copy, no extra capacity.
        x = ctx.source(node.inputs[0], (c_t, hw))
        x_ref = view_ref(x, ("c", "k"), {"c": hw, "k": 1})
        sum_ref = TRef(out.ns, out.base, {"c": 1, "k": 0})
        ctx.nest([("c", c_t), ("k", hw)], [
            Stmt(Opcode.ALU, int(AluFunc.ADD), sum_ref, sum_ref, x_ref)])
    else:
        # Off-chip input, streamed: HW is a reduction dimension (never
        # tiled across blocks, Section 6), so it is consumed in row
        # chunks with partial accumulation into out[c]. Each chunk is a
        # channel-last (rows*W, C) tile so lanes vectorize over channels.
        from .ir import TransferSlot
        budget = max(c_t, ctx.params.interim_buf_words // 4)
        rows_per_chunk = max(1, min(h, budget // max(1, c_t * w)))
        ns, base = ctx.alloc(c_t * rows_per_chunk * w)
        tensor = ctx.dram_alias.get(node.inputs[0], node.inputs[0])
        row = 0
        while row < h:
            rows = min(rows_per_chunk, h - row)
            chunk_hw = rows * w
            ctx.add_transfer(TransferSlot(
                direction="ld", tensor=tensor, ns=ns, base=base,
                elements=c_t * chunk_hw,
                pre_reshape=(c_t, chunk_hw), perm=(1, 0),
                region=((0, n), (0, c_t), (row, row + rows), (0, w))
                if tiles == 1 else None))
            x_ref = TRef(ns, base, {"k": c_t, "c": 1})
            acc_ref = TRef(out.ns, out.base, {"k": 0, "c": 1})
            ctx.nest([("k", chunk_hw), ("c", c_t)], [
                Stmt(Opcode.ALU, int(AluFunc.ADD), acc_ref, acc_ref, x_ref)])
            row += rows
    ctx.nest([("c", c_t)], [
        Stmt(Opcode.ALU, int(AluFunc.DIV), out_ref, out_ref, ctx.imm(hw))])


# ---------------------------------------------------------------------------
# Window operators: MaxPool / AveragePool / DepthwiseConv (5-deep nests)
# ---------------------------------------------------------------------------
def _window_setup(ctx, node, graph, tiles, pad_value):
    """Load a channel-last padded input tile; returns geometry + refs."""
    n, c, h, w = graph.tensor(node.inputs[0]).shape
    kh, kw = node.attrs["kernel_shape"]
    stride = node.attrs["strides"][0]
    pad = node.attrs["pads"][0]
    _n, oc, oh, ow = graph.out_spec(node).shape
    if tiles == 1:
        # Exact: whole input, padding materialized by the DAE fill logic.
        x = ctx.source(node.inputs[0], (c, h, w), layout=(1, 2, 0),
                       pad=((0, 0), (pad, pad), (pad, pad)),
                       pad_value=pad_value)
        hp, wp = h + 2 * pad, w + 2 * pad
        return c, hp, wp, kh, kw, stride, oh, ow, x
    # Cost model: tiles split output rows first, then channels (channels
    # are independent for windows, so this never splits a reduction); the
    # input tile carries its kernel halo (Section 6: tiles must cover all
    # adjacent elements of the window): ``h_t`` rows already count the
    # vertical halo, and the DAE pads the ``2*pad`` halo columns the
    # window walk spans.
    tiles_oh = min(tiles, oh)
    tiles_c = min(c, ceil(tiles / tiles_oh))
    oh_t = _split(oh, tiles_oh)
    c_t = _split(c, tiles_c)
    h_t = min(h + 2 * pad, oh_t * stride + (kh - stride))
    x = ctx.source(node.inputs[0], (c_t, h_t, w), layout=(1, 2, 0),
                   pad=((0, 0), (0, 0), (pad, pad)), pad_value=pad_value)
    return c_t, h_t, w + 2 * pad, kh, kw, stride, oh_t, ow, x


@template("MaxPool", "AveragePool")
def t_pool(ctx, node, graph, tiles):
    """Windowed max/average pooling over spatial dims."""
    is_max = node.op_type == "MaxPool"
    pad_value = INT32_MIN if is_max else 0
    c, hp, wp, kh, kw, stride, oh_t, ow, x = _window_setup(
        ctx, node, graph, tiles, pad_value)
    out = ctx.dest(node.outputs[0], (c, oh_t, ow), layout=(1, 2, 0))
    loop_vars = ("kh", "kw", "oh", "ow", "c")
    x_ref = TRef(x.ns, x.base, {
        "kh": wp * c, "kw": c, "oh": stride * wp * c, "ow": stride * c, "c": 1})
    out_ref = TRef(out.ns, out.base, {"oh": ow * c, "ow": c, "c": 1})
    init = ctx.imm(INT32_MIN if is_max else 0)
    ctx.nest([("i", oh_t * ow * c)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE),
             TRef(out.ns, out.base, {"i": 1}), init)])
    func = AluFunc.MAX if is_max else AluFunc.ADD
    ctx.nest([("kh", kh), ("kw", kw), ("oh", oh_t), ("ow", ow), ("c", c)],
             [Stmt(Opcode.ALU, int(func), out_ref, out_ref, x_ref)])
    if not is_max:
        ctx.nest([("i", oh_t * ow * c)], [
            Stmt(Opcode.ALU, int(AluFunc.DIV),
                 TRef(out.ns, out.base, {"i": 1}),
                 TRef(out.ns, out.base, {"i": 1}), ctx.imm(kh * kw))])


@template("DepthwiseConv")
def t_depthwise(ctx, node, graph, tiles):
    """Depthwise convolution as per-channel MACC loops."""
    c, hp, wp, kh, kw, stride, oh_t, ow, x = _window_setup(
        ctx, node, graph, tiles, 0)
    weight = node.params[0]
    w_res = ctx.source(weight, (c, 1, kh, kw), layout=(2, 3, 1, 0))
    out = ctx.dest(node.outputs[0], (c, oh_t, ow), layout=(1, 2, 0))
    x_ref = TRef(x.ns, x.base, {
        "kh": wp * c, "kw": c, "oh": stride * wp * c, "ow": stride * c, "c": 1})
    w_ref = TRef(w_res.ns, w_res.base, {"kh": kw * c, "kw": c, "c": 1})
    out_ref = TRef(out.ns, out.base, {"oh": ow * c, "ow": c, "c": 1})
    ctx.nest([("i", oh_t * ow * c)], [
        Stmt(Opcode.ALU, int(AluFunc.MOVE),
             TRef(out.ns, out.base, {"i": 1}), ctx.imm(0))])
    # The paper's canonical five-deep nest.
    ctx.nest([("kh", kh), ("kw", kw), ("oh", oh_t), ("ow", ow), ("c", c)],
             [Stmt(Opcode.ALU, int(AluFunc.MACC), out_ref, x_ref, w_ref)])


# ---------------------------------------------------------------------------
# Layout operators
# ---------------------------------------------------------------------------
@template("Transpose")
def t_transpose(ctx, node, graph, tiles):
    """Dimension permutation via the PERMUTE engine."""
    in_name = node.inputs[0]
    spec = graph.tensor(in_name)
    perm = tuple(node.attrs["perm"])
    out_shape = tuple(spec.shape[p] for p in perm)
    shape = _tile_shape(spec.shape, tiles)
    # Off-chip inputs: the DAE gathers the permuted layout straight from
    # DRAM. On-chip inputs: one permute-engine activation into a fresh
    # buffer (source() dispatches on residency).
    res = ctx.source(in_name, shape, layout=perm)
    ctx.set_resident(node.outputs[0], Resident(
        res.ns, res.base, tuple(shape[p] for p in perm),
        tuple(range(len(perm)))))


def _tile_shape(shape: Sequence[int], tiles: int) -> Tuple[int, ...]:
    shape = list(shape)
    for i, dim in enumerate(shape):
        if dim > 1:
            shape[i] = _split(dim, tiles)
            break
    return tuple(shape)


@template("Reshape", "Flatten", "Split")
def t_reshape(ctx, node, graph, tiles):
    """Reshape/Flatten: iterator rebinding, no data movement."""
    in_name, out_name = node.inputs[0], node.outputs[0]
    out_shape = graph.out_spec(node).shape
    existing = ctx.resident(in_name)
    if existing is None:
        # Pure metadata: downstream consumers read the same DRAM bytes.
        ctx.dram_alias[out_name] = ctx.dram_alias.get(in_name, in_name)
        return
    if existing.layout != tuple(range(len(existing.shape))):
        # A reshape is only a rename for C-contiguous data; fix layout first.
        existing = ctx.source(in_name, existing.shape)
    ctx.set_resident(out_name, Resident(
        existing.ns, existing.base, tuple(out_shape),
        tuple(range(len(out_shape)))))


@template("Concat")
def t_concat(ctx, node, graph, tiles):
    """Pure data movement: each input is drained into its slice of the
    concatenated DRAM tensor (the DAE's scatter pattern covers this)."""
    from .ir import TransferSlot
    axis = node.attr("axis", 1)
    out_name = node.outputs[0]
    out_shape = graph.out_spec(node).shape
    offset = 0
    for in_name in node.inputs:
        spec = graph.tensor(in_name)
        elems = _split(spec.numel, tiles)
        res = ctx.source(in_name, (elems,))
        region = tuple(
            (offset, offset + spec.shape[axis]) if dim == axis else (0, size)
            for dim, size in enumerate(out_shape))
        ctx.add_transfer(TransferSlot(
            direction="st", tensor=out_name, ns=res.ns, base=res.base,
            elements=elems,
            pre_reshape=spec.shape if tiles == 1 else None,
            region=region))
        offset += spec.shape[axis]


@template("CacheAppend")
def t_cache_append(ctx, node, graph, tiles):
    """KV-cache append: DAE scatter of the new tokens' K/V slice.

    The output tensor *is* the cache (the runner aliases them to the same
    DRAM storage), so only the appended slice moves off-chip — O(new
    tokens) traffic per decode step, never O(max context). ``perm``
    optionally lays the slice out transposed (the K-cache stores keys
    pre-transposed for the score matmul).
    """
    from .ir import TransferSlot
    out_name = node.outputs[0]
    out_shape = graph.out_spec(node).shape
    axis = node.attr("axis", 0) % len(out_shape)
    offset = node.attr("offset", 0)
    perm = node.attrs.get("perm")
    new_name = node.inputs[1]
    spec = graph.tensor(new_name)
    elems = _split(spec.numel, tiles)
    res = ctx.source(new_name, (elems,))
    laid = (tuple(spec.shape[p] for p in perm) if perm
            else tuple(spec.shape))
    region = tuple(
        (offset, offset + laid[d]) if d == axis else (0, out_shape[d])
        for d in range(len(out_shape)))
    # DAE store semantics: the scratchpad block is interpreted as
    # perm(pre_reshape) and inverse-permuted on the way out; the block
    # holds ``new`` in C order, so pre_reshape is the DRAM-side slice
    # shape and the transfer perm is the node perm's inverse.
    inv = None
    if perm:
        inv = [0] * len(perm)
        for i, p in enumerate(perm):
            inv[p] = i
    ctx.add_transfer(TransferSlot(
        direction="st", tensor=out_name, ns=res.ns, base=res.base,
        elements=elems,
        pre_reshape=laid if tiles == 1 else None,
        perm=tuple(inv) if (inv and tiles == 1) else None,
        region=region))


@template("Resize")
def t_resize(ctx, node, graph, tiles):
    """Nearest-neighbour upsampling via strided iterators."""
    n, c, h, w = graph.tensor(node.inputs[0]).shape
    scale = node.attr("scale", 2)
    h_t = _split(h, tiles)
    x = ctx.source(node.inputs[0], (c, h_t, w))
    out = ctx.dest(node.outputs[0], (c, h_t * scale, w * scale))
    x_strides = {"c": h_t * w, "h": w, "w": 1}
    body = []
    for a in range(scale):
        for b in range(scale):
            dst = TRef(out.ns,
                       out.base + a * (w * scale) + b,
                       {"c": h_t * w * scale * scale, "h": w * scale * scale,
                        "w": scale})
            body.append(Stmt(Opcode.ALU, int(AluFunc.MOVE), dst,
                             TRef(x.ns, x.base, x_strides)))
    ctx.nest([("c", c), ("h", h_t), ("w", w)], body)


@template("Slice")
def t_slice(ctx, node, graph, tiles):
    """Strided slice via iterator base/stride setup."""
    in_name = node.inputs[0]
    spec = graph.tensor(in_name)
    out_shape = graph.out_spec(node).shape
    axis = node.attr("axis", 0) % len(spec.shape)
    start = node.attr("start", 0)
    existing = ctx.resident(in_name)
    out_elems = prod(out_shape)
    if existing is not None and ctx.strict:
        # Normalize to the logical C-order shape so axis strides apply.
        existing = ctx.source(in_name, spec.shape)
    else:
        # Cost mode / off-chip: the DAE reads just the sliced region.
        existing = None
    if existing is None:
        region = tuple(
            (start, start + out_shape[d]) if d == axis else (0, spec.shape[d])
            for d in range(len(spec.shape)))
        from .ir import TransferSlot
        ns, base = ctx.alloc(out_elems)
        ctx.add_transfer(TransferSlot(
            direction="ld", tensor=ctx.dram_alias.get(in_name, in_name),
            ns=ns, base=base, elements=out_elems, region=region))
        ctx.set_resident(node.outputs[0], Resident(
            ns, base, tuple(out_shape), tuple(range(len(out_shape)))))
        return
    # Resident: a strided MOVE nest through the iterators.
    in_strides = c_strides(existing.shape)
    base_off = start * in_strides[axis]
    loops = [(f"d{d}", out_shape[d]) for d in range(len(out_shape))]
    src = TRef(existing.ns, existing.base + base_off,
               {f"d{d}": in_strides[d] for d in range(len(out_shape))})
    out_res = ctx.dest(node.outputs[0], tuple(out_shape))
    out_strides = c_strides(list(out_shape))
    dst = TRef(out_res.ns, out_res.base,
               {f"d{d}": out_strides[d] for d in range(len(out_shape))})
    ctx.nest(loops, [Stmt(Opcode.ALU, int(AluFunc.MOVE), dst, src)])


@template("Gather")
def t_gather(ctx, node, graph, tiles):
    # Embedding lookup: the DAE streams one table row per token. This
    # template is cost-only (the benchmarks never run Gather through the
    # functional machine); the gathered rows land resident like a load.
    """Indexed gather through the immediate-indexed iterators."""
    out = graph.out_spec(node)
    elems = _split(out.numel, tiles)
    table = node.params[0] if node.params else node.inputs[0]
    from .ir import TransferSlot
    ns, base = ctx.alloc(elems)
    ctx.add_transfer(TransferSlot(
        direction="ld", tensor=table, ns=ns, base=base, elements=elems))
    ctx.set_resident(node.outputs[0], Resident(ns, base, (elems,), (0,)))


# ---------------------------------------------------------------------------
# Type conversion
# ---------------------------------------------------------------------------
@template("Cast")
def t_cast(ctx, node, graph, tiles):
    """Dtype conversion via DATATYPE_CAST."""
    out = graph.out_spec(node)
    elems = _split(out.numel, tiles)
    in_res = ctx.source(node.inputs[0], (elems,))
    out_res = ctx.dest(node.outputs[0], (elems,))
    ctx.uses_cast = True
    shift = node.attr("shift", 0)
    var = "i"
    if shift:
        body = [Stmt(Opcode.ALU, int(AluFunc.RSHIFT), _flat_ref(out_res, var),
                     _flat_ref(in_res, var), ctx.imm(shift))]
    else:
        body = [Stmt(Opcode.ALU, int(AluFunc.MOVE), _flat_ref(out_res, var),
                     _flat_ref(in_res, var))]
    nest = ctx.nest([(var, elems)], body)
    nest.cast_to = graph.tensor(node.outputs[0]).dtype  # type: ignore[attr-defined]
