"""Ground-truth executor: integer semantics of every operator, in numpy.

This is the "ground truth software implementation" of Section 7 the
paper validates its simulator and RTL against: the Tandem machine's
output for every compiled operator must match this module bit-exactly,
because both implement the same integer algorithms
(:mod:`repro.compiler.integer_ops`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..gemm import SystolicArray
from ..graph import Graph, Node
from .integer_ops import (
    CAUSAL_MASK_SHIFT,
    FRAC_BITS,
    w32,
    UNARY_RECIPES,
    ceil_recipe,
    clip_recipe,
    floor_recipe,
    i_exp,
    i_sqrt,
    leaky_relu_recipe,
    run_recipe,
    silu_recipe,
    square_recipe,
    v_add,
    v_div,
    v_lshift,
    v_mul,
    v_rshift,
    v_sub,
)

INT32_MIN = -(1 << 31)


def _saturate(x: np.ndarray, bits: int) -> np.ndarray:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return np.clip(x, lo, hi)


class ReferenceExecutor:
    """Executes a graph on integer tensors with the compiler's semantics."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def run(self, bindings: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """``bindings`` must cover graph inputs and all parameters."""
        values: Dict[str, np.ndarray] = {
            name: np.asarray(v, dtype=np.int64) for name, v in bindings.items()
        }
        for node in self.graph.topological_order():
            out = self._execute(node, values)
            values[node.outputs[0]] = out
        return values

    # -- dispatch -------------------------------------------------------------
    def _execute(self, node: Node, values: Dict[str, np.ndarray]) -> np.ndarray:
        op = node.op_type
        get = lambda name: values[name]
        x = get(node.inputs[0]) if node.inputs else None
        handler = getattr(self, f"_op_{op.lower()}", None)
        if handler is not None:
            return handler(node, values)
        if op in UNARY_RECIPES:
            return run_recipe(UNARY_RECIPES[op](), x)
        raise NotImplementedError(f"reference semantics missing for {op}")

    # -- GEMM class -------------------------------------------------------------
    def _op_conv(self, node, values):
        x = values[node.inputs[0]]
        w = values[node.params[0]]
        out = SystolicArray.conv2d(x, w, stride=node.attrs["strides"][0],
                                   pad=node.attrs["pads"][0])
        if len(node.params) > 1:
            out = out + values[node.params[1]].reshape(1, -1, 1, 1)
        return w32(out)  # INT32 accumulators (Table 3)

    def _op_gemm(self, node, values):
        x = values[node.inputs[0]]
        w = values[node.params[0]]
        out = x.astype(np.int64) @ w.astype(np.int64)
        if len(node.params) > 1:
            out = out + values[node.params[1]]
        return w32(out)

    def _op_matmul(self, node, values):
        a = values[node.inputs[0]]
        if len(node.inputs) > 1:
            b = values[node.inputs[1]]
        else:
            b = values[node.params[0]]
        return w32(a.astype(np.int64) @ b.astype(np.int64))

    # -- element-wise math ---------------------------------------------------------
    def _two_operands(self, node, values):
        names = list(node.inputs) + list(node.params)
        return values[names[0]], values[names[1]]

    def _op_add(self, node, values):
        a, b = self._two_operands(node, values)
        return w32(a + b)  # the ALU write-back path is 32 bits wide

    def _op_sub(self, node, values):
        a, b = self._two_operands(node, values)
        return w32(a - b)

    def _op_mul(self, node, values):
        a, b = self._two_operands(node, values)
        return w32(a * b)

    def _op_div(self, node, values):
        a, b = self._two_operands(node, values)
        return v_div(a, b)

    def _op_min(self, node, values):
        a, b = self._two_operands(node, values)
        return np.minimum(a, b)

    def _op_max(self, node, values):
        a, b = self._two_operands(node, values)
        return np.maximum(a, b)

    def _op_bitshift(self, node, values):
        a, b = self._two_operands(node, values)
        return v_rshift(a, b)

    def _op_greater(self, node, values):
        a, b = self._two_operands(node, values)
        return (a > b).astype(np.int64)

    def _op_equal(self, node, values):
        a, b = self._two_operands(node, values)
        return (a == b).astype(np.int64)

    def _op_less(self, node, values):
        a, b = self._two_operands(node, values)
        return (a < b).astype(np.int64)

    def _op_where(self, node, values):
        names = list(node.inputs) + list(node.params)
        cond, a, b = (values[n] for n in names[:3])
        return np.where(cond != 0, a, b).astype(np.int64)

    def _op_pow(self, node, values):
        x = values[node.inputs[0]]
        return run_recipe(square_recipe(), x)

    def _op_abs(self, node, values):
        return np.abs(values[node.inputs[0]])

    def _op_sign(self, node, values):
        return np.sign(values[node.inputs[0]]).astype(np.int64)

    def _op_floor(self, node, values):
        return run_recipe(floor_recipe(), values[node.inputs[0]])

    def _op_ceil(self, node, values):
        return run_recipe(ceil_recipe(), values[node.inputs[0]])

    # -- activations --------------------------------------------------------------
    def _op_relu(self, node, values):
        return np.maximum(values[node.inputs[0]], 0)

    def _op_leakyrelu(self, node, values):
        steps = leaky_relu_recipe(node.attr("alpha", 0.01))
        return run_recipe(steps, values[node.inputs[0]])

    def _op_clip(self, node, values):
        one = 1 << FRAC_BITS
        lo = int(round(node.attr("min", 0.0) * one))
        hi = int(round(node.attr("max", 6.0) * one))
        return run_recipe(clip_recipe(lo, hi), values[node.inputs[0]])

    # -- reductions ---------------------------------------------------------------
    def _op_softmax(self, node, values):
        from .integer_ops import v_sub
        x = values[node.inputs[0]]
        m = x.max(axis=-1, keepdims=True)
        # The row-max subtraction goes through the 32-bit ALU datapath,
        # so it wraps exactly like the machine (visible only on
        # saturated inputs, e.g. after a divide-by-zero upstream).
        e = i_exp(v_sub(x, m))
        s = e.sum(axis=-1, keepdims=True)
        return v_div(v_lshift(e, FRAC_BITS), s)

    def _op_swiglu(self, node, values):
        gate, up = self._two_operands(node, values)
        s = run_recipe(silu_recipe(), gate)
        return v_rshift(v_mul(s, up), FRAC_BITS)

    def _op_rope(self, node, values):
        x = values[node.inputs[0]]
        cos = values[node.params[0]]
        sin = values[node.params[1]]
        xe, xo = x[..., 0::2], x[..., 1::2]
        oe = v_rshift(v_sub(v_mul(xe, cos), v_mul(xo, sin)), FRAC_BITS)
        oo = v_rshift(v_add(v_mul(xe, sin), v_mul(xo, cos)), FRAC_BITS)
        out = np.empty_like(x)
        out[..., 0::2] = oe
        out[..., 1::2] = oo
        return out

    def _op_rmsnorm(self, node, values):
        x = values[node.inputs[0]]
        gamma = values[node.params[0]]
        # Per-element >> f before accumulation, exactly like the nest
        # (keeps the running sum in 32 bits for wide hidden dims).
        sq = v_rshift(v_mul(x, x), FRAC_BITS)
        total = w32(sq.sum(axis=-1, keepdims=True))
        mean = v_add(v_div(total, x.shape[-1]), 1)
        rms = i_sqrt(mean)
        t = v_div(v_lshift(x, FRAC_BITS), rms)
        return v_rshift(v_mul(t, gamma), FRAC_BITS)

    def _op_causalsoftmax(self, node, values):
        x = values[node.inputs[0]]
        offset = node.attr("offset", 0)
        mask = -(1 << (FRAC_BITS + CAUSAL_MASK_SHIFT))
        q_len, cols = x.shape[-2], x.shape[-1]
        invisible = (np.arange(cols)[None, :]
                     > np.arange(q_len)[:, None] + offset)
        x = np.where(invisible, mask, x)
        m = x.max(axis=-1, keepdims=True)
        e = i_exp(v_sub(x, m))
        s = e.sum(axis=-1, keepdims=True)
        return v_div(v_lshift(e, FRAC_BITS), s)

    def _op_reducemean(self, node, values):
        x = values[node.inputs[0]]
        total = x.sum(axis=-1, keepdims=node.attr("keepdims", True))
        return v_div(total, x.shape[-1])

    def _op_globalaveragepool(self, node, values):
        x = values[node.inputs[0]]
        total = x.sum(axis=(2, 3), keepdims=True)
        return v_div(total, x.shape[2] * x.shape[3])

    def _pool_views(self, node, x, pad_value):
        kh, kw = node.attrs["kernel_shape"]
        stride = node.attrs["strides"][0]
        pad = node.attrs["pads"][0]
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                    constant_values=pad_value)
        n, c, hp, wp = xp.shape
        oh = (hp - kh) // stride + 1
        ow = (wp - kw) // stride + 1
        return xp, kh, kw, stride, oh, ow

    def _op_maxpool(self, node, values):
        x = values[node.inputs[0]]
        xp, kh, kw, stride, oh, ow = self._pool_views(node, x, INT32_MIN)
        out = np.full((x.shape[0], x.shape[1], oh, ow), INT32_MIN, dtype=np.int64)
        for i in range(kh):
            for j in range(kw):
                window = xp[:, :, i:i + stride * oh:stride,
                            j:j + stride * ow:stride]
                out = np.maximum(out, window)
        return out

    def _op_averagepool(self, node, values):
        x = values[node.inputs[0]]
        xp, kh, kw, stride, oh, ow = self._pool_views(node, x, 0)
        out = np.zeros((x.shape[0], x.shape[1], oh, ow), dtype=np.int64)
        for i in range(kh):
            for j in range(kw):
                out += xp[:, :, i:i + stride * oh:stride,
                          j:j + stride * ow:stride]
        return v_div(out, kh * kw)

    def _op_depthwiseconv(self, node, values):
        x = values[node.inputs[0]]
        w = values[node.params[0]]  # (C, 1, kh, kw)
        xp, kh, kw, stride, oh, ow = self._pool_views(node, x, 0)
        out = np.zeros((x.shape[0], x.shape[1], oh, ow), dtype=np.int64)
        for i in range(kh):
            for j in range(kw):
                window = xp[:, :, i:i + stride * oh:stride,
                            j:j + stride * ow:stride]
                out += window * w[:, 0, i, j].reshape(1, -1, 1, 1)
        return out

    # -- layout ----------------------------------------------------------------------
    def _op_transpose(self, node, values):
        return values[node.inputs[0]].transpose(node.attrs["perm"])

    def _op_reshape(self, node, values):
        return values[node.inputs[0]].reshape(self.graph.out_spec(node).shape)

    def _op_flatten(self, node, values):
        return values[node.inputs[0]].reshape(self.graph.out_spec(node).shape)

    def _op_split(self, node, values):
        return values[node.inputs[0]].reshape(self.graph.out_spec(node).shape)

    def _op_concat(self, node, values):
        parts = [values[name] for name in node.inputs]
        return np.concatenate(parts, axis=node.attr("axis", 1))

    def _op_cacheappend(self, node, values):
        cache = values[node.inputs[0]]
        new = values[node.inputs[1]]
        axis = node.attr("axis", 0) % cache.ndim
        offset = node.attr("offset", 0)
        perm = node.attrs.get("perm")
        if perm:
            new = new.transpose(perm)
        out = np.array(cache, dtype=np.int64)
        index = tuple(
            slice(offset, offset + new.shape[d]) if d == axis else slice(None)
            for d in range(cache.ndim))
        out[index] = new
        return out

    def _op_resize(self, node, values):
        x = values[node.inputs[0]]
        scale = node.attr("scale", 2)
        return x.repeat(scale, axis=2).repeat(scale, axis=3)

    def _op_slice(self, node, values):
        x = values[node.inputs[0]]
        out_shape = self.graph.out_spec(node).shape
        axis = node.attr("axis", 0) % x.ndim
        start = node.attr("start", 0)
        index = tuple(
            slice(start, start + out_shape[d]) if d == axis else slice(None)
            for d in range(x.ndim))
        return x[index]

    def _op_gather(self, node, values):
        ids = values[node.inputs[0]].reshape(-1)
        table = values[node.params[0]]
        out_shape = self.graph.out_spec(node).shape
        return table[ids].reshape(out_shape)

    # -- type conversion ------------------------------------------------------------
    def _op_cast(self, node, values):
        x = values[node.inputs[0]]
        shift = node.attr("shift", 0)
        if shift:
            x = v_rshift(x, shift)
        bits = {"int8": 8, "fxp8": 8, "int16": 16, "fxp16": 16,
                "fxp4": 4}.get(self.graph.out_spec(node).dtype, 32)
        return _saturate(x, bits)
