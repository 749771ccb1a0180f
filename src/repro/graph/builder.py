"""Forward graph builder with shape inference.

The seven benchmark model definitions (``repro.models``) are written
against this builder. It mirrors how the quantized ONNX graphs the paper
compiles look: GEMM-class operators consume INT8 activations and produce
INT32 accumulator outputs (Table 3), non-GEMM operators compute in INT32,
and ``Cast`` nodes appear wherever an INT32 activation feeds a GEMM-class
consumer ("Cast ... Any Inference" in Table 1).
"""

from __future__ import annotations

from math import prod
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import Graph
from .node import Node
from .tensor import TensorSpec


def _broadcast(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """The broadcast of two shapes, by numpy's rules.

    Shapes align at their last dimension; a dimension of 1 stretches to
    the other's size.  Raises :class:`ValueError` on any other mismatch,
    as ``np.broadcast_shapes`` does.
    """
    rank = max(len(a), len(b))
    a = (1,) * (rank - len(a)) + tuple(a)
    b = (1,) * (rank - len(b)) + tuple(b)
    out = []
    for x, y in zip(a, b):
        if x == y or y == 1:
            out.append(x)
        elif x == 1:
            out.append(y)
        else:
            raise ValueError(f"shapes {a} and {b} do not broadcast")
    return tuple(out)


def conv_out_hw(h: int, w: int, kernel: Tuple[int, int], stride: int,
                pad: int) -> Tuple[int, int]:
    """Output height/width of a convolution (floor arithmetic)."""
    kh, kw = kernel
    return ((h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1)


class GraphBuilder:
    """Builds a :class:`Graph` forward, inferring shapes as it goes.

    All tensor-producing methods return the output tensor name so calls
    chain naturally: ``x = b.relu(b.conv(x, 64, 3))``.
    """

    def __init__(self, name: str):
        self.graph = Graph(name)
        self._counter = 0

    # -- plumbing ------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def _spec(self, name: str) -> TensorSpec:
        return self.graph.tensor(name)

    def _emit(self, op_type: str, inputs: List[str], out_shape: Sequence[int],
              dtype: str, attrs: Optional[dict] = None,
              params: Optional[List[str]] = None, prefix: Optional[str] = None) -> str:
        prefix = prefix or op_type.lower()
        out = self._fresh(prefix)
        self.graph.add_tensor(TensorSpec(out, tuple(out_shape), dtype))
        self.graph.add_node(
            Node(
                name=self._fresh(f"n_{prefix}"),
                op_type=op_type,
                inputs=list(inputs),
                outputs=[out],
                attrs=dict(attrs or {}),
                params=list(params or []),
            )
        )
        return out

    def _param(self, prefix: str, shape: Sequence[int], dtype: str) -> str:
        name = self._fresh(prefix)
        self.graph.add_tensor(TensorSpec(name, tuple(shape), dtype))
        return name

    def _as_int8(self, x: str) -> str:
        """Insert a Cast to INT8 if ``x`` is not already GEMM-ingestible."""
        if self._spec(x).dtype == "int8":
            return x
        return self.cast(x, "int8")

    # Public aliases for model code that needs parameter tensors or custom
    # node shapes (e.g. LayerNorm gamma/beta, attention masks).
    def param(self, prefix: str, shape: Sequence[int], dtype: str = "int32") -> str:
        """Register a weight/constant tensor and return its name."""
        return self._param(prefix, shape, dtype)

    def emit(self, op_type: str, inputs: List[str], out_shape: Sequence[int],
             dtype: str = "int32", attrs: Optional[dict] = None,
             params: Optional[List[str]] = None) -> str:
        """Append one op node; returns the output tensor name."""
        return self._emit(op_type, inputs, out_shape, dtype, attrs, params)

    def spec(self, name: str) -> TensorSpec:
        """The spec of a previously-emitted tensor."""
        return self._spec(name)

    # -- graph boundary --------------------------------------------------------
    def input(self, name: str, shape: Sequence[int], dtype: str = "int8") -> str:
        """Declare the graph input tensor."""
        self.graph.add_tensor(TensorSpec(name, tuple(shape), dtype))
        self.graph.mark_input(name)
        return name

    def finish(self, outputs: Iterable[str]) -> Graph:
        """Mark outputs and return the finished Graph."""
        for out in outputs:
            self.graph.mark_output(out)
        self.graph.validate()
        return self.graph

    # -- GEMM-class operators ----------------------------------------------------
    def conv(self, x: str, out_channels: int, kernel: int, stride: int = 1,
             pad: Optional[int] = None, groups: int = 1, bias: bool = True) -> str:
        """2-D convolution (+ optional bias), NCHW."""
        x = self._as_int8(x)
        n, c, h, w = self._spec(x).shape
        pad = kernel // 2 if pad is None else pad
        oh, ow = conv_out_hw(h, w, (kernel, kernel), stride, pad)
        weight = self._param("w_conv", (out_channels, c // groups, kernel, kernel), "int8")
        params = [weight]
        if bias:
            params.append(self._param("b_conv", (out_channels,), "int32"))
        attrs = {
            "kernel_shape": (kernel, kernel),
            "strides": (stride, stride),
            "pads": (pad, pad),
            "groups": groups,
            "in_channels": c,
            "out_channels": out_channels,
        }
        return self._emit("Conv", [x], (n, out_channels, oh, ow), "int32",
                          attrs, params)

    def depthwise_conv(self, x: str, kernel: int, stride: int = 1,
                       pad: Optional[int] = None) -> str:
        """Depth-wise convolution — reduction-class per Table 1, and executed
        natively by the Tandem Processor rather than the GEMM unit."""
        n, c, h, w = self._spec(x).shape
        pad = kernel // 2 if pad is None else pad
        oh, ow = conv_out_hw(h, w, (kernel, kernel), stride, pad)
        weight = self._param("w_dw", (c, 1, kernel, kernel), "int32")
        attrs = {
            "kernel_shape": (kernel, kernel),
            "strides": (stride, stride),
            "pads": (pad, pad),
            "groups": c,
            "in_channels": c,
            "out_channels": c,
        }
        return self._emit("DepthwiseConv", [x], (n, c, oh, ow), "int32",
                          attrs, [weight], prefix="dwconv")

    def gemm(self, x: str, out_features: int, bias: bool = True) -> str:
        """Fully-connected layer: (N, K) x (K, M) -> (N, M)."""
        x = self._as_int8(x)
        shape = self._spec(x).shape
        n, k = shape[0], shape[-1]
        lead = shape[:-1]
        weight = self._param("w_fc", (k, out_features), "int8")
        params = [weight]
        if bias:
            params.append(self._param("b_fc", (out_features,), "int32"))
        attrs = {"k": k, "out_features": out_features}
        return self._emit("Gemm", [x], (*lead, out_features), "int32", attrs, params)

    def matmul(self, a: str, b: str) -> str:
        """Activation x activation matmul (attention scores / context)."""
        a = self._as_int8(a)
        b = self._as_int8(b)
        sa, sb = self._spec(a).shape, self._spec(b).shape
        if sa[-1] != sb[-2]:
            raise ValueError(f"matmul shape mismatch {sa} x {sb}")
        lead = _broadcast(sa[:-2], sb[:-2])
        out_shape = (*lead, sa[-2], sb[-1])
        return self._emit("MatMul", [a, b], out_shape, "int32", {"k": sa[-1]})

    def linear_weights_matmul(self, x: str, out_features: int) -> str:
        """MatMul against a weight parameter (transformer projections)."""
        x = self._as_int8(x)
        shape = self._spec(x).shape
        k = shape[-1]
        weight = self._param("w_mm", (k, out_features), "int8")
        return self._emit("MatMul", [x], (*shape[:-1], out_features), "int32",
                          {"k": k}, [weight])

    # -- element-wise math -----------------------------------------------------
    def _binary(self, op: str, a: str, b: str) -> str:
        shape = _broadcast(self._spec(a).shape, self._spec(b).shape)
        return self._emit(op, [a, b], shape, "int32")

    def add(self, a: str, b: str) -> str:
        """Elementwise addition."""
        return self._binary("Add", a, b)

    def sub(self, a: str, b: str) -> str:
        """Elementwise subtraction."""
        return self._binary("Sub", a, b)

    def mul(self, a: str, b: str) -> str:
        """Elementwise multiplication."""
        return self._binary("Mul", a, b)

    def div(self, a: str, b: str) -> str:
        """Elementwise division."""
        return self._binary("Div", a, b)

    def pow(self, a: str, b: str) -> str:
        """Elementwise power."""
        return self._binary("Pow", a, b)

    def _unary(self, op: str, x: str, attrs: Optional[dict] = None) -> str:
        return self._emit(op, [x], self._spec(x).shape, "int32", attrs)

    def exp(self, x: str) -> str:
        """Elementwise exponential."""
        return self._unary("Exp", x)

    def sqrt(self, x: str) -> str:
        """Elementwise square root."""
        return self._unary("Sqrt", x)

    def erf(self, x: str) -> str:
        """Elementwise error function (GeLU's kernel)."""
        return self._unary("Erf", x)

    def reciprocal(self, x: str) -> str:
        """Elementwise reciprocal."""
        return self._unary("Reciprocal", x)

    def add_scalar(self, x: str, value: float) -> str:
        """Add a scalar constant to every element."""
        scalar = self._param("c_scalar", (1,), "int32")
        return self._emit("Add", [x], self._spec(x).shape, "int32",
                          {"scalar": value}, [scalar])

    def mul_scalar(self, x: str, value: float) -> str:
        """Multiply every element by a scalar constant."""
        scalar = self._param("c_scalar", (1,), "int32")
        return self._emit("Mul", [x], self._spec(x).shape, "int32",
                          {"scalar": value}, [scalar])

    def div_scalar(self, x: str, value: float) -> str:
        """Divide every element by a scalar constant."""
        scalar = self._param("c_scalar", (1,), "int32")
        return self._emit("Div", [x], self._spec(x).shape, "int32",
                          {"scalar": value}, [scalar])

    # -- activations -------------------------------------------------------------
    def relu(self, x: str) -> str:
        """ReLU activation."""
        return self._unary("Relu", x)

    def leaky_relu(self, x: str, alpha: float = 0.1) -> str:
        """LeakyReLU activation with the given slope."""
        return self._unary("LeakyRelu", x, {"alpha": alpha})

    def clip(self, x: str, lo: float = 0.0, hi: float = 6.0) -> str:
        """Clamp every element into [lo, hi]."""
        return self._unary("Clip", x, {"min": lo, "max": hi})

    def sigmoid(self, x: str) -> str:
        """Sigmoid activation."""
        return self._unary("Sigmoid", x)

    def tanh(self, x: str) -> str:
        """Tanh activation."""
        return self._unary("Tanh", x)

    def gelu(self, x: str) -> str:
        """GeLU activation (the paper's flagship emerging operator)."""
        return self._unary("Gelu", x)

    def silu(self, x: str) -> str:
        """SiLU activation (x * sigmoid(x)), the SwiGLU gate kernel."""
        return self._unary("Silu", x)

    def swiglu(self, gate: str, up: str) -> str:
        """SwiGLU gated activation: silu(gate) * up (LLaMA-family FFN)."""
        if self._spec(gate).shape != self._spec(up).shape:
            raise ValueError(
                f"swiglu shape mismatch {self._spec(gate).shape} vs "
                f"{self._spec(up).shape}")
        return self._emit("SwiGLU", [gate, up], self._spec(gate).shape, "int32")

    # -- reductions ----------------------------------------------------------------
    def maxpool(self, x: str, kernel: int, stride: Optional[int] = None,
                pad: int = 0) -> str:
        """2-D max pooling."""
        stride = stride or kernel
        n, c, h, w = self._spec(x).shape
        oh, ow = conv_out_hw(h, w, (kernel, kernel), stride, pad)
        attrs = {"kernel_shape": (kernel, kernel), "strides": (stride, stride),
                 "pads": (pad, pad)}
        return self._emit("MaxPool", [x], (n, c, oh, ow), "int32", attrs)

    def avgpool(self, x: str, kernel: int, stride: Optional[int] = None,
                pad: int = 0) -> str:
        """2-D average pooling."""
        stride = stride or kernel
        n, c, h, w = self._spec(x).shape
        oh, ow = conv_out_hw(h, w, (kernel, kernel), stride, pad)
        attrs = {"kernel_shape": (kernel, kernel), "strides": (stride, stride),
                 "pads": (pad, pad)}
        return self._emit("AveragePool", [x], (n, c, oh, ow), "int32", attrs)

    def global_avgpool(self, x: str) -> str:
        """Global average pooling to 1x1."""
        n, c, h, w = self._spec(x).shape
        return self._emit("GlobalAveragePool", [x], (n, c, 1, 1), "int32",
                          {"reduced": h * w})

    def reduce_mean(self, x: str, axis: int, keepdims: bool = True) -> str:
        """Mean reduction over one axis."""
        shape = list(self._spec(x).shape)
        axis = axis % len(shape)
        reduced = shape[axis]
        if keepdims:
            shape[axis] = 1
        else:
            del shape[axis]
        return self._emit("ReduceMean", [x], shape, "int32",
                          {"axis": axis, "keepdims": keepdims, "reduced": reduced})

    def softmax(self, x: str, axis: int = -1) -> str:
        """Softmax over the last axis."""
        return self._unary("Softmax", x, {"axis": axis})

    def causal_softmax(self, x: str, offset: int = 0) -> str:
        """Fused masked softmax over the last axis of attention scores.

        ``x`` is (..., q_len, k_len); key column ``j`` is visible to query
        row ``p`` iff ``j <= p + offset`` (``offset`` = tokens already in
        the KV-cache). Masked columns contribute exactly zero probability,
        so a decode step over the full max-context cache ignores the
        not-yet-written tail without a separate mask tensor.
        """
        shape = self._spec(x).shape
        if len(shape) < 2:
            raise ValueError(f"causal_softmax needs (..., q, k), got {shape}")
        return self._unary("CausalSoftmax", x, {"axis": -1, "offset": offset})

    def rms_norm(self, x: str) -> str:
        """RMSNorm over the last axis with a learned gamma scale."""
        shape = self._spec(x).shape
        gamma = self._param("w_rms", (shape[-1],), "int32")
        return self._emit("RMSNorm", [x], shape, "int32",
                          {"axis": -1, "reduced": shape[-1]}, [gamma])

    def rope(self, x: str) -> str:
        """Rotary position embedding over interleaved (even, odd) pairs.

        ``x`` is (..., seq, head_dim); the cos/sin tables are parameters of
        shape (seq, head_dim // 2) whose *values* carry the absolute
        position (so a decode step binds tables sliced at the current
        offset — the graph itself is position-agnostic).
        """
        shape = self._spec(x).shape
        if len(shape) < 2 or shape[-1] % 2:
            raise ValueError(f"rope needs (..., seq, even head_dim), got {shape}")
        seq, half = shape[-2], shape[-1] // 2
        cos = self._param("c_ropecos", (seq, half), "int32")
        sin = self._param("c_ropesin", (seq, half), "int32")
        return self._emit("Rope", [x], shape, "int32", {"half": half},
                          [cos, sin])

    # -- layout ----------------------------------------------------------------------
    def transpose(self, x: str, perm: Sequence[int]) -> str:
        """Permute tensor dimensions."""
        shape = self._spec(x).shape
        out_shape = tuple(shape[p] for p in perm)
        return self._emit("Transpose", [x], out_shape, self._spec(x).dtype,
                          {"perm": tuple(perm)})

    def reshape(self, x: str, shape: Sequence[int]) -> str:
        """Reshape without moving data."""
        spec = self._spec(x)
        shape = tuple(shape)
        if prod(shape) != spec.numel:
            raise ValueError(f"reshape {spec.shape} -> {shape} changes element count")
        return self._emit("Reshape", [x], shape, spec.dtype, {"shape": shape})

    def flatten(self, x: str) -> str:
        """Flatten to (N, -1)."""
        spec = self._spec(x)
        return self._emit("Flatten", [x], (spec.shape[0], prod(spec.shape[1:])),
                          spec.dtype)

    def concat(self, xs: Sequence[str], axis: int = 1) -> str:
        """Concatenate tensors along one axis."""
        specs = [self._spec(x) for x in xs]
        shape = list(specs[0].shape)
        shape[axis] = sum(s.shape[axis] for s in specs)
        return self._emit("Concat", list(xs), shape, specs[0].dtype, {"axis": axis})

    def cache_append(self, cache: str, new: str, axis: int, offset: int,
                     perm: Optional[Sequence[int]] = None) -> str:
        """Scatter ``new`` into ``cache`` at ``offset`` along ``axis``.

        The output has the cache's (max-context) shape; only the appended
        slice moves through the DAE — O(new tokens) DRAM traffic per decode
        step. ``perm`` optionally permutes ``new`` on the way out (e.g. the
        K-cache stores keys pre-transposed for the score matmul).
        """
        cache_shape = self._spec(cache).shape
        new_shape = self._spec(new).shape
        laid = tuple(new_shape[p] for p in perm) if perm else tuple(new_shape)
        if len(laid) != len(cache_shape):
            raise ValueError(
                f"cache_append rank mismatch {laid} vs {cache_shape}")
        for d, (n, c) in enumerate(zip(laid, cache_shape)):
            if d != axis and n != c:
                raise ValueError(
                    f"cache_append dim {d} mismatch {laid} vs {cache_shape}")
        if offset < 0 or offset + laid[axis] > cache_shape[axis]:
            raise ValueError(
                f"cache_append slice [{offset}:{offset + laid[axis]}] exceeds "
                f"cache extent {cache_shape[axis]}")
        attrs = {"axis": axis, "offset": offset}
        if perm:
            attrs["perm"] = tuple(perm)
        return self._emit("CacheAppend", [cache, new], cache_shape, "int32",
                          attrs, prefix="kvcache")

    def resize(self, x: str, scale: int = 2) -> str:
        """Nearest-neighbour spatial upsampling."""
        n, c, h, w = self._spec(x).shape
        return self._emit("Resize", [x], (n, c, h * scale, w * scale),
                          self._spec(x).dtype, {"scale": scale})

    # -- type conversion ------------------------------------------------------------
    def cast(self, x: str, dtype: str) -> str:
        """Cast to another dtype."""
        return self._emit("Cast", [x], self._spec(x).shape, dtype, {"to": dtype})
