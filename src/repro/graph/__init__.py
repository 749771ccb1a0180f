"""ONNX-like graph IR substrate.

Everything above this layer (models, compiler, baselines, analysis) works
in terms of :class:`Graph`, :class:`Node`, and :class:`TensorSpec`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "builder": ("GraphBuilder", "conv_out_hw"),
    "model": ("Graph", "GraphError", "NodeCost"),
    "node": ("Node", "conv_macs"),
    "ops": (
        "NON_GEMM_CLASSES", "TABLE1_EXAMPLES", "OpClass", "OpInfo", "all_ops",
        "class_of", "is_gemm_op", "is_registered", "op_info",
    ),
    "tensor": ("DTYPE_BYTES", "TensorSpec"),
})

__all__ = [
    "DTYPE_BYTES",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "Node",
    "NodeCost",
    "NON_GEMM_CLASSES",
    "OpClass",
    "OpInfo",
    "TABLE1_EXAMPLES",
    "TensorSpec",
    "all_ops",
    "class_of",
    "conv_macs",
    "conv_out_hw",
    "is_gemm_op",
    "is_registered",
    "op_info",
]
