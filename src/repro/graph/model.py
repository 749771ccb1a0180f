"""Model graph container: tensors + nodes + dataflow queries."""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from math import prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .node import Node, conv_macs
from .ops import OpClass
from .tensor import TensorSpec


class GraphError(ValueError):
    """Raised when a graph is malformed (dangling edges, cycles, ...)."""


@dataclass(frozen=True)
class NodeCost:
    """Arithmetic and memory-traffic cost of one node.

    ``flops`` counts scalar arithmetic operations (2 per MAC).
    ``bytes_in``/``bytes_out`` count activation + parameter traffic,
    assuming no on-chip reuse (the roofline's streaming assumption for
    non-GEMM operators; GEMM reuse is handled by the GEMM-unit model).
    """

    flops: int
    bytes_in: int
    bytes_out: int

    @property
    def bytes_total(self) -> int:
        """All bytes moved: inputs + outputs + weights."""
        return self.bytes_in + self.bytes_out

    @property
    def arithmetic_intensity(self) -> float:
        """MACs per byte moved (the roofline x-axis)."""
        return self.flops / max(self.bytes_total, 1)


class Graph:
    """A DNN inference graph in ONNX-like form.

    Nodes reference tensors by name; every referenced tensor must have a
    registered :class:`TensorSpec`. Node order as inserted must be a valid
    topological order (builders construct graphs forward), which
    :meth:`validate` checks along with edge integrity.
    """

    def __init__(self, name: str):
        self.name = name
        self.tensors: Dict[str, TensorSpec] = {}
        self.nodes: List[Node] = []
        self.graph_inputs: List[str] = []
        self.graph_outputs: List[str] = []
        self._producer: Dict[str, str] = {}
        self._consumers: Dict[str, List[Node]] = defaultdict(list)

    # -- construction ------------------------------------------------------
    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        """Register a tensor spec under its name."""
        if spec.name in self.tensors:
            raise GraphError(f"tensor {spec.name!r} already defined in {self.name}")
        self.tensors[spec.name] = spec
        return spec

    def add_node(self, node: Node) -> Node:
        """Append an operation node to the graph."""
        for out in node.outputs:
            if out in self._producer:
                raise GraphError(f"tensor {out!r} produced twice")
            self._producer[out] = node.name
        for name in dict.fromkeys(node.inputs):
            self._consumers[name].append(node)
        self.nodes.append(node)
        return node

    def mark_input(self, name: str) -> None:
        """Declare a tensor as a graph input."""
        self.graph_inputs.append(name)

    def mark_output(self, name: str) -> None:
        """Declare a tensor as a graph output."""
        self.graph_outputs.append(name)

    # -- queries -----------------------------------------------------------
    def tensor(self, name: str) -> TensorSpec:
        """The spec registered under ``name``."""
        try:
            return self.tensors[name]
        except KeyError:
            raise GraphError(f"tensor {name!r} not defined in graph {self.name}") from None

    def producer(self, tensor_name: str) -> Optional[Node]:
        """The node producing ``tensor`` (None for inputs)."""
        node_name = self._producer.get(tensor_name)
        if node_name is None:
            return None
        return self.node(node_name)

    def node(self, name: str) -> Node:
        """The node with the given name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise GraphError(f"node {name!r} not in graph {self.name}")

    def consumers(self, tensor_name: str) -> List[Node]:
        """Every node reading ``tensor``, in node order."""
        return list(self._consumers.get(tensor_name, ()))

    def out_spec(self, node: Node) -> TensorSpec:
        """The spec of a node's first output."""
        return self.tensor(node.outputs[0])

    # -- integrity ---------------------------------------------------------
    def validate(self) -> None:
        """Check edge integrity and that insertion order is topological."""
        available = set(self.graph_inputs)
        for node in self.nodes:
            for name in list(node.inputs) + list(node.outputs) + list(node.params):
                if name not in self.tensors:
                    raise GraphError(
                        f"node {node.name!r} references undefined tensor {name!r}"
                    )
            for name in node.inputs:
                if name not in available and self._producer.get(name) is None:
                    raise GraphError(
                        f"node {node.name!r} input {name!r} has no producer and is "
                        "not a graph input"
                    )
            for name in node.inputs:
                if name not in available:
                    raise GraphError(
                        f"node {node.name!r} consumes {name!r} before it is produced "
                        "(insertion order is not topological)"
                    )
            available.update(node.outputs)
        for name in self.graph_outputs:
            if name not in available:
                raise GraphError(f"graph output {name!r} is never produced")

    def topological_order(self) -> List[Node]:
        """Kahn's algorithm over activation edges; detects cycles."""
        indegree: Dict[str, int] = {n.name: 0 for n in self.nodes}
        dependents: Dict[str, List[str]] = defaultdict(list)
        by_name = {n.name: n for n in self.nodes}
        for node in self.nodes:
            for inp in node.inputs:
                producer = self._producer.get(inp)
                if producer is not None:
                    indegree[node.name] += 1
                    dependents[producer].append(node.name)
        ready = deque(n.name for n in self.nodes if indegree[n.name] == 0)
        order: List[Node] = []
        while ready:
            name = ready.popleft()
            order.append(by_name[name])
            for dep in dependents[name]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self.nodes):
            raise GraphError(f"cycle detected in graph {self.name}")
        return order

    # -- census (Figures 1 and 2) -------------------------------------------
    def class_counts(self) -> Counter:
        """Node count per operator class (gemm / non-gemm groups)."""
        return Counter(node.op_class for node in self.nodes)

    def gemm_fraction(self) -> float:
        """Fraction of MACs spent in GEMM-class nodes."""
        counts = self.class_counts()
        gemm = counts.get(OpClass.GEMM, 0)
        total = sum(counts.values())
        return gemm / total if total else 0.0

    # -- cost model ----------------------------------------------------------
    def node_cost(self, node: Node) -> NodeCost:
        """MACs and bytes moved for one node."""
        out = self.out_spec(node)
        bytes_out = sum(self.tensor(t).nbytes for t in node.outputs)
        bytes_in = sum(self.tensor(t).nbytes for t in node.inputs)
        if node.op_type == "Gather":
            # An embedding lookup streams one table row per output row, not
            # the whole table; count the gathered bytes, not the parameter.
            bytes_in += bytes_out
        else:
            bytes_in += sum(self.tensor(t).nbytes for t in node.params)

        if node.op_type in ("Conv", "DepthwiseConv"):
            flops = 2 * conv_macs(node, out.shape)
        elif node.op_type in ("MatMul", "Gemm"):
            k = node.attrs.get("k")
            if k is None:
                k = self.tensor(node.inputs[0]).shape[-1]
            flops = 2 * out.numel * k
        elif node.op_type in ("MaxPool", "AveragePool"):
            kh, kw = node.attrs["kernel_shape"]
            flops = out.numel * kh * kw
        elif node.op_type in ("GlobalAveragePool", "ReduceMean"):
            flops = sum(self.tensor(t).numel for t in node.inputs)
        elif node.op_type == "Softmax":
            flops = int(node.info.ops_per_element * out.numel)
        elif node.info.is_layout_only:
            flops = 0
        else:
            flops = int(node.info.ops_per_element * out.numel)
        return NodeCost(flops=flops, bytes_in=bytes_in, bytes_out=bytes_out)

    def total_cost(self) -> NodeCost:
        """Summed cost over every node."""
        flops = bytes_in = bytes_out = 0
        for node in self.nodes:
            cost = self.node_cost(node)
            flops += cost.flops
            bytes_in += cost.bytes_in
            bytes_out += cost.bytes_out
        return NodeCost(flops=flops, bytes_in=bytes_in, bytes_out=bytes_out)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return f"Graph({self.name!r}, nodes={len(self.nodes)})"
