"""Functional runner: executes a compiled model on real integer tensors.

Mirrors the paper's validation flow (Section 7): the compiled programs
run on the detailed :class:`~repro.simulator.TandemMachine`, the GEMM
unit's functional semantics produce the Output BUF contents, and the
result is compared against :class:`~repro.compiler.ReferenceExecutor`.

Intended for small models/tiles (tests and the quickstart example): the
detailed interpreter is exact but slow.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..compiler import CompiledModel, TransferSlot
from ..gemm import SystolicArray
from ..graph import Graph, Node
from ..isa import Namespace
from ..simulator import (
    DramStore,
    MachineResult,
    TandemMachine,
    TileTransfer,
)


def _w32(values: np.ndarray) -> np.ndarray:
    """GEMM accumulators are 32 bits wide (Table 3)."""
    wrapped = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF
    return np.where(wrapped >= 1 << 31, wrapped - (1 << 32), wrapped)


def to_tile_transfer(slot: TransferSlot) -> TileTransfer:
    region = None
    if slot.region is not None:
        region = tuple(slice(a, b) for a, b in slot.region)
    return TileTransfer(
        direction=slot.direction,
        dram_tensor=slot.tensor,
        ns=slot.ns,
        spad_base=slot.base,
        region=region,
        pre_reshape=slot.pre_reshape,
        perm=slot.perm,
        pad=slot.pad,
        pad_value=slot.pad_value,
        element_bytes=slot.element_bytes,
    )



class FunctionalRunner:
    """Runs every block of a compiled model through the detailed machine."""

    def __init__(self, model: CompiledModel, fast: bool = False):
        if any(cb.tiles != 1 for cb in model.blocks):
            raise ValueError(
                "functional execution supports single-tile compilations; "
                "recompile the model with small enough tensors")
        self.model = model
        self.dram = DramStore()
        self.machine = TandemMachine(model.sim_params, self.dram, fast=fast)
        self.block_results: List[Tuple[str, MachineResult]] = []

    def bind(self, values: Dict[str, np.ndarray]) -> None:
        for name, value in values.items():
            self.dram.bind(name, value)

    def _ensure_allocated(self) -> None:
        for name, spec in self.model.graph.tensors.items():
            if name not in self.dram:
                self.dram.allocate(name, spec.shape)

    def _alias_caches(self) -> None:
        """Alias each CacheAppend output to its cache input's storage.

        The compiled program stores only the appended K/V slice; sharing
        the DRAM array makes that in-place slice update visible under the
        output's name (and keeps per-step traffic O(new tokens))."""
        for node in self.model.graph.topological_order():
            if node.op_type != "CacheAppend":
                continue
            cache_in = node.inputs[0]
            if cache_in not in self.dram:
                self.dram.allocate(
                    cache_in, self.model.graph.tensor(cache_in).shape)
            self.dram.alias(node.outputs[0], cache_in)

    def run(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute end-to-end; returns every DRAM tensor after the run.

        ``inputs`` must bind graph inputs; parameters must have been
        bound beforehand (:meth:`bind`), or they default to zeros.
        """
        self.bind(inputs)
        self._alias_caches()
        self._ensure_allocated()
        graph = self.model.graph
        array = SystolicArray(self.model.gemm_params)

        for cb in self.model.blocks:
            if cb.block.gemm is not None:
                out = _w32(self._run_gemm(cb.block.gemm, graph, array))
                # The GEMM unit fills the Output BUF; its own store path
                # also drains it to DRAM for consumers in later blocks.
                self.machine.pads[Namespace.OBUF].load_block(
                    0, out.reshape(-1))
                self.dram.bind(cb.block.gemm.outputs[0], out)
            if cb.tile is not None:
                transfers = [to_tile_transfer(s) for s in cb.tile.transfers]
                result = self.machine.run(cb.tile.program, transfers,
                                          cb.tile.permutes)
                self.block_results.append((cb.name, result))
        return dict(self.dram.tensors)

    def _run_gemm(self, node: Node, graph: Graph,
                  array: SystolicArray) -> np.ndarray:
        x = self.dram.get(node.inputs[0])
        if node.op_type == "Conv":
            w = self.dram.get(node.params[0])
            out = array.conv2d(x, w, stride=node.attrs["strides"][0],
                               pad=node.attrs["pads"][0])
            if len(node.params) > 1:
                out = out + self.dram.get(node.params[1]).reshape(1, -1, 1, 1)
            return out
        if node.op_type == "Gemm":
            w = self.dram.get(node.params[0])
            out = array.matmul(x, w)
            if len(node.params) > 1:
                out = out + self.dram.get(node.params[1])
            return out
        if node.op_type == "MatMul":
            if len(node.inputs) > 1:
                b = self.dram.get(node.inputs[1])
            else:
                b = self.dram.get(node.params[0])
            return array.matmul(x, b)
        raise ValueError(f"{node.op_type} is not a GEMM-class operator")

    def total_machine_result(self) -> MachineResult:
        merged = MachineResult()
        for _name, result in self.block_results:
            merged.merge(result)
        return merged
