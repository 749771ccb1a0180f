"""Systolic-array GEMM unit: functional semantics + cycle/energy model.

Models the Table 3 left column: a 32x32 output-stationary systolic array
with INT8 multipliers and INT32 accumulators, 384 KB input/weight
scratchpads and a 128 KB accumulator buffer (the Output BUF the Tandem
Processor takes fluid ownership of). The cycle model follows the
standard systolic accounting used by SCALE-Sim-style simulators the
paper cites for its own GEMM-unit simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..graph import Node, TensorSpec

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SystolicParams:
    """GEMM-unit configuration (Table 3, left column)."""

    rows: int = 32
    cols: int = 32
    frequency_hz: float = 1.0e9
    weight_spad_kb: int = 384
    accumulator_kb: int = 128
    mac_energy_pj: float = 0.9        # INT8 multiply + INT32 accumulate, 65 nm
    spad_pj_per_byte: float = 1.2     # operand staging buffers
    dram_pj_per_byte: float = 40.0
    dram_bandwidth_bytes_per_s: float = 32.0e9

    @property
    def macs_per_cycle(self) -> int:
        return self.rows * self.cols

    @property
    def peak_ops_per_s(self) -> float:
        return 2.0 * self.macs_per_cycle * self.frequency_hz

    def scaled(self, factor: float) -> "SystolicParams":
        """Iso-TOPs scaling (Section 7: 216x to match an A100)."""
        side = int(round(math.sqrt(factor)))
        return SystolicParams(
            rows=self.rows * side,
            cols=self.cols * side,
            frequency_hz=self.frequency_hz,
            weight_spad_kb=self.weight_spad_kb * side,
            accumulator_kb=self.accumulator_kb * side,
            mac_energy_pj=self.mac_energy_pj,
            spad_pj_per_byte=self.spad_pj_per_byte,
            dram_pj_per_byte=self.dram_pj_per_byte,
            dram_bandwidth_bytes_per_s=self.dram_bandwidth_bytes_per_s * side,
        )


@dataclass
class GemmCost:
    """Cycles and energy for one GEMM-class layer (or one tile of it)."""

    compute_cycles: int
    dram_cycles: int
    macs: int
    dram_bytes: int
    energy_pj: float

    @property
    def cycles(self) -> int:
        # Weight/input streaming is double-buffered against compute; the
        # unit is bound by whichever is slower.
        return max(self.compute_cycles, self.dram_cycles)

    def utilization(self, params: SystolicParams) -> float:
        if self.cycles == 0:
            return 0.0
        return self.macs / (self.cycles * params.macs_per_cycle)


def gemm_dims(node: Node, out_spec: TensorSpec,
              in_spec: TensorSpec) -> Tuple[int, int, int]:
    """(M, N, K) of the equivalent matrix multiplication."""
    if node.op_type == "Conv":
        n, oc, oh, ow = out_spec.shape
        kh, kw = node.attrs["kernel_shape"]
        groups = node.attrs.get("groups", 1)
        ic = node.attrs["in_channels"] // groups
        return n * oh * ow, oc, kh * kw * ic
    if node.op_type in ("MatMul", "Gemm"):
        k = node.attrs.get("k", in_spec.shape[-1])
        m = out_spec.numel // out_spec.shape[-1]
        return m, out_spec.shape[-1], k
    raise ValueError(f"{node.op_type} is not a GEMM-class operator")


class SystolicArray:
    """Cost + functional model of the GEMM unit."""

    def __init__(self, params: Optional[SystolicParams] = None):
        self.params = params or SystolicParams()

    # -- timing ----------------------------------------------------------------
    def matmul_cycles(self, m: int, n: int, k: int) -> int:
        p = self.params
        tiles = math.ceil(m / p.rows) * math.ceil(n / p.cols)
        # Per output tile: K accumulation cycles plus array fill/drain.
        return tiles * (k + p.rows + p.cols)

    def layer_cost(self, m: int, n: int, k: int,
                   input_bytes: int, weight_bytes: int,
                   output_bytes: int) -> GemmCost:
        p = self.params
        compute = self.matmul_cycles(m, n, k)
        dram_bytes = input_bytes + weight_bytes + output_bytes
        bytes_per_cycle = p.dram_bandwidth_bytes_per_s / p.frequency_hz
        dram_cycles = math.ceil(dram_bytes / bytes_per_cycle)
        macs = m * n * k
        energy = (macs * p.mac_energy_pj
                  + dram_bytes * p.dram_pj_per_byte
                  + (input_bytes + weight_bytes + 2 * output_bytes)
                  * p.spad_pj_per_byte)
        return GemmCost(compute_cycles=compute, dram_cycles=dram_cycles,
                        macs=macs, dram_bytes=dram_bytes, energy_pj=energy)

    # -- functional semantics -----------------------------------------------------
    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """INT8 x INT8 -> INT32 accumulate (wider accumulation is exact)."""
        import numpy as np
        return (a.astype(np.int64) @ b.astype(np.int64))

    @staticmethod
    def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1,
               pad: int = 0) -> np.ndarray:
        """Integer NCHW convolution (reference semantics for the OBUF)."""
        import numpy as np
        n, c, h, width = x.shape
        oc, ic, kh, kw = w.shape
        if ic != c:
            raise ValueError(f"channel mismatch: input {c}, weight {ic}")
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (width + 2 * pad - kw) // stride + 1
        out = np.zeros((n, oc, oh, ow), dtype=np.int64)
        for i in range(kh):
            for j in range(kw):
                patch = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
                # (n, c, oh, ow) x (oc, c) contraction over c.
                out += np.einsum("nchw,oc->nohw", patch.astype(np.int64),
                                 w[:, :, i, j].astype(np.int64))
        return out
