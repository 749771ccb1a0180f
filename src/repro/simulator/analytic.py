"""Closed-form cycle/energy estimation from compiled-program metadata.

Full-network sweeps over the seven benchmarks would take hours through
the detailed interpreter; the analytic model computes the same nest
timing (literally the same :func:`~repro.simulator.pipeline.nest_timing`
and :func:`~repro.simulator.machine.charge_nest` code paths) from static
metadata: a :class:`ProgramMeta` derived from each lowered tile's access
claims, the same walks the verifier checks against the binary (see
:attr:`repro.compiler.lowering.LoweredTile.meta`). Tests validate
analytic vs detailed agreement on real programs to within the paper's
own 5 % simulator-vs-RTL margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from .machine import MachineResult, charge_nest
from .params import SimParams
from .pipeline import BodyOpMeta, nest_timing


@dataclass(frozen=True)
class AnalyticNest:
    """Static view of one lowered loop nest."""

    counts: Sequence[int]
    body: Sequence[BodyOpMeta]


@dataclass
class ProgramMeta:
    """Everything the analytic model needs about one tile's program."""

    nests: List[AnalyticNest] = field(default_factory=list)
    config_instructions: int = 0     # iterator/loop/imm/sync/cast configs
    dram_loads: List[int] = field(default_factory=list)    # bytes per LD
    dram_stores: List[int] = field(default_factory=list)   # bytes per ST
    permute_words: int = 0
    permute_count: int = 0
    permute_cross_lane: bool = True

    @property
    def body_instructions(self) -> int:
        return sum(len(nest.body) for nest in self.nests)

    @property
    def start_instructions(self) -> int:
        """LD/ST/PERMUTE START words (timed as transfers, not config)."""
        return (len(self.dram_loads) + len(self.dram_stores)
                + self.permute_count)


def estimate(meta: ProgramMeta, params: SimParams) -> MachineResult:
    """Analytic counterpart of :meth:`TandemMachine.run` for one tile."""
    result = MachineResult()
    energy = params.energy
    tp = params.tandem

    # Configuration / sync instructions: one decode cycle each; START
    # words decode too but their time is the transfer/permute itself.
    total_insts = (meta.config_instructions + meta.body_instructions
                   + meta.start_instructions)
    result.instructions_decoded = total_insts
    result.cycles += meta.config_instructions
    result.config_cycles += meta.config_instructions
    result.energy.other_pj += total_insts * energy.decode_pj_per_inst

    for nest in meta.nests:
        timing = nest_timing(nest.counts, nest.body, tp, params.overlay)
        charge_nest(timing, params, result)

    # Data Access Engine transfers: the access latency is exposed once
    # per program; queued transfers pipeline behind it.
    bytes_per_cycle = params.dram.bandwidth_bytes_per_s / tp.frequency_hz
    transfers = list(meta.dram_loads) + list(meta.dram_stores)
    if transfers:
        result.cycles += params.dram.latency_cycles
        result.dae_cycles += params.dram.latency_cycles
        cycles = sum(math.ceil(nbytes / bytes_per_cycle)
                     for nbytes in transfers)
        result.cycles += cycles
        result.dae_cycles += cycles
        result.energy.dram_pj += sum(
            nbytes * params.dram.energy_pj_per_byte for nbytes in transfers)

    # Permute engine.
    if meta.permute_words:
        issues = math.ceil(meta.permute_words / tp.lanes)
        cycles = issues * (2 if meta.permute_cross_lane else 1)
        cycles += tp.pipeline_depth
        result.cycles += cycles
        result.permute_cycles += cycles
        result.energy.spad_pj += 2 * meta.permute_words * energy.spad_pj_per_word
        result.energy.loop_addr_pj += issues * energy.loop_addr_pj_per_issue
    return result

