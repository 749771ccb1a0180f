"""Word-level corruption of compiled Tandem programs, as a library.

The mutation machinery the verifier fuzz suite uses to prove its catch
rate (``tests/test_verifier_fuzz.py``) doubles as the fault model for
corrupted program downloads: a bit-flipped stride, trip count, Code
Repeater body size, or namespace id — the same classes of damage a
flaky PCIe link or a buggy lowering pass produces.

Corruption classes (one mutated 32-bit word each):

* ``stride`` — an iterator stride large enough that any second trip
  walks off every scratchpad.
* ``trip`` — a loop trip count of zero (protocol violation) or one
  that overruns the pads.
* ``body`` — a Code Repeater body size grown to swallow words after
  the nest.
* ``config-ns`` / ``compute-ns`` — an illegal scratchpad namespace id
  in a configuration or compute operand field.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..isa import IteratorConfigFunc, LoopFunc, Opcode
from ..isa.encoding import is_compute_opcode, unpack_fields

#: The corruption classes :func:`corrupt_word` understands.
CORRUPTION_KINDS = ("stride", "trip", "body", "config-ns", "compute-ns")

#: A mutable word: (kind, pc, original word).
Site = Tuple[str, int, int]


def word_sites(words: Sequence[int]) -> List[Site]:
    """Every (kind, pc, word) mutation site in one packed program."""
    sites: List[Site] = []
    for pc, word in enumerate(words):
        fields = unpack_fields(word)
        opcode, func = fields["opcode"], fields["func"]
        if opcode == Opcode.ITERATOR_CONFIG:
            if func == int(IteratorConfigFunc.STRIDE):
                sites.append(("stride", pc, word))
            if func in (int(IteratorConfigFunc.BASE_ADDR),
                        int(IteratorConfigFunc.STRIDE)):
                sites.append(("config-ns", pc, word))
        elif opcode == Opcode.LOOP:
            if func == int(LoopFunc.SET_ITER):
                sites.append(("trip", pc, word))
            elif func == int(LoopFunc.SET_NUM_INST):
                sites.append(("body", pc, word))
        elif is_compute_opcode(opcode):
            sites.append(("compute-ns", pc, word))
    return sites


def model_sites(model) -> List[Tuple[str, int, int, int]]:
    """(kind, block_idx, pc, word) across a CompiledModel's programs."""
    sites = []
    for block_idx, cb in enumerate(model.blocks):
        if cb.tile is None:
            continue
        sites.extend((kind, block_idx, pc, word) for kind, pc, word
                     in word_sites(cb.tile.program.pack()))
    return sites


def corrupt_word(kind: str, word: int, rng) -> int:
    """The mutated 32-bit word for one corruption class.

    Values are chosen to be *semantically* destructive (out-of-bounds
    walks, zero trips, body overruns, illegal namespaces) rather than
    random bit noise, mirroring what real download corruption does to
    execution.
    """
    if kind == "stride":
        # Stride large enough that any second trip walks off every pad.
        stride = int(rng.choice([31000, -31000])) & 0xFFFF
        return (word & ~0xFFFF) | stride
    if kind == "trip":
        # Zero trips (protocol violation) or a count that overruns pads.
        imm = int(rng.choice([0, 29000, 31000]))
        return (word & ~0xFFFF) | imm
    if kind == "body":
        # Grow the repeater body so it swallows words after the nest.
        grow = int(rng.integers(5, 40))
        return (word & ~0xFFFF) | ((word & 0xFFFF) + grow) & 0xFFFF
    if kind == "config-ns":
        return (word & ~(0x7 << 21)) | (6 << 21)  # namespace ids stop at 4
    if kind == "compute-ns":
        return (word & ~(0x7 << 21)) | (6 << 21)  # dst_ns field
    raise ValueError(f"unknown corruption kind {kind!r}; "
                     f"known: {', '.join(CORRUPTION_KINDS)}")
