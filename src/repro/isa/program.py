"""Program containers and the disassembler.

A :class:`TandemProgram` is the unit the execution controller dispatches:
the non-GEMM instruction stream of one block, replayed once per tile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, List

from .encoding import EncodingError, is_compute_opcode
from .instructions import Instruction, decode
from .opcodes import Opcode


# Instructions are immutable, so every program that repeats a word (Code
# Repeater bodies make most words repeats) shares one decoded object.
_decode_word = lru_cache(maxsize=1 << 16)(decode)


class ProgramDecodeError(ValueError):
    """A serialized program word cannot be decoded.

    Carries the offending word index (``pc``) and raw value (``word``)
    so tooling (``repro verify``, the cache loader) can point at the
    exact corrupt word instead of surfacing a bare ``ValueError``.
    """

    def __init__(self, message: str, pc: int = -1, word: int = 0):
        super().__init__(message)
        self.pc = pc
        self.word = word


@dataclass
class TandemProgram:
    """An ordered instruction stream plus bookkeeping for analyses."""

    name: str
    instructions: List[Instruction] = field(default_factory=list)

    def append(self, inst: Instruction) -> None:
        """Append one instruction and return it."""
        self.instructions.append(inst)

    def extend(self, insts: Iterable[Instruction]) -> None:
        """Append a sequence of instructions."""
        self.instructions.extend(insts)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # -- binary form ---------------------------------------------------------
    def pack(self) -> List[int]:
        """The program as a list of 32-bit words."""
        return [inst.pack() for inst in self.instructions]

    @classmethod
    def unpack(cls, name: str, words: Iterable[int]) -> "TandemProgram":
        """Rebuild a program by decoding packed words."""
        instructions = []
        for pc, word in enumerate(words):
            if not isinstance(word, int) or not 0 <= word < (1 << 32):
                raise ProgramDecodeError(
                    f"word {pc} of {name!r}: {word!r} is not a 32-bit "
                    f"instruction word", pc=pc, word=word if isinstance(
                        word, int) else 0)
            try:
                instructions.append(_decode_word(word))
            except (ValueError, EncodingError) as err:
                # Opcode/Namespace enum misses and field overflows all
                # surface here as one typed, indexed error.
                raise ProgramDecodeError(
                    f"word {pc} of {name!r} ({word:#010x}) does not "
                    f"decode: {err}", pc=pc, word=word) from err
        return cls(name, instructions)

    def to_bytes(self) -> bytes:
        """Little-endian binary serialization of the packed words."""
        return b"".join(w.to_bytes(4, "little") for w in self.pack())

    @classmethod
    def from_bytes(cls, name: str, blob: bytes) -> "TandemProgram":
        """Decode a program from its binary serialization."""
        if len(blob) % 4:
            raise ProgramDecodeError(
                f"program blob for {name!r} is {len(blob)} bytes, not a "
                f"whole number of 32-bit words")
        words = [int.from_bytes(blob[i:i + 4], "little")
                 for i in range(0, len(blob), 4)]
        return cls.unpack(name, words)

    # -- analyses -------------------------------------------------------------
    def opcode_histogram(self) -> Counter:
        """Instruction count per opcode name."""
        return Counter(inst.opcode for inst in self.instructions)

    def compute_instruction_count(self) -> int:
        """Number of ALU/CALCULUS/COMPARISON words."""
        return sum(1 for inst in self.instructions
                   if is_compute_opcode(inst.opcode))

    def config_instruction_count(self) -> int:
        """Number of configuration-class words."""
        return len(self.instructions) - self.compute_instruction_count()

    def disassemble(self) -> str:
        """Human-readable listing, one line per word."""
        lines = []
        for pc, inst in enumerate(self.instructions):
            lines.append(f"{pc:5d}: {inst.pack():08x}  {inst}")
        return "\n".join(lines)
