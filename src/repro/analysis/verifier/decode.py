"""Decode/shape checks: every word is a legal, stable encoding.

Three properties per 32-bit word (ISSUE tentpole, check 1):

* it *packs* — every field fits its Figure 12 slot;
* its ``(opcode, func)`` pair names a defined operation;
* it survives a decode→re-encode round trip byte-identically, so the
  serialized artifact and the in-memory program cannot drift apart.

Namespace id fields (3 bits, values 5–7 unassigned) are validated for
the words that carry one: iterator-table configuration and Data Access
Engine base-address configuration. Compute operands arrive as typed
:class:`Namespace` values straight from the decoder, so an illegal
namespace there already failed ``TandemProgram.unpack``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from ...isa import (
    FUNC_ENUMS,
    IteratorConfigFunc,
    LdStFunc,
    Namespace,
    Opcode,
    decode,
)
from .findings import Finding, Severity, snippet_at
from .state import ProgramTrace

_NS_CARRYING_ITER_FUNCS = (int(IteratorConfigFunc.BASE_ADDR),
                           int(IteratorConfigFunc.STRIDE))
_NS_CARRYING_LDST_FUNCS = (int(LdStFunc.LD_CONFIG_BASE_ADDR),
                           int(LdStFunc.ST_CONFIG_BASE_ADDR))


# Code Repeater loops make programs repeat words heavily (the zoo has
# ~2.2k distinct words in ~46k), so both per-word checks are memoized.
@lru_cache(maxsize=1 << 16)
def _roundtrip(word: int) -> Tuple[Optional[int], Optional[str]]:
    """``(re-encoded word, None)``, or ``(None, error)`` if it won't decode."""
    try:
        return decode(word).pack(), None
    except Exception as err:
        return None, str(err)


@lru_cache(maxsize=None)
def _func_defined(opcode: Opcode, func: int) -> bool:
    func_enum = FUNC_ENUMS.get(opcode)
    if func_enum is None:
        return True
    try:
        func_enum(func)
    except ValueError:
        return False
    return True


def run(trace: ProgramTrace) -> List[Finding]:
    findings: List[Finding] = []
    program = trace.program

    def flag(rule: str, pc: int, message: str,
             severity: Severity = Severity.ERROR) -> None:
        findings.append(Finding(severity=severity, rule=rule, message=message,
                                pc=pc, snippet=snippet_at(program, pc)))

    for pc, inst in enumerate(program.instructions):
        try:
            word = inst.pack()
        except Exception as err:  # EncodingError or malformed operands
            flag("unencodable-word", pc,
                 f"instruction does not pack into a 32-bit word: {err}")
            continue

        if not _func_defined(inst.opcode, inst.func):
            flag("illegal-func", pc,
                 f"func {inst.func:#x} is not defined for opcode "
                 f"{inst.opcode.name}")

        roundtrip, error = _roundtrip(word)
        if error is not None:
            flag("roundtrip-mismatch", pc,
                 f"word {word:#010x} does not decode back: {error}")
            continue
        if roundtrip != word:
            flag("roundtrip-mismatch", pc,
                 f"word {word:#010x} re-encodes as {roundtrip:#010x}")

        ns_field = None
        if (inst.opcode == Opcode.ITERATOR_CONFIG
                and inst.func in _NS_CARRYING_ITER_FUNCS):
            ns_field = inst.field3
        elif (inst.opcode == Opcode.TILE_LD_ST
                and inst.func in _NS_CARRYING_LDST_FUNCS):
            ns_field = inst.field3
        if ns_field is not None:
            try:
                Namespace(ns_field)
            except ValueError:
                flag("illegal-namespace", pc,
                     f"namespace id {ns_field} is not an assigned scratchpad "
                     f"namespace (0-{max(Namespace)})")
    return findings
