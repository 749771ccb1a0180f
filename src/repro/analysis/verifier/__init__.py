"""Static program verifier + lint pipeline for compiled Tandem binaries.

The Tandem Processor drops every hardware safety net — no register
file, no MMU, no interlocks — so a compiled program is only as safe as
its iterator-table, loop-table, and scratchpad configuration. This
package proves those properties *statically*, post-assembly and
pre-execution, over an abstract interpretation of the machine state:

* :mod:`.state` — one-pass abstract interpreter producing a
  :class:`~repro.analysis.verifier.state.ProgramTrace`
* :mod:`.decode` — legal opcode/func pairs, byte-identical re-encoding
* :mod:`.loops` — Code Repeater protocol (depth, trip counts, bodies)
* :mod:`.dataflow` — configured-before-use + symbolic bounds proofs
* :mod:`.ownership` — Output-BUF GEMM→Tandem handoff state machine
* :mod:`.lint` — dead stores, unconfigured IMM reads, unused entries

Entry points: :func:`verify_program` (one program),
:func:`verify_model` (every block of a compiled model),
:func:`verify_words` / :func:`verify_blob` (serialized binaries, for
``repro verify``).
"""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "findings": (
        "Finding", "ModelVerifyReport", "Severity", "VerificationError",
        "VerifyReport", "snippet_at",
    ),
    "pipeline": (
        "PASS_NAMES", "deps_mode", "verify_blob", "verify_block_dicts",
        "verify_model", "verify_program", "verify_words",
    ),
    "rules": (
        "Rule", "all_rules", "resolve_ignores", "rule_id", "rules_table",
    ),
    "state": ("ProgramTrace", "interpret"),
})

__all__ = [
    "Finding",
    "ModelVerifyReport",
    "PASS_NAMES",
    "ProgramTrace",
    "Rule",
    "Severity",
    "VerificationError",
    "VerifyReport",
    "all_rules",
    "deps_mode",
    "interpret",
    "resolve_ignores",
    "rule_id",
    "rules_table",
    "snippet_at",
    "verify_blob",
    "verify_block_dicts",
    "verify_model",
    "verify_program",
    "verify_words",
]
