"""The ordered pass pipeline and its entry points.

``verify_program`` is the core oracle: one abstract-interpretation walk
(:func:`.state.interpret`) feeds the ordered passes — decode → loops →
dataflow → ownership → deps → lint — and the findings land in one
:class:`VerifyReport`. ``verify_model`` maps it over a compiled model's
blocks (Output-BUF ownership comes from whether the block has a GEMM
producer) and appends a model-level race report;
``verify_words``/``verify_blob`` accept serialized program words,
turning undecodable words into findings instead of exceptions so
``repro verify`` can grade corrupt binaries.

The ``deps`` pass is translation validation: when the caller supplies
the lowered tile (``verify_model`` always does), the compiler's
IR-level access claims (:mod:`repro.analysis.deps.access`) are
cross-checked against the binary-level walks the abstract interpreter
reconstructed. ``REPRO_DEPS`` selects the mode — ``off`` disables it,
``strict`` is reserved for CI gates (callers may also treat it as
"warnings fail"), ``on`` (the default) runs it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ...isa import Namespace, ProgramDecodeError, TandemProgram, decode
from ...runtime import knobs
from ...simulator.params import TandemParams
from ...telemetry import get_telemetry
from . import dataflow, decode as decode_pass, lint, loops, ownership
from .findings import (
    Finding,
    ModelVerifyReport,
    Severity,
    VerificationError,
    VerifyReport,
)
from .state import ProgramTrace, interpret

#: Pass order is load-bearing: structural protocol errors (decode, loop
#: table) make downstream dataflow findings noise, so they sort first.
PASS_NAMES = ("decode", "loops", "dataflow", "ownership", "deps", "lint")


def deps_mode(override: Optional[str] = None) -> str:
    """Resolve the dependence-analysis mode: ``off``/``on``/``strict``.

    ``override`` wins when given; otherwise the ``REPRO_DEPS``
    environment variable decides, defaulting to ``on``. Both parse
    through the ``REPRO_DEPS`` knob, so a misspelt mode raises
    :class:`~repro.runtime.knobs.KnobError`.
    """
    if override is not None:
        return knobs.parse("REPRO_DEPS", override)
    return knobs.get("REPRO_DEPS")


def _infer_owns_obuf(trace: ProgramTrace) -> bool:
    """Permissive default for bare programs (no block context).

    A program that releases the Output BUF, or touches it at all, is
    assumed to have been handed the buffer — so ownership errors only
    fire when the caller states ``owns_obuf=False`` (as ``verify_model``
    does for blocks without a GEMM producer).
    """
    if trace.release_pcs:
        return True
    if any(use.ns == Namespace.OBUF for use in trace.uses):
        return True
    return any(t.ns == Namespace.OBUF for t in trace.transfers)


def verify_program(program: TandemProgram,
                   params: Optional[TandemParams] = None, *,
                   owns_obuf: Optional[bool] = None,
                   tile=None, deps: Optional[str] = None) -> VerifyReport:
    """Run every verifier/lint pass over one program.

    ``tile`` optionally supplies the :class:`LoweredTile` the program
    came from; with it (and the deps mode not ``off``) the translation-
    validation pass cross-checks the tile's IR-level access metadata
    against the interpreted binary.
    """
    params = params or TandemParams()
    trace = interpret(program, params)
    if owns_obuf is None:
        owns_obuf = _infer_owns_obuf(trace)
    mode = deps_mode(deps)
    ran_deps = mode != "off" and tile is not None
    report = VerifyReport(program=program.name,
                          instructions=len(program.instructions))
    report.passes = [name for name in PASS_NAMES
                     if name != "deps" or ran_deps]
    report.extend(decode_pass.run(trace))
    report.extend(loops.run(trace))
    report.extend(dataflow.run(trace))
    report.extend(ownership.run(trace, owns_obuf))
    if ran_deps:
        from ..deps import validate_tile
        deps_findings = validate_tile(tile, trace)
        report.extend(deps_findings)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("verifier.deps.programs")
            tel.count("verifier.deps.findings", len(deps_findings))
    report.extend(lint.run(trace))
    report.findings.sort(
        key=lambda f: (f.pc if f.pc is not None else -1, -int(f.severity)))
    return report


def verify_words(name: str, words: Sequence[int],
                 params: Optional[TandemParams] = None, *,
                 owns_obuf: Optional[bool] = None) -> VerifyReport:
    """Verify a serialized word stream, grading undecodable words.

    Unlike :meth:`TandemProgram.unpack`, a word that fails to decode
    becomes an ``undecodable-word`` error finding. Semantic passes need
    a coherent stream (one dropped word shifts every loop body), so when
    any word fails to decode only the decode tier runs.
    """
    decoded, findings = [], []
    for pc, word in enumerate(words):
        try:
            if not isinstance(word, int) or not 0 <= word < (1 << 32):
                raise ProgramDecodeError(
                    f"{word!r} is not a 32-bit word", pc=pc)
            decoded.append(decode(word))
        except (ProgramDecodeError, ValueError) as err:
            shown = f"{word:#010x}" if isinstance(word, int) else repr(word)
            findings.append(Finding(
                severity=Severity.ERROR, rule="undecodable-word",
                message=f"word {shown} does not decode: {err}", pc=pc))
    if findings:
        report = VerifyReport(program=name, instructions=len(words),
                              passes=["decode"], findings=findings)
        return report
    return verify_program(TandemProgram(name, decoded), params,
                          owns_obuf=owns_obuf)


def verify_blob(name: str, blob: bytes,
                params: Optional[TandemParams] = None, *,
                owns_obuf: Optional[bool] = None) -> VerifyReport:
    """Verify a little-endian packed program blob (``to_bytes`` form)."""
    findings: List[Finding] = []
    tail = len(blob) % 4
    if tail:
        findings.append(Finding(
            severity=Severity.ERROR, rule="undecodable-word",
            message=f"blob is {len(blob)} bytes, not a whole number of "
                    f"32-bit words ({tail} trailing byte(s))",
            pc=len(blob) // 4))
        blob = blob[:len(blob) - tail]
    words = [int.from_bytes(blob[i:i + 4], "little")
             for i in range(0, len(blob), 4)]
    report = verify_words(name, words, params, owns_obuf=owns_obuf)
    report.findings = findings + report.findings
    return report


def verify_model(model, params: Optional[TandemParams] = None, *,
                 deps: Optional[str] = None) -> ModelVerifyReport:
    """Verify every lowered tile program of a compiled model.

    ``model`` is a :class:`~repro.compiler.compiler.CompiledModel`;
    blocks with a GEMM producer own the Output BUF for the duration of
    their tile program, everything else must not touch it. Unless the
    deps mode is ``off``, every tile is additionally translation-
    validated against its access metadata, and a model-level race
    report (DRAM dataflow, in-place cache appends, OBUF handoff) is
    appended as a synthetic ``<model>::model`` program report.
    """
    params = params or model.sim_params.tandem
    mode = deps_mode(deps)
    report = ModelVerifyReport(model=model.name)
    for block in model.blocks:
        if block.tile is None:
            continue
        owns = block.block.gemm is not None
        report.reports.append(
            verify_program(block.tile.program, params, owns_obuf=owns,
                           tile=block.tile, deps=mode))
    if mode != "off":
        from ..deps import check_model
        races = VerifyReport(program=f"{model.name}::model",
                             passes=["deps"])
        races.extend(check_model(model))
        report.reports.append(races)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("verifier.deps.model_checks")
            tel.count("verifier.deps.findings", len(races.findings))
    return report


def verify_block_dicts(model_name: str, blocks: Iterable[dict],
                       params: Optional[TandemParams] = None, *,
                       deps: Optional[str] = None) -> ModelVerifyReport:
    """Verify blocks as loaded by :func:`repro.compiler.serialize.load_blocks`.

    Serialized (v3) tiles carry their access metadata, so translation
    validation runs per program; the model-level race checks need the
    graph and are only available through :func:`verify_model`.
    """
    report = ModelVerifyReport(model=model_name)
    mode = deps_mode(deps)
    for blk in blocks:
        tile = blk.get("tile")
        if tile is None:
            continue
        owns = blk.get("gemm_node") is not None
        report.reports.append(
            verify_program(tile.program, params, owns_obuf=owns,
                           tile=tile, deps=mode))
    return report
