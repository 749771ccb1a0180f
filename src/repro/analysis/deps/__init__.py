"""IR-level dependence analysis and machine-concurrency race detection.

The Tandem Processor has no hardware interlocks: the compiler alone
guarantees that the decoupled access/execute engines, the Output BUF
handoff, and in-place DRAM stores never race (Section 6 of the paper).
This package is the single place those guarantees are *proved* instead
of assumed:

* :mod:`.footprint` — affine access footprints: one strided walk per
  Iterator Table entry, with extent/overlap/injectivity algebra.
* :mod:`.nest` — RAW/WAR/WAW classification inside a loop nest and the
  legality queries behind loop fission/interchange (the single source
  of truth the :mod:`repro.compiler.transforms` passes delegate to).
* :mod:`.access` — the IR-level access metadata the compiler attaches
  to every lowered tile (per-statement operand walks, DAE transfers,
  DRAM renames, forwarding claims made by the fission pass).
* :mod:`.validate` — translation validation: cross-checks the IR-level
  claims against the binary-level walks the verifier's abstract
  interpreter reconstructs, so the two analyses must agree on every
  program.
* :mod:`.races` — the model-level race detector: DRAM dataflow across
  blocks, in-place ``CacheAppend`` alias writes, and the GEMM→Tandem
  Output BUF tile handoff.
* :mod:`.oracle` — a dynamic hazard oracle (tests only) that replays
  exact address sets to ground-truth the static verdicts.

The verifier pipeline (:mod:`repro.analysis.verifier.pipeline`) runs
:mod:`.validate` and :mod:`.races` as a severity-tagged ``deps`` pass
on every fresh compile; ``REPRO_DEPS`` selects ``off``/``on``/``strict``.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "footprint": (
        "DepKind", "Walk", "boxes_overlap", "ref_walk", "walks_overlap",
    ),
    "nest": (
        "NestDep", "fission_blockers", "forwarding_claims",
        "interchange_blockers", "is_pointwise_parallel", "nest_dependences",
    ),
    "access": (
        "ForwardClaim", "NestAccess", "PermuteAccess", "TileAccessMeta",
        "TransferAccess", "collect_access_meta",
    ),
    "validate": ("validate_tile",),
    "races": ("check_model",),
    "oracle": ("OracleVerdict", "run_oracle"),
})

__all__ = [
    "DepKind",
    "ForwardClaim",
    "NestAccess",
    "NestDep",
    "OracleVerdict",
    "PermuteAccess",
    "TileAccessMeta",
    "TransferAccess",
    "Walk",
    "boxes_overlap",
    "check_model",
    "collect_access_meta",
    "fission_blockers",
    "forwarding_claims",
    "interchange_blockers",
    "is_pointwise_parallel",
    "nest_dependences",
    "ref_walk",
    "run_oracle",
    "validate_tile",
    "walks_overlap",
]
