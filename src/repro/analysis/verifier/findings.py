"""Findings, reports, and the verification error type.

Every verifier/lint rule reduces to a stream of :class:`Finding`
objects: a severity, a stable rule id, the instruction index it anchors
to, a human-readable message, and a short disassembly snippet. A
:class:`VerifyReport` aggregates one program's findings;
:class:`ModelVerifyReport` aggregates a compiled model's blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ...schema import report_json


class Severity(enum.IntEnum):
    """Ordered so ``max()`` over findings yields the worst tier."""

    INFO = 0
    WARN = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One verifier/lint diagnostic anchored to an instruction."""

    severity: Severity
    rule: str                  # stable kebab-case rule name
    message: str
    pc: Optional[int] = None   # instruction index, None for whole-program
    snippet: str = ""          # disassembly of the offending word(s)

    @property
    def rule_id(self) -> Optional[str]:
        """Stable short ID (e.g. ``DEP003``) from the rule registry."""
        from .rules import rule_id
        return rule_id(self.rule)

    def as_dict(self) -> Dict:
        """JSON-able form of one finding."""
        return {
            "severity": str(self.severity),
            "rule": self.rule,
            "rule_id": self.rule_id,
            "message": self.message,
            "pc": self.pc,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        """One-line human-readable rendering."""
        where = f"@{self.pc:d}" if self.pc is not None else "@-"
        ident = self.rule_id
        tag = f"{ident} {self.rule}" if ident else self.rule
        line = f"{str(self.severity):5s} {where:>6s} [{tag}] {self.message}"
        if self.snippet:
            line += "\n" + "\n".join(f"        | {s}"
                                     for s in self.snippet.splitlines())
        return line


def snippet_at(program, pc: int, context: int = 1) -> str:
    """Disassembly lines around ``pc`` (clamped to the program)."""
    insts = program.instructions
    lo = max(0, pc - context)
    hi = min(len(insts), pc + context + 1)
    lines = []
    for index in range(lo, hi):
        inst = insts[index]
        try:
            word = f"{inst.pack():08x}"
        except Exception:  # unencodable hand-built instruction
            word = "????????"
        marker = ">" if index == pc else " "
        lines.append(f"{marker}{index:5d}: {word}  {inst}")
    return "\n".join(lines)


@dataclass
class VerifyReport:
    """All findings for one program, plus pass bookkeeping."""

    program: str
    findings: List[Finding] = field(default_factory=list)
    passes: List[str] = field(default_factory=list)
    instructions: int = 0

    def extend(self, findings: Sequence[Finding]) -> None:
        """Append findings to this report."""
        self.findings.extend(findings)

    def suppress(self, rules: Sequence[str]) -> int:
        """Drop findings whose rule name is in ``rules``; returns count.

        ``rules`` holds kebab-case rule names (resolve IDs first with
        :func:`repro.analysis.verifier.rules.resolve_ignores`).
        """
        drop = set(rules)
        before = len(self.findings)
        self.findings = [f for f in self.findings if f.rule not in drop]
        return before - len(self.findings)

    def count(self, severity: Severity) -> int:
        """Findings at exactly this severity."""
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def errors(self) -> int:
        """Error-severity finding count."""
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        """Warning-severity finding count."""
        return self.count(Severity.WARN)

    @property
    def infos(self) -> int:
        """Info-severity finding count."""
        return self.count(Severity.INFO)

    @property
    def clean(self) -> bool:
        """True when the report has no errors."""
        return self.errors == 0

    def by_rule(self) -> Dict[str, int]:
        """Finding count per rule id."""
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> Dict:
        """JSON-able form of the whole report."""
        return {
            "program": self.program,
            "instructions": self.instructions,
            "passes": list(self.passes),
            "errors": self.errors,
            "warnings": self.warnings,
            "infos": self.infos,
            "clean": self.clean,
            "findings": [f.as_dict() for f in self.findings],
        }

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        """Multi-line rendering at or above ``min_severity``."""
        shown = [f for f in self.findings if f.severity >= min_severity]
        head = (f"{self.program}: {self.instructions} words, "
                f"{self.errors} error(s), {self.warnings} warning(s), "
                f"{self.infos} info(s)")
        if not shown:
            return head + " — clean" if self.clean else head
        return "\n".join([head] + [f.render() for f in shown])


@dataclass
class ModelVerifyReport:
    """Per-block reports for one compiled model."""

    model: str
    reports: List[VerifyReport] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        """Every finding across all block reports."""
        return [f for r in self.reports for f in r.findings]

    def suppress(self, rules: Sequence[str]) -> int:
        """Drop findings by rule name across every block report."""
        return sum(r.suppress(rules) for r in self.reports)

    @property
    def errors(self) -> int:
        """Error count summed over blocks."""
        return sum(r.errors for r in self.reports)

    @property
    def warnings(self) -> int:
        """Warning count summed over blocks."""
        return sum(r.warnings for r in self.reports)

    @property
    def infos(self) -> int:
        """Info count summed over blocks."""
        return sum(r.infos for r in self.reports)

    @property
    def clean(self) -> bool:
        """True when no block report has errors."""
        return self.errors == 0

    def by_rule(self) -> Dict[str, int]:
        """Finding count per rule id over all blocks."""
        counts: Dict[str, int] = {}
        for r in self.reports:
            for rule, n in r.by_rule().items():
                counts[rule] = counts.get(rule, 0) + n
        return dict(sorted(counts.items()))

    def as_dict(self) -> Dict:
        """JSON-able form of the model-level report."""
        return {
            "model": self.model,
            "blocks": len(self.reports),
            "errors": self.errors,
            "warnings": self.warnings,
            "infos": self.infos,
            "clean": self.clean,
            "rules": self.by_rule(),
            "reports": [r.as_dict() for r in self.reports],
        }

    def to_json(self) -> str:
        """The model-level report as a JSON string."""
        return report_json(self.as_dict())

    def record(self) -> Dict:
        """Compact cacheable verification record (no per-finding text)."""
        return {
            "record_version": 1,
            "model": self.model,
            "blocks": len(self.reports),
            "errors": self.errors,
            "warnings": self.warnings,
            "infos": self.infos,
            "clean": self.clean,
            "rules": self.by_rule(),
        }

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        """Multi-line rendering of every block report."""
        lines = [f"== {self.model}: {len(self.reports)} program(s), "
                 f"{self.errors} error(s), {self.warnings} warning(s), "
                 f"{self.infos} info(s) =="]
        for report in self.reports:
            if report.findings or min_severity == Severity.INFO:
                lines.append(report.render(min_severity))
        return "\n".join(lines)


class VerificationError(RuntimeError):
    """A compiled program failed static verification (error findings)."""

    def __init__(self, report):
        self.report = report
        worst = [f for f in report.findings if f.severity == Severity.ERROR]
        name = getattr(report, "model", getattr(report, "program", "?"))
        detail = "; ".join(f"[{f.rule}] {f.message}" for f in worst[:3])
        more = f" (+{len(worst) - 3} more)" if len(worst) > 3 else ""
        super().__init__(
            f"{name}: {len(worst)} verifier error(s): {detail}{more}")
