"""Finding and result dataclasses for the lint layer.

A :class:`Finding` is one rule violation at one source location; a
:class:`LintResult` is everything one ``lint_paths`` run produced,
ready for the reporting layer (text) or ``to_payload`` (JSON).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintResult:
    """Everything one lint run produced: the findings no inline
    suppression covers (what fails CI), and the run's coverage."""

    findings: Tuple[Finding, ...] = ()
    files: int = 0
    rules: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_payload(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "schema_version": 2,
            "files": self.files,
            "rules": list(self.rules),
            "findings": [f.to_payload() for f in self.findings],
            "counts": counts,
        }


def sort_findings(findings: List[Finding]) -> Tuple[Finding, ...]:
    """Stable presentation order: path, then line, then rule id."""
    return tuple(
        sorted(
            findings,
            key=lambda f: (f.path, f.line, f.column, f.rule),
        )
    )
