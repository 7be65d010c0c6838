"""Repo-specific static analysis: ``repro lint``.

The reproduction's correctness rests on conventions no unit test can
enforce directly — every :class:`~repro.eval.engine.SweepEngine`
shared field is only touched under ``self._lock``, every
``BEGIN IMMEDIATE`` reaches ``COMMIT`` or ``ROLLBACK`` on all paths,
hot-path float folds keep a pinned order so the golden tests stay
bit-identical, and every constructed engine is closed so interrupted
grids keep their work.  This package turns those conventions into
machine-checked invariants: a multi-pass AST analyzer whose rules are
registered with the :func:`rule` decorator, run over a
file set by :func:`lint_paths`, and surfaced through the ``repro
lint`` CLI as a text table or a JSON document.  The one exception
path is an inline ``# repro-lint: ignore[REPnnn]`` comment on the
flagged line.
"""

from repro.analysis.findings import Finding, LintResult
from repro.analysis.registry import RULES, RuleInfo, RuleRegistry, rule
from repro.analysis.context import FileContext
from repro.analysis.runner import (
    SYNTAX_RULE_ID,
    iter_python_files,
    lint_paths,
    select_rules,
)

# Importing the subpackage registers every builtin rule into RULES.
from repro.analysis import rules as _builtin_rules  # noqa: F401

__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "RuleInfo",
    "RuleRegistry",
    "rule",
    "FileContext",
    "SYNTAX_RULE_ID",
    "iter_python_files",
    "lint_paths",
    "select_rules",
]
