"""REP006 error-taxonomy: no bare ``assert`` for runtime validation.

``python -O`` strips ``assert`` statements, so an assert guarding a
runtime invariant silently stops guarding in optimized runs — the
hazard PR 4 fixed ad hoc and this rule now enforces.  Library code
raises the typed hierarchy in ``repro.errors`` instead, which also
keeps failures catchable as :class:`~repro.errors.ReproError`.  Test
code (pytest rewrites asserts; they are the assertion API there) is
simply not part of the linted path set — ``repro lint src/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import rule


@rule(
    "error-taxonomy",
    id="REP006",
    category="errors",
)
def check_error_taxonomy(ctx: FileContext) -> Iterator[Finding]:
    """Runtime validation raises ``repro.errors`` exceptions, never
    bare ``assert`` (stripped under ``python -O``)."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assert):
            continue
        yield ctx.finding(
            check_error_taxonomy,
            node,
            "bare assert is stripped under python -O — raise the "
            "matching repro.errors exception (EvaluationError, "
            "CacheError, ...) for runtime validation",
        )
