"""The analyzer driver: file discovery, rule selection, the run loop.

``lint_paths`` is the programmatic face of ``repro lint``: discover
files, parse each once, run every selected rule over it (path-scoped
rules only see matching files), run whole-run ``finish`` hooks, drop
every finding an inline ``# repro-lint: ignore[...]`` comment on its
line covers, and sort the rest into a
:class:`~repro.analysis.findings.LintResult`.
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding, LintResult, sort_findings
from repro.analysis.registry import RULES, RuleInfo, RuleRegistry
from repro.errors import LintUsageError

#: Reserved id for "the file did not parse" findings — not a
#: registered rule (it cannot be excluded: unparseable code can't be
#: checked for anything else either).
SYNTAX_RULE_ID = "REP000"

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "node_modules"}


def iter_python_files(
    paths: Sequence["str | Path"],
) -> List[Tuple[Path, str]]:
    """(absolute path, display path) for every Python file under
    ``paths``, sorted by display path.  Directories are walked
    recursively, skipping ``_SKIP_DIRS`` below the argument (never the
    argument's own ancestors); explicit file arguments are taken
    as-is.  Finding no Python file at all is a usage error: a run
    that read nothing must not pass."""
    found: Dict[str, Path] = {}
    for raw in paths:
        base = Path(raw)
        if base.is_file():
            found[_display(base)] = base.resolve()
        elif base.is_dir():
            for path in base.rglob("*.py"):
                below = path.relative_to(base).parts[:-1]
                if any(part in _SKIP_DIRS for part in below):
                    continue
                found[_display(path)] = path.resolve()
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    if not found:
        raise LintUsageError(
            "no Python files to lint under "
            + ", ".join(str(raw) for raw in paths)
        )
    return sorted(
        ((found[display], display) for display in found),
        key=lambda pair: pair[1],
    )


def _display(path: Path) -> str:
    return path.as_posix()


def select_rules(
    registry: RuleRegistry,
    include: Optional[Iterable[str]] = None,
    exclude: Optional[Iterable[str]] = None,
) -> List[RuleInfo]:
    """The rules a run should execute, in id order.

    ``include``/``exclude`` accept rule ids or names; unknown entries
    raise :class:`~repro.errors.LintUsageError` (exit code 2 at the
    CLI) rather than silently linting with fewer rules than asked.
    """
    if include is not None:
        chosen = {registry.resolve(key).id for key in include}
    else:
        chosen = {info.id for info in registry.infos()}
    if exclude is not None:
        chosen -= {registry.resolve(key).id for key in exclude}
    selected = [
        info for info in registry.infos() if info.id in chosen
    ]
    if not selected:
        raise LintUsageError(
            "rule selection excluded every registered rule"
        )
    return selected


def _rule_applies(info: RuleInfo, display: str) -> bool:
    if not info.paths:
        return True
    return any(fnmatch(display, pattern) for pattern in info.paths)


def _suppressed(
    finding: Finding,
    suppressions: Dict[str, Dict[int, FrozenSet[str]]],
) -> bool:
    ids = suppressions.get(finding.path, {}).get(finding.line)
    return ids is not None and (finding.rule in ids or "*" in ids)


def lint_paths(
    paths: Sequence["str | Path"],
    rules: Optional[Iterable[str]] = None,
    exclude: Optional[Iterable[str]] = None,
    registry: Optional[RuleRegistry] = None,
) -> LintResult:
    """Run the selected rules over ``paths`` and collect findings."""
    target = RULES if registry is None else registry
    selected = select_rules(target, rules, exclude)
    files = iter_python_files(paths)
    shared: Dict[str, Any] = {}
    #: display path -> that file's inline-suppression table.
    suppressions: Dict[str, Dict[int, FrozenSet[str]]] = {}
    findings: List[Finding] = []
    for path, display in files:
        try:
            ctx = FileContext.parse(path, display, shared)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            findings.append(
                Finding(
                    rule=SYNTAX_RULE_ID,
                    path=display,
                    line=getattr(exc, "lineno", None) or 1,
                    column=getattr(exc, "offset", None) or 1,
                    message=f"file does not parse: {exc}",
                )
            )
            continue
        suppressions[display] = ctx.suppressions
        for info in selected:
            if _rule_applies(info, display):
                findings.extend(info.check(ctx))
    for info in selected:
        if info.finish is not None:
            findings.extend(info.finish(shared))
    return LintResult(
        findings=sort_findings(
            [f for f in findings if not _suppressed(f, suppressions)]
        ),
        files=len(files),
        rules=tuple(info.id for info in selected),
    )
