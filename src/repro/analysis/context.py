"""Per-file analysis context: source, AST, suppressions, helpers.

One :class:`FileContext` is parsed per linted file and handed to
every selected rule, so the file is read and parsed exactly once per
run.  It also reads the file's inline suppressions: a line ending in
``# repro-lint: ignore[REP001]`` (comma-separate several ids, or use
``*`` for all) silences findings anchored to that line, whichever
pass produced them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterator, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import RuleInfo

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_*,\s-]+)\]"
)


def _suppressions(lines: Tuple[str, ...]) -> Dict[int, FrozenSet[str]]:
    table: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            table[number] = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
    return table


@dataclass
class FileContext:
    """One parsed file plus the run-shared scratch state."""

    path: Path
    #: The path as reported in findings: what the caller passed,
    #: POSIX-normalized (stable across platforms).
    display: str
    source: str
    lines: Tuple[str, ...]
    tree: ast.Module
    #: Per-run dict shared across files; rules needing a whole-run
    #: view (duplicate registry names) stash state under their id and
    #: read it back in their ``finish`` hook.
    shared: Dict[str, Any] = field(default_factory=dict)
    #: line -> rule ids (or ``*``) its ignore comment names.
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def parse(
        cls,
        path: Path,
        display: str,
        shared: Optional[Dict[str, Any]] = None,
    ) -> "FileContext":
        """Read and parse ``path``; raises ``SyntaxError`` (and lets
        ``OSError`` escape) for the runner to convert."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
        lines = tuple(source.splitlines())
        return cls(
            path=path,
            display=display,
            source=source,
            lines=lines,
            tree=tree,
            shared={} if shared is None else shared,
            suppressions=_suppressions(lines),
        )

    def finding(
        self, info: RuleInfo, node: ast.AST, message: str
    ) -> Finding:
        """A finding anchored to ``node``.  Inline suppression is the
        runner's job (:func:`~repro.analysis.runner.lint_paths`), so
        whole-run ``finish`` findings are filtered the same way."""
        return Finding(
            rule=info.id,
            path=self.display,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# --- small AST helpers shared by the builtin rules ---------------------


def attr_chain(node: ast.AST) -> Tuple[str, ...]:
    """The dotted-name parts of a ``Name``/``Attribute`` chain
    (``cache_mod.PersistentCache.for_estimator`` ->
    ``("cache_mod", "PersistentCache", "for_estimator")``), or ``()``
    when the expression is not a plain dotted name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def walk_functions(tree: ast.AST) -> Iterator[ast.AST]:
    """Every function/method definition in ``tree`` (including nested
    ones — each is yielded once and analyzed as its own scope)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """The statements lexically belonging to ``func``'s own scope:
    a pre-order walk of its body that does not descend into nested
    function or class definitions (those are separate scopes)."""

    def walk_block(body: Any) -> Iterator[ast.stmt]:
        for stmt in body:
            yield stmt
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            for name in (
                "body", "orelse", "finalbody", "handlers", "cases"
            ):
                children = getattr(stmt, name, None)
                if not children:
                    continue
                if name == "handlers":
                    for handler in children:
                        yield from walk_block(handler.body)
                elif name == "cases":
                    for case in children:
                        yield from walk_block(case.body)
                else:
                    yield from walk_block(children)

    yield from walk_block(getattr(func, "body", []))
