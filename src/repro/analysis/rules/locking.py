"""REP001 lock-discipline: manifest fields only under ``self._lock``.

Classes that share state across threads (``SweepEngine``,
``PersistentCache``, the serve layer's ``RunBroker``) declare a
``_lock_guarded`` manifest — a class-level frozenset of attribute
names — and this rule enforces the convention the docstrings only
promise: every lexical ``self.<field>`` access to a manifest field
happens inside a ``with self._lock:`` block.

Exemptions encode the repo's own conventions: ``__init__``/``__del__``
(no concurrent callers exist yet / teardown), methods whose name ends
in ``_locked`` (the documented caller-holds-the-lock suffix), and
nested functions (closures are invoked under whatever lock their
creator holds; lexical analysis cannot see the call site).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import RuleInfo, rule

MANIFEST_ATTR = "_lock_guarded"
LOCK_ATTR = "_lock"
_EXEMPT_METHODS = ("__init__", "__del__")


def _manifest_fields(cls: ast.ClassDef) -> Optional[Tuple[str, ...]]:
    """The ``_lock_guarded`` names, or ``None`` when the class does
    not declare a manifest."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == MANIFEST_ATTR
            ):
                return _string_elements(value)
    return None


def _string_elements(node: ast.expr) -> Tuple[str, ...]:
    if isinstance(node, ast.Call) and node.args:
        # frozenset({...}) / tuple([...]) wrappers.
        return _string_elements(node.args[0])
    elements: List[ast.expr] = []
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        elements = list(node.elts)
    return tuple(
        element.value
        for element in elements
        if isinstance(element, ast.Constant)
        and isinstance(element.value, str)
    )


def _acquires_lock(item: ast.withitem) -> bool:
    expr = item.context_expr
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == LOCK_ATTR
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


class _LockScan(ast.NodeVisitor):
    """Flags manifest-field access outside the lock, lexically."""

    def __init__(
        self,
        ctx: FileContext,
        info: RuleInfo,
        fields: Tuple[str, ...],
        method: str,
    ) -> None:
        self.ctx = ctx
        self.info = info
        self.fields = frozenset(fields)
        self.method = method
        self.held = False
        self.findings: List[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: "ast.With | ast.AsyncWith") -> None:
        for item in node.items:
            # The context expressions themselves evaluate before the
            # lock is held.
            self.visit(item.context_expr)
        acquires = any(_acquires_lock(item) for item in node.items)
        if acquires and not self.held:
            self.held = True
            for stmt in node.body:
                self.visit(stmt)
            self.held = False
        else:
            for stmt in node.body:
                self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope: lock state at call time is unknowable

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.held
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.fields
        ):
            self.findings.append(
                self.ctx.finding(
                    self.info,
                    node,
                    f"self.{node.attr} is in {MANIFEST_ATTR} but "
                    f"{self.method}() touches it outside "
                    f"'with self.{LOCK_ATTR}:' (rename the method "
                    f"*_locked if the caller holds the lock)",
                )
            )
        self.generic_visit(node)


@rule(
    "lock-discipline",
    id="REP001",
    category="concurrency",
)
def check_lock_discipline(ctx: FileContext) -> Iterator[Finding]:
    """Fields named in a class's ``_lock_guarded`` manifest must be
    accessed lexically inside ``with self._lock``."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = _manifest_fields(node)
        if not fields:
            continue
        for stmt in node.body:
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if stmt.name in _EXEMPT_METHODS or stmt.name.endswith(
                "_locked"
            ):
                continue
            scan = _LockScan(ctx, check_lock_discipline, fields, stmt.name)
            for body_stmt in stmt.body:
                scan.visit(body_stmt)
            yield from scan.findings
