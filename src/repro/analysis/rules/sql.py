"""REP002 sql-transaction: balanced transactions, no built SQL.

Two checks guard the cache durability story:

1. **Transaction balance** — in any function that issues
   ``conn.execute("BEGIN IMMEDIATE")``, the fall-through path must
   reach a ``COMMIT`` and the exception path a ``ROLLBACK`` (the
   repo idiom: ``try: ... except BaseException: ROLLBACK; raise``
   then ``COMMIT``).  A BEGIN with no COMMIT leaves the database
   write-locked; no ROLLBACK on error leaks the transaction into the
   next statement.

2. **No dynamically built SQL** — statements assembled with
   f-strings, ``%``, ``+`` or ``.format`` are flagged anywhere, with
   one carve-out for the repo's parameter-expansion idiom: an
   interpolation that is itself a ``"?"``-placeholder expression
   (``",".join("?" * len(chunk))`` or a name containing
   ``placeholder``) is parameter plumbing, not injectable text.
   Matching is case-sensitive on upper-case SQL keywords (the repo
   writes SQL upper-case), so prose f-strings never false-positive;
   ``PRAGMA`` statements are exempt by design (no parameter support,
   values come from code constants).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from repro.analysis.context import FileContext, own_statements
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

_SQL_HEAD_RE = re.compile(
    r"^\s*(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|ALTER)\b"
)
_EXECUTE_METHODS = {"execute", "executemany", "executescript"}


def _execute_constant(stmt: ast.stmt) -> Optional[str]:
    """The constant SQL text of an ``x.execute("...")`` statement."""
    if not isinstance(stmt, ast.Expr):
        return None
    call = stmt.value
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in _EXECUTE_METHODS
        and call.args
        and isinstance(call.args[0], ast.Constant)
        and isinstance(call.args[0].value, str)
    ):
        return None
    return call.args[0].value


def _is_placeholder_expr(node: ast.expr) -> bool:
    """The repo's sanctioned dynamic part: '?'-placeholder expansion."""
    if isinstance(node, ast.Name):
        return "placeholder" in node.id.lower()
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "join"
        and isinstance(node.func.value, ast.Constant)
        and node.func.value.value == ","
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        for side in (node.left, node.right):
            if (
                isinstance(side, ast.Constant)
                and side.value == "?"
            ):
                return True
    if isinstance(node, ast.FormattedValue):
        return _is_placeholder_expr(node.value)
    return False


def _literal_head(node: ast.expr) -> Optional[str]:
    """The leading literal text of a string-building expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        for value in node.values:
            if isinstance(value, ast.Constant):
                return str(value.value)
            return None
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Mod)
    ):
        return _literal_head(node.left)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return _literal_head(node.func.value)
    return None


def _dynamic_parts(node: ast.expr) -> List[ast.expr]:
    """Non-literal fragments of a string-building expression."""
    if isinstance(node, ast.Constant):
        return []
    if isinstance(node, ast.JoinedStr):
        return [
            value
            for value in node.values
            if isinstance(value, ast.FormattedValue)
        ]
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Mod)
    ):
        return _dynamic_parts(node.left) + _dynamic_parts(node.right)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return list(node.args) + [kw.value for kw in node.keywords]
    return [node]


def _is_built_string(node: ast.expr) -> bool:
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Mod)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    )


@rule(
    "sql-transaction",
    id="REP002",
    category="durability",
)
def check_sql_transaction(ctx: FileContext) -> Iterator[Finding]:
    """Every BEGIN IMMEDIATE reaches COMMIT/ROLLBACK; no SQL is
    built from f-strings, ``%``, ``+`` or ``.format``."""
    yield from _check_transactions(ctx)
    yield from _check_built_sql(ctx)


def _check_transactions(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        begins: List[ast.stmt] = []
        commits: List[ast.stmt] = []
        rollbacks_in_handlers: List[ast.stmt] = []
        handler_statements = set()
        for stmt in own_statements(node):
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    for inner in ast.walk(handler):
                        handler_statements.add(id(inner))
        for stmt in own_statements(node):
            sql = _execute_constant(stmt)
            if sql is None:
                continue
            head = sql.strip().upper()
            if head.startswith("BEGIN"):
                begins.append(stmt)
            elif head.startswith("COMMIT"):
                commits.append(stmt)
            elif head.startswith("ROLLBACK"):
                if id(stmt) in handler_statements:
                    rollbacks_in_handlers.append(stmt)
        for begin in begins:
            after = [
                commit
                for commit in commits
                if commit.lineno > begin.lineno
            ]
            if not after:
                yield ctx.finding(
                    check_sql_transaction,
                    begin,
                    "BEGIN IMMEDIATE with no COMMIT on the "
                    "fall-through path — the transaction never "
                    "becomes durable",
                )
            if not rollbacks_in_handlers:
                yield ctx.finding(
                    check_sql_transaction,
                    begin,
                    "BEGIN IMMEDIATE with no ROLLBACK in an except "
                    "handler — an error mid-transaction leaks the "
                    "write lock into the next statement",
                )


def _check_built_sql(ctx: FileContext) -> Iterator[Finding]:
    flagged: set = set()
    for node in ast.walk(ctx.tree):
        expressions: List[Tuple[ast.expr, str]] = []
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _EXECUTE_METHODS
            and node.args
        ):
            expressions.append((node.args[0], "execute() argument"))
        elif isinstance(node, ast.expr) and _is_built_string(node):
            expressions.append((node, "string expression"))
        for expr, kind in expressions:
            if not _is_built_string(expr) or id(expr) in flagged:
                continue
            head = _literal_head(expr)
            if head is None or not _SQL_HEAD_RE.match(head):
                continue
            offending = [
                part
                for part in _dynamic_parts(expr)
                if not _is_placeholder_expr(part)
            ]
            if not offending:
                continue
            flagged.add(id(expr))
            yield ctx.finding(
                check_sql_transaction,
                expr,
                f"SQL {kind} is built dynamically "
                f"(f-string/%/+/.format) — use a literal statement "
                f"with '?' parameters (only '?'-placeholder "
                f"expansion may be interpolated)",
            )
