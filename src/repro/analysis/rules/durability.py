"""REP004 close-discipline: constructed engines/stores must close.

``SweepEngine.close()`` flushes the persistent cache and releases its
connection; ``PersistentCache.close()`` flushes and releases the
SQLite connection; ``EvaluationService.close()`` (the ``repro serve``
layer) closes the engine the whole service shares.  The PR 4
durability guarantee — an interrupted grid keeps every completed
evaluation — holds only if every construction site funnels through
``close()`` on all exit paths.  This rule flags a watched constructor
call whose result provably never reaches one:

* used directly as (or wrapped in ``closing(...)`` inside) a
  ``with`` item — OK;
* constructed inside a ``return`` expression, or the bound name later
  appears in one — ownership transfers to the caller — OK;
* bound to ``self.<attr>`` (or any attribute) — lifetime belongs to
  the owning object — OK;
* the bound name is later a ``with`` item (possibly via
  ``closing(name)`` / ``closing(name.engine)``), or ``.close()`` /
  ``.shutdown()`` on it appears inside a ``finally:`` block — OK;
* handed to ``attach_cache(...)`` — the engine owns it now — OK;
* anything else leaks connections or buffered cache entries on the
  first exception — flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.context import FileContext, attr_chain
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: Classes whose instances own resources that must be released.
WATCHED_CLASSES = {
    "SweepEngine",
    "PersistentCache",
    "EngineContext",
    "EvaluationService",
}
#: Constructor-classmethods on the watched classes.
_FACTORY_METHODS = {"create", "for_estimator"}
#: Methods that release the resource when called in a finally block.
_RELEASE_METHODS = {"close", "shutdown"}
#: Call targets that take over ownership of a passed instance.
_OWNERSHIP_SINKS = {"attach_cache"}


def _constructed_class(call: ast.Call) -> Optional[str]:
    chain = attr_chain(call.func)
    if not chain:
        return None
    if chain[-1] in WATCHED_CLASSES:
        return chain[-1]
    if (
        len(chain) >= 2
        and chain[-1] in _FACTORY_METHODS
        and chain[-2] in WATCHED_CLASSES
    ):
        return chain[-2]
    return None


def _root_name(expr: ast.expr) -> Optional[str]:
    """The leftmost name of a with-item context expression,
    unwrapping ``closing(...)``-style single-argument calls."""
    if isinstance(expr, ast.Call) and len(expr.args) == 1:
        inner = attr_chain(expr.func)
        if inner and inner[-1] in {"closing", "ExitStack"}:
            return _root_name(expr.args[0])
    chain = attr_chain(expr)
    return chain[0] if chain else None


class _FunctionFacts(ast.NodeVisitor):
    """What one function scope does with names: with-items, finally
    release calls, returns, ownership handoffs.  Nested function and
    class bodies are separate scopes and are skipped."""

    def __init__(self) -> None:
        self.with_roots: set = set()
        self.finally_released: set = set()
        self.returned_names: set = set()
        self.sink_args: set = set()
        self._finally_depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_With(self, node: ast.With) -> None:
        self._collect_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._collect_with(node)

    def _collect_with(self, node: "ast.With | ast.AsyncWith") -> None:
        for item in node.items:
            root = _root_name(item.context_expr)
            if root is not None:
                self.with_roots.add(root)
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        for child in (
            node.body + node.handlers + node.orelse  # type: ignore[operator]
        ):
            self.visit(child)
        self._finally_depth += 1
        for stmt in node.finalbody:
            self.visit(stmt)
        self._finally_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if (
            self._finally_depth > 0
            and len(chain) >= 2
            and chain[-1] in _RELEASE_METHODS
        ):
            self.finally_released.add(chain[0])
        if chain and chain[-1] in _OWNERSHIP_SINKS:
            for arg in node.args:
                arg_chain = attr_chain(arg)
                if arg_chain:
                    self.sink_args.add(arg_chain[0])
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        # A name in the returned expression transfers ownership to the
        # caller — unless it only appears as a method receiver
        # (``return store.stats()`` returns the stats, not the store).
        if node.value is not None:
            names: set = set()
            receivers: set = set()
            for inner in ast.walk(node.value):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
                elif isinstance(inner, ast.Call):
                    chain = attr_chain(inner.func)
                    if len(chain) >= 2:
                        receivers.add(chain[0])
            self.returned_names.update(names - receivers)
        self.generic_visit(node)


def _parents(func: ast.AST) -> Dict[int, ast.AST]:
    table: Dict[int, ast.AST] = {}
    stack: List[ast.AST] = [func]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef),
            ):
                continue
            table[id(child)] = node
            stack.append(child)
    return table


def _binding_target(
    call: ast.Call, parents: Dict[int, ast.AST]
) -> "tuple[str, Optional[str]]":
    """How the constructed value is captured: ('with'|'return'|
    'attr'|'name'|'sink'|'none', bound name)."""
    node: ast.AST = call
    while id(node) in parents:
        parent = parents[id(node)]
        if isinstance(parent, ast.withitem):
            return ("with", None)
        if isinstance(parent, ast.Return):
            return ("return", None)
        if isinstance(parent, ast.Call):
            chain = attr_chain(parent.func)
            if chain and chain[-1] in _OWNERSHIP_SINKS:
                return ("sink", None)
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            value = getattr(parent, "value", None)
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            if value is not None:
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        return ("attr", None)
                    if isinstance(target, ast.Name):
                        return ("name", target.id)
            return ("none", None)
        node = parent
    return ("none", None)


@rule(
    "close-discipline",
    id="REP004",
    category="durability",
)
def check_close_discipline(ctx: FileContext) -> Iterator[Finding]:
    """Constructed engines/stores/caches must be closed in a
    ``finally:`` or context manager, or ownership must transfer."""
    for node in ast.walk(ctx.tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        facts = _FunctionFacts()
        for stmt in node.body:
            facts.visit(stmt)
        parents = _parents(node)
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            if id(inner) not in parents:
                continue  # inside a nested scope
            cls = _constructed_class(inner)
            if cls is None:
                continue
            kind, name = _binding_target(inner, parents)
            if kind in {"with", "return", "attr", "sink"}:
                continue
            if kind == "name" and name is not None:
                if (
                    name in facts.with_roots
                    or name in facts.finally_released
                    or name in facts.returned_names
                    or name in facts.sink_args
                ):
                    continue
            yield ctx.finding(
                check_close_discipline,
                inner,
                f"{cls} constructed in {node.name}() but never "
                f"closed — use 'with closing(...)', close it in a "
                f"finally: block, or return it to transfer "
                f"ownership (leaked connections lose "
                f"interrupted-run durability)",
            )
