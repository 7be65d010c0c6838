"""REP005 registry-hygiene: registrations carry required metadata.

The design/artifact registries are queryable (``repro list
--filter KEY=VALUE``), which only works when every registration
passes the metadata the filters key on: ``register_design(...)``
needs ``category`` and ``sparsity_side``, ``register_artifact(...)``
needs a non-empty ``title`` (the streaming UI prints it).  The rule also tracks the registered names (each
call's first positional argument) across the whole run and flags
duplicates — a copy-pasted table row would otherwise only fail at
import time, when the registry raises on the collision.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis.context import FileContext, attr_chain
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

_STATE_KEY = "REP005"
#: registration function -> keywords every call site must pass.
_REQUIRED_KEYWORDS = {
    "register_design": ("category", "sparsity_side"),
    "register_artifact": ("title",),
}


def _registration_call(node: ast.expr) -> Optional[Tuple[str, ast.Call]]:
    if not isinstance(node, ast.Call):
        return None
    chain = attr_chain(node.func)
    if chain and chain[-1] in _REQUIRED_KEYWORDS:
        return chain[-1], node
    return None


def _registered_name(call: ast.Call) -> Optional[Tuple[str, ast.AST]]:
    """The name this registration claims, and its anchor node."""
    if call.args and isinstance(call.args[0], ast.Constant):
        return str(call.args[0].value), call.args[0]
    return None


@rule(
    "registry-hygiene",
    id="REP005",
    category="registries",
    finish=lambda shared: _finish(shared),
)
def check_registry_hygiene(ctx: FileContext) -> Iterator[Finding]:
    """Registrations must pass required metadata; registered names
    must be unique across the linted set."""
    names = ctx.shared.setdefault(_STATE_KEY, {})
    for node in ast.walk(ctx.tree):
        # A table row: register_design(...) or register_artifact(...).
        if not isinstance(node, ast.Expr):
            continue
        resolved = _registration_call(node.value)
        if resolved is None:
            continue
        kind, call = resolved
        subject = f"{kind}(...)"
        keywords = {kw.arg for kw in call.keywords if kw.arg}
        missing = [
            key
            for key in _REQUIRED_KEYWORDS[kind]
            if key not in keywords
        ]
        if missing:
            yield ctx.finding(
                check_registry_hygiene,
                call,
                f"{subject} is missing required "
                f"metadata: {', '.join(missing)} (repro list "
                f"--filter and the run UI key on it)",
            )
        for kw in call.keywords:
            if (
                kw.arg in _REQUIRED_KEYWORDS[kind]
                and isinstance(kw.value, ast.Constant)
                and kw.value.value in ("", None)
            ):
                yield ctx.finding(
                    check_registry_hygiene,
                    kw.value,
                    f"{subject} passes empty {kw.arg!r}",
                )
        claimed = _registered_name(call)
        if claimed is not None:
            name, anchor = claimed
            key = "design" if kind == "register_design" else "artifact"
            names.setdefault((key, name), []).append(
                _pending_duplicate(ctx, anchor, key, name)
            )


def _pending_duplicate(
    ctx: FileContext, anchor: ast.AST, kind: str, name: str
) -> Finding:
    return ctx.finding(
        check_registry_hygiene,
        anchor,
        f"duplicate {kind} registration for name {name!r} — "
        f"registries raise on colliding names",
    )


def _finish(shared: Dict[str, Any]) -> Iterator[Finding]:
    names: Dict[Tuple[str, str], List[Finding]] = shared.get(
        _STATE_KEY, {}
    )
    for registrations in names.values():
        if len(registrations) < 2:
            continue
        # The first registration is the legitimate one; every later
        # claimant is flagged.
        yield from registrations[1:]
