"""REP007 import-budget: startup code imports no heavy layer.

``repro/__init__`` and ``cli.py`` run in every ``repro`` process, and
a package ``__init__`` runs whenever anything below it is imported.
The spec parser (``sparsity/spec.py`` and ``sparsity/library.py``)
runs in every paper-artifact run and every served ``tables`` request.
A module-level import there of numpy (~120 ms), the fibertree (which
loads numpy), asyncio, the serve subsystem or the linter makes every
such command pay for it, including ``repro list``, ``repro sweep`` and
``repro all``, which use none of them.  Such imports go inside the
function that needs them, or under ``if TYPE_CHECKING:`` when only
annotations need the name.  A package's own ``__init__`` may import
its own subtree (``repro/serve/__init__`` may import
``repro.serve.server``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.context import FileContext, attr_chain
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: Modules startup code must not import at module level.
HEAVY_MODULES: Tuple[str, ...] = (
    "numpy",
    "repro.fibertree",
    "asyncio",
    "repro.serve",
    "repro.analysis",
)


def _within(module: str, root: str) -> bool:
    return module == root or module.startswith(root + ".")


def _package_of(ctx: FileContext) -> str:
    """The dotted package the file belongs to (the one an
    ``__init__.py`` defines), read off the package directories above
    it."""
    parts: List[str] = []
    directory = ctx.path.resolve().parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    return ".".join(reversed(parts))


def _imported(node: ast.stmt, package: str) -> List[str]:
    """Every module ``node`` may load; ``from M import n`` may load
    ``M.n`` as well as ``M``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        anchor = package.split(".") if package else []
        anchor = anchor[: len(anchor) - (node.level - 1)]
        base = ".".join(anchor + ([base] if base else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _is_type_checking(test: ast.expr) -> bool:
    chain = attr_chain(test)
    return bool(chain) and chain[-1] == "TYPE_CHECKING"


def _import_time_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that run when the module is imported: the module
    body and its compound statements, minus function bodies and
    ``if TYPE_CHECKING:`` branches."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
            yield from _import_time_statements(stmt.orelse)
            continue
        for name in ("body", "orelse", "finalbody"):
            yield from _import_time_statements(getattr(stmt, name, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _import_time_statements(handler.body)


def _heavy(module: str, package: str) -> Optional[str]:
    for root in HEAVY_MODULES:
        if _within(module, root) and not _within(package, root):
            return root
    return None


@rule(
    "import-budget",
    id="REP007",
    category="startup",
    paths=(
        "*repro/cli.py", "__init__.py", "*/__init__.py",
        "*repro/sparsity/spec.py", "*repro/sparsity/library.py",
    ),
)
def check_import_budget(ctx: FileContext) -> Iterator[Finding]:
    """``cli.py``, package ``__init__``s and the spec parser import
    numpy, ``repro.fibertree``, asyncio, ``repro.serve`` and
    ``repro.analysis`` only inside functions or under
    ``if TYPE_CHECKING:``."""
    package = _package_of(ctx)
    for stmt in _import_time_statements(ctx.tree.body):
        heavy = [
            root for module in _imported(stmt, package)
            if (root := _heavy(module, package)) is not None
        ]
        if not heavy:
            continue
        yield ctx.finding(
            check_import_budget,
            stmt,
            f"module-level import of {heavy[0]} in startup code: every "
            f"command importing this module pays for it — import it "
            f"inside the function that needs it, or under "
            f"'if TYPE_CHECKING:' for annotations",
        )
