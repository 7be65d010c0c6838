"""REP003 float-determinism: no reductions over unordered iteration.

Cached metrics are replayed verbatim: a cache hit returns the exact
floats an earlier run computed, and the golden tests compare them with
fresh evaluations bit for bit.  That makes IEEE-754 addition order
part of the cache contract: ``sum`` over a ``set`` (or anything whose
iteration order is implementation-defined) can legally produce a
different last-ulp result between runs or Python versions.  In the
modules that fold activity counts into energy (``model/activity.py``,
``model/perf.py``, ``model/metrics.py``, ``energy/``) this rule flags
``sum``/``functools.reduce``/``np.sum``-family reductions whose
operand is a set literal/comprehension, a ``set()``/``frozenset()``
call, a set-algebra expression over ``dict.keys()`` views, a
``.keys()`` view itself, or a comprehension drawing from any of
those.  Fold over an explicitly ordered sequence (a list, a sorted
view, ``.values()`` in insertion order) instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.context import FileContext, attr_chain
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: Builtins whose result depends on operand order for floats.
_ORDER_SENSITIVE_BUILTINS = {"sum"}
#: numpy reductions routed through the same check.
_NUMPY_REDUCTIONS = {"sum", "nansum", "prod", "nanprod", "cumsum"}
_NUMPY_MODULES = {"np", "numpy"}


def _is_unordered(node: ast.expr) -> bool:
    """Whether iterating ``node`` has implementation-defined order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain and chain[-1] in {"set", "frozenset"}:
            return True
        # d.keys() views: insertion-ordered in CPython, but the rule
        # treats key views as "pin the order explicitly" territory —
        # they are one set-operation away from losing it.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        # Set algebra (| & ^ -) over keys()/sets yields sets.
        return _is_unordered(node.left) or _is_unordered(node.right)
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return any(
            _is_unordered(generator.iter)
            for generator in node.generators
        )
    return False


def _reduction_operand(node: ast.Call) -> Optional[ast.expr]:
    """The iterable a reduction call folds over, if this is one."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in _ORDER_SENSITIVE_BUILTINS and node.args:
            return node.args[0]
        if func.id == "reduce" and len(node.args) >= 2:
            return node.args[1]
        return None
    chain = attr_chain(func)
    if len(chain) == 2:
        module, name = chain
        if module in _NUMPY_MODULES and name in _NUMPY_REDUCTIONS:
            return node.args[0] if node.args else None
        if module == "functools" and name == "reduce":
            return node.args[1] if len(node.args) >= 2 else None
        if module == "math" and name == "fsum":
            # fsum is exactly rounded — order-independent by
            # construction, so it is the sanctioned escape hatch.
            return None
    return None


@rule(
    "float-determinism",
    id="REP003",
    category="bit-exactness",
    severity="error",
    paths=(
        "*model/activity.py",
        "*model/perf.py",
        "*model/metrics.py",
        "*energy/*.py",
    ),
)
def check_float_determinism(ctx: FileContext) -> Iterator[Finding]:
    """Hot-path reductions must fold in a pinned, reproducible
    order — never over set/keys-view iteration."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        operand = _reduction_operand(node)
        if operand is None or not _is_unordered(operand):
            continue
        finding = ctx.finding(
            check_float_determinism,
            node,
            "reduction folds over unordered iteration — IEEE-754 "
            "addition is not associative, so bit-identity (the "
            "golden-test contract) needs an explicitly ordered "
            "operand (sorted(...), a list, or math.fsum)",
        )
        if finding is not None:
            yield finding
