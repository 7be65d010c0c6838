"""The decorator-registered rule registry.

Mirrors the repo's other registries (``DesignRegistry``,
``ArtifactRegistry``): a :func:`rule` decorator attaches metadata —
id, human name, category, optional path scoping — to a check function
and registers it.  A duplicate or malformed id raises
:class:`~repro.errors.LintError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.errors import LintError, LintUsageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.context import FileContext
    from repro.analysis.findings import Finding

#: A rule's per-file check: yields findings for one parsed file.
CheckFn = Callable[["FileContext"], Iterable["Finding"]]
#: A rule's optional whole-run pass, called once after every file:
#: receives the run-shared state dict rules stashed data into.
FinishFn = Callable[[Dict[str, Any]], Iterable["Finding"]]

_RULE_ID_RE = re.compile(r"^[A-Z][A-Z0-9]{2,15}$")


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule: metadata plus its check callable(s)."""

    id: str
    name: str
    category: str
    check: CheckFn
    #: fnmatch patterns limiting which files the rule sees; empty
    #: means every linted file.
    paths: Tuple[str, ...] = ()
    finish: Optional[FinishFn] = None


class RuleRegistry:
    """Rules keyed by id; registering a taken id raises."""

    def __init__(self) -> None:
        self._rules: Dict[str, RuleInfo] = {}

    def register(self, info: RuleInfo) -> RuleInfo:
        if not _RULE_ID_RE.match(info.id):
            raise LintError(
                f"rule id {info.id!r} must be 3-16 chars of "
                f"[A-Z0-9] starting with a letter (e.g. REP001)"
            )
        incumbent = self._rules.get(info.id)
        if incumbent is not None:
            raise LintError(
                f"rule id {info.id!r} is already registered "
                f"(as {incumbent.name!r})"
            )
        self._rules[info.id] = info
        return info

    def resolve(self, key: str) -> RuleInfo:
        """Look a rule up by id (``REP001``) or name
        (``lock-discipline``)."""
        info = self._rules.get(key)
        if info is not None:
            return info
        for candidate in self._rules.values():
            if candidate.name == key:
                return candidate
        raise LintUsageError(
            f"unknown rule {key!r}; known: "
            + ", ".join(
                f"{info.id} ({info.name})" for info in self.infos()
            )
        )

    def infos(self) -> List[RuleInfo]:
        return sorted(self._rules.values(), key=lambda info: info.id)

    def ids(self) -> List[str]:
        return sorted(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules


#: The process-wide registry builtin rules register into on import.
RULES = RuleRegistry()


def rule(
    name: str,
    *,
    id: str,
    category: str,
    paths: Iterable[str] = (),
    finish: Optional[FinishFn] = None,
    registry: Optional[RuleRegistry] = None,
) -> Callable[[CheckFn], RuleInfo]:
    """Register a lint rule: ``@rule("lock-discipline", id="REP001",
    category="concurrency")`` above its check function.

    The check receives a :class:`~repro.analysis.context.FileContext`
    and yields findings; ``ctx.finding(...)`` builds them with the
    location filled in.  The runner drops findings an inline
    ``# repro-lint: ignore[...]`` comment covers.  The decorator
    returns the :class:`RuleInfo`, so the module-level name is the
    registered spec, not the bare function.
    """

    def decorate(check: CheckFn) -> RuleInfo:
        info = RuleInfo(
            id=id,
            name=name,
            category=category,
            check=check,
            paths=tuple(paths),
            finish=finish,
        )
        target = RULES if registry is None else registry
        return target.register(info)

    return decorate
