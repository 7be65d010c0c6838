"""The design registry: names -> design classes plus queryable metadata.

Designs register as data: one :func:`register_design` call per design
names it, gives the ``"module:attr"`` reference of its class, and
attaches free-form metadata — category, sparsity side, Table 4
position, whether it belongs to the paper's main evaluation. The
paper's six designs are one table of such calls in
:mod:`repro.accelerators`. A design's class is resolved on its first
:meth:`DesignInfo.create`, so reading names and metadata (``repro
list``, name validation) imports no cost model. Everything downstream
(the sweep engine, the CLI, ``all_designs()``) looks designs up by
name or metadata instead of hard-coding constructors, so adding a
design is one class plus one table row, not edits across the
evaluation stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import ReproError
from repro.lazy import Ref, Resolving

if TYPE_CHECKING:  # pragma: no cover
    from repro.accelerators.base import AcceleratorDesign


class RegistryError(ReproError):
    """An invalid registry operation (e.g. duplicate registration)."""


@dataclass(frozen=True)
class DesignInfo(Resolving):
    """One registered design: its name, factory and metadata.

    ``factory`` (the design class, or any zero-argument callable that
    builds the design) resolves from ``factory_ref`` on the first
    :meth:`create`. A factory whose ``name`` attribute differs from
    the registered name raises :class:`RegistryError`: every sweep
    keys its cells on the registered name, and the design reports its
    own.
    """

    _RESOLVED: ClassVar[Dict[str, str]] = {"factory": "factory_ref"}

    name: str
    factory_ref: Ref
    metadata: Dict[str, Any] = field(default_factory=dict)

    def create(self) -> AcceleratorDesign:
        return self.factory()

    def matches(self, **filters: Any) -> bool:
        """Whether every ``key=value`` filter equals this design's
        metadata entry (missing keys never match).

        A bool filter matches only a bool value, and the reverse:
        ``True == 1`` in Python, but ``table4_order=true`` names no
        Table 4 position.
        """
        return all(
            _same_value(self.metadata.get(key, _MISSING), value)
            for key, value in filters.items()
        )

    def _check_resolved(self, attr: str, value: Any) -> None:
        claimed = getattr(value, "name", self.name)
        if claimed != self.name:
            raise RegistryError(
                f"design registered as {self.name!r} resolves to "
                f"{self.factory_ref!r}, which is named {claimed!r}"
            )


def _same_value(actual: Any, wanted: Any) -> bool:
    return (
        isinstance(actual, bool) == isinstance(wanted, bool)
        and actual == wanted
    )


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()


class DesignRegistry:
    """An ordered name -> :class:`DesignInfo` mapping."""

    def __init__(self) -> None:
        self._designs: Dict[str, DesignInfo] = {}
        self._shared: Dict[str, AcceleratorDesign] = {}

    def register(self, name: str, factory: Ref,
                 **metadata: Any) -> DesignInfo:
        """Register ``factory`` (an object or a ``"module:attr"``
        reference) under ``name``.

        Raises :class:`RegistryError` on duplicate names: two designs
        silently sharing a name would corrupt every sweep keyed on it.
        """
        if name in self._designs:
            raise RegistryError(f"design already registered: {name!r}")
        info = DesignInfo(
            name=name, factory_ref=factory, metadata=dict(metadata)
        )
        self._designs[name] = info
        return info

    def __getitem__(self, name: str) -> DesignInfo:
        try:
            return self._designs[name]
        except KeyError:
            raise KeyError(
                f"unknown design {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def get(self, name: str) -> Optional[DesignInfo]:
        return self._designs.get(name)

    def create(self, name: str) -> AcceleratorDesign:
        """A fresh instance of the named design."""
        return self[name].create()

    def shared(self, name: str) -> AcceleratorDesign:
        """A memoized instance of the named design.

        Designs are stateless after construction (an arch spec plus
        pure cost methods), so callers that only *evaluate* — engines,
        sweeps — can share one instance instead of rebuilding the arch
        spec per engine. Callers that mutate an instance must use
        :meth:`create`.
        """
        instance = self._shared.get(name)
        if instance is None:
            instance = self._shared[name] = self.create(name)
        return instance

    def names(self) -> Tuple[str, ...]:
        return tuple(self._designs)

    def filter(self, **filters: Any) -> List[DesignInfo]:
        """All designs whose metadata matches every ``key=value``."""
        return [
            info for info in self._designs.values() if info.matches(**filters)
        ]

    def __contains__(self, name: object) -> bool:
        return name in self._designs

    def __iter__(self) -> Iterator[DesignInfo]:
        return iter(self._designs.values())

    def __len__(self) -> int:
        return len(self._designs)


#: The process-wide registry the evaluation stack resolves names against.
REGISTRY = DesignRegistry()


def register_design(
    name: str,
    factory: Ref,
    registry: Optional[DesignRegistry] = None,
    **metadata: Any,
) -> DesignInfo:
    """Register the named design; ``factory`` is its class (or any
    zero-argument callable building it), or the ``"module:attr"``
    reference that names it, resolved on the first ``create()``.

    ::

        register_design(
            "TC", "repro.accelerators.tc:TC",
            category="dense", sparsity_side="none",
            table4_order=0, main_evaluation=True,
        )
    """
    target = registry if registry is not None else REGISTRY
    return target.register(name, factory, **metadata)
