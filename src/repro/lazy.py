"""Package ``__init__``s whose public names load on first access.

A package that re-exports names from its submodules would otherwise
import every submodule, and everything those import, the moment any
one of them is needed: ``repro list`` paid for numpy because
``repro.sparsity`` re-exported ``sparsify``. :func:`lazy_exports`
builds the PEP 562 ``__getattr__``/``__dir__`` pair that defers each
import to the first access of a name that needs it::

    if TYPE_CHECKING:  # what mypy and IDEs read
        from repro.sparsity.hss import HSSPattern

    __getattr__, __dir__ = lazy_exports(
        __name__, {"hss": ("HSSPattern",)}
    )

``__all__`` stays a literal list, so ``from package import *``
resolves every name through ``__getattr__``.

The registries defer the same way: an artifact's compute function or a
design's class is named by a ``"module:attr"`` :data:`Ref` and
resolved by :class:`Resolving` on first use, so listing a registry
imports none of the code it names.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

#: An object, or the ``"module:attr"`` that names it.
Ref = Union[str, Any]


def resolve(ref: Ref) -> Any:
    """The object ``ref`` names (``ref`` itself unless a string)."""
    if not isinstance(ref, str):
        return ref
    module, _, attr = ref.partition(":")
    return getattr(importlib.import_module(module), attr)


class Resolving:
    """Resolves each attribute named in ``_RESOLVED`` from the
    reference field it maps to, on first access, and keeps it.

    :meth:`_check_resolved` sees each resolved value before it is
    kept; a subclass overrides it to reject a wrong one.
    """

    _RESOLVED: ClassVar[Dict[str, str]] = {}

    def __getattr__(self, attr: str) -> Any:
        # Reached only while ``attr`` is unset on the instance.
        ref = self._RESOLVED.get(attr)
        if ref is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{attr!r}"
            )
        value = resolve(getattr(self, ref))
        self._check_resolved(attr, value)
        object.__setattr__(self, attr, value)
        return value

    def _check_resolved(self, attr: str, value: Any) -> None:
        """Raise if ``value`` may not serve as ``attr``."""


class _SubmoduleShadowGuard(ModuleType):
    """A package that re-exports a function under the name of the
    submodule defining it (``repro.sparsity.sparsify``).

    The import system binds every loaded submodule on its parent
    package, so importing ``repro.sparsity.sparsify`` from anywhere
    would replace the re-exported function with the module. An eager
    ``from .sparsify import sparsify`` rebinds it right after; this
    guard does the same on the binding itself.
    """

    __shadowed__: Dict[str, str]

    def __setattr__(self, name: str, value: Any) -> None:
        if (
            isinstance(value, ModuleType)
            and self.__shadowed__.get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a submodule name, relative to ``package``, to the
    names it defines that the package re-exports; ``submodules`` names
    submodules the package exports as themselves. A resolved name is
    stored on the package, so each costs one lookup.
    """
    origin: Dict[str, str] = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }
    origin.update((name, f"{package}.{name}") for name in submodules)
    shadowed = {
        name: source
        for name, source in origin.items()
        if name not in submodules and source == f"{package}.{name}"
    }
    if shadowed:
        module = sys.modules[package]
        module.__shadowed__ = shadowed
        module.__class__ = _SubmoduleShadowGuard

    def __getattr__(name: str) -> Any:
        source = origin.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        loaded = importlib.import_module(source)
        value = loaded if name in submodules else getattr(loaded, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
