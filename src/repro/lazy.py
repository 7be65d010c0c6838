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
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


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
