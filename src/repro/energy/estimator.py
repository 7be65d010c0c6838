"""The :class:`Estimator`: routes energy/area queries to plug-ins."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.arch.components import Component, ComponentClass
from repro.arch.spec import ArchitectureSpec
from repro.energy.plugins import EstimationPlugin, default_plugins
from repro.energy.tables import EnergyAreaTable, default_table
from repro.errors import ArchitectureError


#: The default table/plug-in stack, built once and shared by every
#: default-constructed Estimator. The table is frozen and the shipped
#: plug-ins are stateless calculators, so sharing is safe — and it
#: makes the default configuration *identity*-comparable (the cache
#: fingerprint memoizes on it).
_DEFAULT_SETUP: Optional[
    Tuple[EnergyAreaTable, Tuple[EstimationPlugin, ...]]
] = None


def _default_setup() -> Tuple[
    EnergyAreaTable, Tuple[EstimationPlugin, ...]
]:
    global _DEFAULT_SETUP
    if _DEFAULT_SETUP is None:
        table = default_table()
        _DEFAULT_SETUP = (table, tuple(default_plugins(table)))
    return _DEFAULT_SETUP


class Estimator:
    """Accelergy-like front end: per-action energy and per-component area.

    Queries are cached; all designs in an experiment should share one
    estimator so they are costed from identical technology assumptions.
    """

    def __init__(
        self,
        table: Optional[EnergyAreaTable] = None,
        plugins: Optional[Sequence[EstimationPlugin]] = None,
    ) -> None:
        if table is None and plugins is None:
            self.table, shared = _default_setup()
            self._plugins = list(shared)
        else:
            self.table = table or default_table()
            self._plugins = (
                list(plugins)
                if plugins is not None
                else default_plugins(self.table)
            )
        self._energy_cache: Dict[Tuple, float] = {}
        self._area_cache: Dict[Tuple, float] = {}
        self._plugin_cache: Dict[ComponentClass, EstimationPlugin] = {}
        # Identity-level energy memo. Building the content key (sorted
        # attribute tuples) dominates a cached energy_pj call, and the
        # hot callers query the same long-lived spec instances over and
        # over; keeping a strong reference to the component makes the
        # id() stable (ids are only reused after collection).
        self._energy_by_identity: Dict[
            Tuple[int, str], Tuple[Component, float]
        ] = {}

    @staticmethod
    def _key(component: Component) -> Tuple:
        """Content-based cache key (never identity: ids get reused)."""
        return (
            component.name,
            component.component_class,
            component.count,
            tuple(sorted(component.attributes.items())),
        )

    def _plugin_for(self, component: Component) -> EstimationPlugin:
        """The first plug-in supporting the component's class, resolved
        once per class (the linear scan used to run on every cache
        miss)."""
        component_class = component.component_class
        plugin = self._plugin_cache.get(component_class)
        if plugin is None:
            for candidate in self._plugins:
                if candidate.supports(component_class):
                    plugin = candidate
                    break
            else:
                raise ArchitectureError(
                    f"no plug-in supports component class "
                    f"{component_class.value!r}"
                )
            self._plugin_cache[component_class] = plugin
        return plugin

    def energy_pj(self, component: Component, action: str) -> float:
        """Energy of one ``action`` on one instance of ``component``."""
        ident = (id(component), action)
        hit = self._energy_by_identity.get(ident)
        if hit is not None and hit[0] is component:
            return hit[1]
        key = (self._key(component), action)
        if key not in self._energy_cache:
            self._energy_cache[key] = self._plugin_for(component).energy_pj(
                component, action
            )
        energy = self._energy_cache[key]
        self._energy_by_identity[ident] = (component, energy)
        return energy

    def area_um2(self, component: Component) -> float:
        """Total area of the component group (per-instance area x count)."""
        key = self._key(component)
        if key not in self._area_cache:
            per_instance = self._plugin_for(component).area_um2(component)
            self._area_cache[key] = per_instance * component.count
        return self._area_cache[key]

    def architecture_area_um2(self, arch: ArchitectureSpec) -> float:
        """Total area of all components in an architecture."""
        return sum(self.area_um2(c) for c in arch.components)
