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
        # id(arch) -> (arch, its event table). Designs cost every
        # workload against the same long-lived spec instance; holding
        # a strong reference to the spec keeps its id() from being
        # reused for another one.
        self._event_tables: Dict[
            int, Tuple[ArchitectureSpec, "EventEnergies"]
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
        key = (self._key(component), action)
        if key not in self._energy_cache:
            self._energy_cache[key] = self._plugin_for(component).energy_pj(
                component, action
            )
        return self._energy_cache[key]

    def event_energies(self, arch: ArchitectureSpec) -> "EventEnergies":
        """``arch``'s ``(component name, action) -> pJ`` table, one per
        architecture instance and estimator: an activity fold prices
        each event with one dict lookup (see :class:`EventEnergies`)."""
        hit = self._event_tables.get(id(arch))
        if hit is not None and hit[0] is arch:
            return hit[1]
        table = EventEnergies(self, arch)
        self._event_tables[id(arch)] = (arch, table)
        return table

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


class EventEnergies(dict):
    """Per-action energy of one architecture's events, keyed by
    ``(component name, action)`` and resolved on first use through
    :meth:`Estimator.energy_pj`. An event on a component the
    architecture lacks raises :class:`~repro.errors.ArchitectureError`
    on every lookup: only resolved events are stored."""

    def __init__(self, estimator: Estimator, arch: ArchitectureSpec) -> None:
        super().__init__()
        self._estimator = estimator
        self._arch = arch

    def __missing__(self, event: Tuple[str, str]) -> float:
        name, action = event
        energy = self._estimator.energy_pj(self._arch.component(name), action)
        self[event] = energy
        return energy
