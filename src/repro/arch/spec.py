"""Whole-architecture specification: an ordered memory/compute hierarchy."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from repro.arch.components import Component
from repro.errors import ArchitectureError


@dataclass(frozen=True)
class ArchitectureSpec:
    """An accelerator architecture: named components plus key shape facts.

    ``spatial_rows`` x ``spatial_cols`` describes the logical MAC grid
    used for spatial reuse accounting (rows share operand-B broadcasts,
    columns spatially accumulate partial sums, as in Fig. 10's PE rows).
    """

    name: str
    components: Tuple[Component, ...]
    num_macs: int
    spatial_rows: int
    spatial_cols: int

    def __post_init__(self) -> None:
        if self.num_macs <= 0:
            raise ArchitectureError("num_macs must be positive")
        if self.spatial_rows * self.spatial_cols != self.num_macs:
            raise ArchitectureError(
                f"{self.name}: spatial grid "
                f"{self.spatial_rows}x{self.spatial_cols} does not equal "
                f"num_macs={self.num_macs}"
            )
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ArchitectureError(f"duplicate component names in {names}")

    @cached_property
    def _by_name(self) -> Dict[str, Component]:
        return {component.name: component for component in self.components}

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        component = self._by_name.get(name)
        if component is None:
            raise ArchitectureError(
                f"{self.name} has no component {name!r}; "
                f"has {[c.name for c in self.components]}"
            )
        return component

    def has_component(self, name: str) -> bool:
        return name in self._by_name

    def components_by_class(self) -> Dict[str, List[Component]]:
        """Group components by their class value (for reporting)."""
        groups: Dict[str, List[Component]] = {}
        for component in self.components:
            groups.setdefault(component.component_class.value, []).append(
                component
            )
        return groups
