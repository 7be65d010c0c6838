"""Component activity counts: the bridge from dataflow to energy.

A design evaluation produces an :class:`ActivityCounts`: how many times
each (component, action) pair fires. Combined with the Accelergy-style
estimator this yields total energy and the per-component breakdown of
Fig. 16(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.arch.spec import ArchitectureSpec
from repro.energy.estimator import Estimator
from repro.errors import ModelError

Event = Tuple[str, str]  # (component name, action)


@dataclass
class ActivityCounts:
    """Mutable accumulator of (component, action) firing counts."""

    counts: Dict[Event, float] = field(default_factory=dict)

    def add(self, component: str, action: str, count: float) -> None:
        """Accumulate ``count`` firings of ``action`` on ``component``.

        NaN/inf counts are rejected loudly: a NaN passes every ordering
        comparison and would otherwise propagate silently into cached
        Metrics, poisoning the persistent cache.
        """
        if not 0.0 < count < math.inf:
            # Off the hot path: zero (either sign) is a no-op, and NaN
            # fails every comparison, so it lands here too.
            if count == 0:
                return
            if not math.isfinite(count):
                raise ModelError(
                    f"non-finite count for {component}.{action}: {count}"
                )
            raise ModelError(
                f"negative count for {component}.{action}: {count}"
            )
        key = (component, action)
        self.counts[key] = self.counts.get(key, 0.0) + count

    def total(self, component: str) -> float:
        """Total firings across all actions of one component."""
        return sum(
            count
            for (name, _), count in self.counts.items()
            if name == component
        )

    def energy_pj(
        self, arch: ArchitectureSpec, estimator: Estimator
    ) -> Dict[str, float]:
        """Per-component energy in pJ.

        Raises if an event references a component the architecture does
        not have — catching dataflow/architecture mismatches early.
        """
        per_event = estimator.event_energies(arch)
        energy: Dict[str, float] = {}
        for event, count in self.counts.items():
            name = event[0]
            energy[name] = energy.get(name, 0.0) + per_event[event] * count
        return energy
