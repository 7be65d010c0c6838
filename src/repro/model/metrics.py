"""Evaluation metrics: energy, latency, EDP, ED^2 and normalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import ModelError
from repro.utils import geomean

#: The geomean-able sweep metrics (Fig. 14's bars, run-record
#: geomeans, payloads, and the CLI's --metric choices).
GEOMEAN_METRICS: Tuple[str, ...] = ("edp", "energy_pj", "cycles", "ed2")


class _derived:
    """A value computed from the instance on first read and then stored
    in its ``__dict__``, where later reads find it directly.
    ``functools.cached_property`` does the same, but before Python 3.12
    it takes a lock on every first read, and sweeps build and read
    thousands of Metrics."""

    def __init__(self, compute: Callable[[Any], float]) -> None:
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: Any = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class Metrics:
    """The outcome of evaluating one design on one workload."""

    design: str
    workload: str
    cycles: float
    energy_breakdown_pj: Dict[str, float] = field(default_factory=dict)
    utilization: float = 1.0
    #: Whether the design natively supports the workload's sparsity
    #: (False => it ran in a degraded/dense fallback mode).
    supported: bool = True
    #: Always False today: no code path sets it, so every payload and
    #: run record reads ``swapped: false`` even when a design's swapped
    #: candidate won. The cached pair metrics are orientation-free
    #: (one entry serves every cell that realizes that key), so the
    #: winning orientation belongs to the cell, not to these metrics.
    swapped: bool = False

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ModelError(f"cycles must be positive, got {self.cycles}")
        if not 0.0 < self.utilization <= 1.0 + 1e-9:
            raise ModelError(
                f"utilization must be in (0, 1], got {self.utilization}"
            )

    # Stored on first read, not recomputed: selection rules (best-EDP
    # over candidates, per-layer folds) and the sweep geomeans re-read
    # these constantly, and the dataclass is frozen so the derived
    # values can never go stale.

    @_derived
    def energy_pj(self) -> float:
        """Total energy in picojoules."""
        return sum(self.energy_breakdown_pj.values())

    @_derived
    def edp(self) -> float:
        """Energy-delay product (pJ x cycles)."""
        return self.energy_pj * self.cycles

    @_derived
    def ed2(self) -> float:
        """Energy-delay-squared product (pJ x cycles^2)."""
        return self.energy_pj * self.cycles * self.cycles

    def breakdown_by_category(
        self, categories: Dict[str, str]
    ) -> Dict[str, float]:
        """Re-bucket the component energy breakdown.

        ``categories`` maps component names to bucket names; unmapped
        components land in ``"other"``.
        """
        out: Dict[str, float] = {}
        for component, energy in self.energy_breakdown_pj.items():
            bucket = categories.get(component, "other")
            out[bucket] = out.get(bucket, 0.0) + energy
        return out


def normalize(value: float, baseline: float) -> float:
    """``value / baseline`` with a guard against degenerate baselines."""
    if baseline <= 0:
        raise ModelError(f"baseline must be positive, got {baseline}")
    return value / baseline


def geomean_ratio(
    values: Sequence[Metrics],
    baselines: Sequence[Metrics],
    metric: str = "edp",
) -> float:
    """Geomean of per-workload baseline/design ratios (a gain factor).

    ``metric`` is one of ``"edp"``, ``"ed2"``, ``"energy_pj"``,
    ``"cycles"``. A result > 1 means ``values`` improves on
    ``baselines`` by that factor on geomean — the paper's "6.4x lower
    EDP" style of statement.
    """
    if len(values) != len(baselines):
        raise ModelError("values and baselines must align")
    ratios: List[float] = []
    for ours, base in zip(values, baselines):
        numerator = getattr(base, metric)
        denominator = getattr(ours, metric)
        ratios.append(normalize(numerator, denominator))
    return geomean(ratios)
