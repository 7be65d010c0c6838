"""The accelerator-design interface and the operand-swap harness rule."""

from __future__ import annotations

import abc
from typing import Tuple

from repro.accelerators.realization import Candidate
from repro.arch.designs import DesignResources
from repro.energy.estimator import Estimator
from repro.errors import UnsupportedWorkloadError
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload


class AcceleratorDesign(abc.ABC):
    """One evaluated design: resources plus an analytical cost model."""

    #: Short name used in tables/figures.
    name: str

    def __init__(self, resources: DesignResources) -> None:
        self.resources = resources

    @abc.abstractmethod
    def supports(self, workload: MatmulWorkload) -> bool:
        """Whether the design can process this workload *as given*
        (before any operand swap) and produce functionally correct
        results."""

    @abc.abstractmethod
    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        """Cost the workload as given (no operand swap)."""

    def realize(
        self, sparsity_a: float, sparsity_b: float
    ) -> Tuple[Candidate, ...]:
        """The design's shape-free candidate realizations of one
        (degree_A, degree_B) cell (Sec. 7.1.1): each degree in the
        design's native pattern, in every orientation worth trying.
        The harness and the sweep engine cost every candidate and keep
        the best. Designs without a synthetic-sweep rule raise
        :class:`~repro.errors.UnsupportedWorkloadError`."""
        raise UnsupportedWorkloadError(
            f"design {self.name!r} defines no degree realization"
        )

    @property
    def supported_patterns(self) -> str:
        """Human-readable Table 3 row: patterns per operand."""
        return "A: dense; B: dense"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def best_orientation(
    design: AcceleratorDesign,
    workload: MatmulWorkload,
    estimator: Estimator,
    allow_swap: bool = True,
) -> Metrics:
    """Evaluate a design with the paper's operand-swap rule.

    Matrix-multiplication accelerators treat operands interchangeably,
    so the harness tries both orientations and reports the better EDP
    (Sec. 7.1.1). Raises :class:`UnsupportedWorkloadError` when neither
    orientation is supported.
    """
    candidates = []
    if design.supports(workload):
        candidates.append(design.evaluate(workload, estimator))
    if allow_swap:
        swapped = workload.swapped()
        if design.supports(swapped):
            metrics = design.evaluate(swapped, estimator)
            candidates.append(
                _mark_swapped(metrics)
            )
    if not candidates:
        raise UnsupportedWorkloadError(
            f"{design.name} supports neither orientation of "
            f"{workload.describe()}"
        )
    return min(candidates, key=lambda metrics: metrics.edp)


def _mark_swapped(metrics: Metrics) -> Metrics:
    from dataclasses import replace

    return replace(metrics, swapped=True)
