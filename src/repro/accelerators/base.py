"""The accelerator-design interface: support check, cost model, and
the design's Sec. 7.1.1 degree-realization rule."""

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
        The sweep engine costs every candidate and keeps the lowest
        EDP. Designs without a synthetic-sweep rule raise
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

