"""Workload realization and cell evaluation (paper Sec. 7.1 rules).

The synthetic evaluation sweeps *sparsity degrees*; each design then
processes those degrees in the pattern flavor it supports and may swap
operands to report the better orientation (Sec. 7.1.1). The rule lives
on the design (:meth:`~repro.accelerators.base.AcceleratorDesign
.realize`, built from :mod:`repro.accelerators.realization`); this
module turns its shape-free candidates into labeled workloads for one
(sparsity_A, sparsity_B, shape) point and evaluates the best.
"""

from __future__ import annotations

from typing import List, Optional

from repro.accelerators import REGISTRY
from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.realization import CANONICAL_HSS, canonical_hss
from repro.energy.estimator import Estimator
from repro.errors import UnsupportedWorkloadError
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload

__all__ = [
    "CANONICAL_HSS",
    "best_metrics",
    "canonical_hss",
    "design_workloads",
    "evaluate_cell",
    "evaluate_workload",
    "realize_workloads",
    "workload_for_layer",
]


def design_workloads(
    design: AcceleratorDesign,
    sparsity_a: float,
    sparsity_b: float,
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
) -> List[MatmulWorkload]:
    """``design.realize``'s candidates as labeled workloads of one
    (M, K, N) point: ``A0.5/B0.3`` for the given orientation, with a
    ``^T`` suffix (and the transposed N x K x M shape) for a swap."""
    label = f"A{sparsity_a:.4g}/B{sparsity_b:.4g}"
    return [
        MatmulWorkload(m=n, k=k, n=m, a=a, b=b, name=label + "^T")
        if swapped
        else MatmulWorkload(m=m, k=k, n=n, a=a, b=b, name=label)
        for a, b, swapped in design.realize(sparsity_a, sparsity_b)
    ]


def realize_workloads(
    design_name: str,
    sparsity_a: float,
    sparsity_b: float,
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
) -> List[MatmulWorkload]:
    """All candidate realizations (both orientations) for the registered
    design ``design_name``, labeled (see :func:`design_workloads`).

    Each design receives each operand's sparsity degree in its native
    structure: unstructured for DSTC; 2:4-compatible HSS for STC; G:8
    for S2TA; two-rank HSS (weights) plus unstructured (activations)
    for HighLight and DSSO. Dense TC ignores sparsity entirely. The
    operands are interned by their constructors, so equal realizations
    share instances across designs and cells.
    """
    if design_name not in REGISTRY:
        raise UnsupportedWorkloadError(f"unknown design {design_name!r}")
    return design_workloads(
        REGISTRY.shared(design_name), sparsity_a, sparsity_b, m, k, n
    )


def evaluate_workload(
    design: AcceleratorDesign,
    workload: MatmulWorkload,
    estimator: Estimator,
) -> Optional[Metrics]:
    """Metrics for one (design, workload) pair as given — no operand
    swap, no candidate selection — or ``None`` when the design cannot
    process the workload. This is the engine's unit of memoization."""
    if not design.supports(workload):
        return None
    return design.evaluate(workload, estimator)


def best_metrics(
    candidates: "List[Optional[Metrics]]",
) -> Optional[Metrics]:
    """The paper's selection rule over a cell's candidate realizations:
    lowest EDP wins, first candidate wins ties, all-unsupported is
    ``None``."""
    best: Optional[Metrics] = None
    for metrics in candidates:
        if metrics is None:
            continue
        if best is None or metrics.edp < best.edp:
            best = metrics
    return best


def evaluate_cell(
    design: AcceleratorDesign,
    sparsity_a: float,
    sparsity_b: float,
    estimator: Estimator,
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
) -> Optional[Metrics]:
    """Best-EDP metrics for one (degree_A, degree_B) cell, or ``None``
    when the design supports no realization (S2TA on dense-dense)."""
    return best_metrics(
        [
            evaluate_workload(design, workload, estimator)
            for workload in design_workloads(
                design, sparsity_a, sparsity_b, m, k, n
            )
        ]
    )


def workload_for_layer(
    design_name: str,
    gemm_shape,
    weight_sparsity: float,
    activation_sparsity: float,
) -> List[MatmulWorkload]:
    """Candidate realizations for a DNN layer.

    ``gemm_shape`` is (M, K, N) with weights as operand A and (Toeplitz-
    expanded) activations as operand B.
    """
    m, k, n = gemm_shape
    return realize_workloads(
        design_name, weight_sparsity, activation_sparsity, m=m, k=k, n=n
    )
