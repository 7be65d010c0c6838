"""Operand rules for realizing sparsity degrees (paper Sec. 7.1.1).

The synthetic evaluation sweeps *sparsity degrees*; each design then
processes those degrees in the pattern flavor it supports: HSS for STC
and HighLight ("the DNNs were structured pruned for STC and HighLight
and unstructured pruned for DSTC"), G:8 for S2TA (the Fig. 13 footnote:
"S2TA assumes both operands are structured") and unstructured for DSTC.
Every design's :meth:`~repro.accelerators.base.AcceleratorDesign.realize`
builds its candidates from the helpers here, which return interned
operands (:mod:`repro.model.workload`), so equal realizations share one
instance across designs and cells.

A candidate is shape-free: ``(A operand, B operand, swapped)``. A
swapped candidate runs the transposed product, so an (M, K, N) point
becomes an (N, K, M) workload with the operands exchanged.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

from repro.model.workload import (
    MEMO_SIZE,
    OperandSparsity,
    dense_operand,
    hss_operand,
    quantize_degree,
    structured_operand,
    unstructured_operand,
)
from repro.sparsity.hss import HSSPattern

#: One shape-free realization of a degree cell: (A operand, B operand,
#: swapped).
Candidate = Tuple[OperandSparsity, OperandSparsity, bool]

#: Canonical HighLight-supported HSS patterns per sparsity degree
#: (lowest rank first: C0 then C1).
CANONICAL_HSS = {
    0.0: None,
    0.5: HSSPattern.from_ratios((2, 4), (4, 4)),
    0.625: HSSPattern.from_ratios((2, 4), (3, 4)),
    0.75: HSSPattern.from_ratios((2, 4), (4, 8)),
}


def canonical_hss(sparsity: float) -> Optional[HSSPattern]:
    """The canonical HSS pattern for a degree, ``None`` for dense.

    Raises ``KeyError`` for degrees without a canonical pattern.
    """
    return CANONICAL_HSS[quantize_degree(sparsity)]


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def hss_or_unstructured(sparsity: float) -> OperandSparsity:
    """An HSS operand when a canonical pattern exists, else
    unstructured."""
    key = quantize_degree(sparsity)
    if key in CANONICAL_HSS:
        pattern = CANONICAL_HSS[key]
        return hss_operand(pattern) if pattern else dense_operand()
    return unstructured_operand(sparsity)


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def g8_operand(sparsity: float) -> OperandSparsity:
    """A one-rank G:8 structured operand at (or just above) a density."""
    density = 1.0 - sparsity
    g = max(1, math.ceil(density * 8 - 1e-9))
    if g >= 8:
        return dense_operand()
    return structured_operand(g, 8)


def hss_weight_candidates(
    sparsity_a: float, sparsity_b: float
) -> Tuple[Candidate, ...]:
    """The HSS-weights rule shared by HighLight and DSSO: operand A in
    its canonical HSS pattern, operand B unstructured. Swapping is only
    useful when B's degree has a canonical HSS realization."""
    direct = (
        hss_or_unstructured(sparsity_a),
        unstructured_operand(sparsity_b),
        False,
    )
    if quantize_degree(sparsity_b) not in CANONICAL_HSS:
        return (direct,)
    return (
        direct,
        (
            hss_or_unstructured(sparsity_b),
            unstructured_operand(sparsity_a),
            True,
        ),
    )
