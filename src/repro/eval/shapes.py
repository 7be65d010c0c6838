"""Workload-shape robustness: do the orderings hold beyond 1024^3?

The synthetic evaluation uses 1024x1024x1024 GEMMs ("a common shape in
DNN workloads", Sec. 7.1.2). Real layer mixes span skewed shapes —
tall weights times few tokens, wide Toeplitz expansions, tiny reduction
dims. This sweep re-checks the headline orderings over a grid of
DNN-realistic shapes so the reproduction's conclusions are not an
artifact of the cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.energy.estimator import Estimator
from repro.eval.engine import Cell, SweepEngine, grid_cells
from repro.model.metrics import Metrics

#: DNN-realistic (M, K, N) shapes: conv-early, conv-late, FC, attention
#: projection, Toeplitz-wide, reduction-heavy.
SHAPE_GRID: Tuple[Tuple[int, int, int], ...] = (
    (64, 576, 3136),     # early conv (Toeplitz-wide)
    (512, 4608, 49),     # late conv (reduction-heavy)
    (1000, 2048, 1),     # classifier FC
    (1024, 1024, 128),   # attention projection
    (4096, 1024, 128),   # transformer FF1
    (256, 256, 256),     # small cube
    (1024, 1024, 1024),  # the paper's cube
)


@dataclass(frozen=True)
class ShapeOutcome:
    """Headline checks at one shape."""

    shape: Tuple[int, int, int]
    highlight_best: bool
    dense_parity: bool
    #: HighLight EDP gain vs the dense baseline at A 75% / B 50%.
    sparse_gain_vs_dense: float


#: The designs and sparsity degrees each shape is checked at.
SHAPE_DESIGNS: Tuple[str, ...] = ("TC", "STC", "DSTC", "HighLight")
SHAPE_A_DEGREES: Tuple[float, ...] = (0.0, 0.5, 0.75)
SHAPE_B_DEGREES: Tuple[float, ...] = (0.0, 0.5)


def sweep_shapes(
    shapes: Sequence[Tuple[int, int, int]] = SHAPE_GRID,
    estimator: Optional[Estimator] = None,
    parity_tolerance: float = 0.05,
    engine: Optional[SweepEngine] = None,
) -> List[ShapeOutcome]:
    """Check the headline orderings at every shape in the grid.

    The whole shapes x degrees x designs grid is declared up front and
    handed to the :class:`SweepEngine` in one batch, so the per-shape
    headline lookups below are pure cache hits.
    """
    created = engine is None
    if engine is None:
        engine = SweepEngine(estimator)
    try:
        cells: List[Cell] = []
        for shape in shapes:
            m, k, n = shape
            cells.extend(
                grid_cells(
                    SHAPE_DESIGNS, SHAPE_A_DEGREES, SHAPE_B_DEGREES,
                    m, k, n,
                )
            )
        engine.evaluate_cells(cells)

        def lookup(
            design: str, sparsity_a: float, sparsity_b: float,
            shape: Tuple[int, int, int],
        ) -> Optional[Metrics]:
            m, k, n = shape
            return engine.evaluate_cells(
                [Cell(design, sparsity_a, sparsity_b, m, k, n)]
            )[0]

        outcomes: List[ShapeOutcome] = []
        for shape in shapes:
            best = True
            for sparsity_a in SHAPE_A_DEGREES:
                for sparsity_b in SHAPE_B_DEGREES:
                    per_design: Dict[str, Optional[Metrics]] = {
                        name: lookup(
                            name, sparsity_a, sparsity_b, shape
                        )
                        for name in SHAPE_DESIGNS
                    }
                    ours = per_design["HighLight"].edp
                    for name, metrics in per_design.items():
                        if name == "HighLight" or metrics is None:
                            continue
                        if ours > metrics.edp * (1 + parity_tolerance):
                            best = False
            dense_tc = lookup("TC", 0.0, 0.0, shape)
            dense_hl = lookup("HighLight", 0.0, 0.0, shape)
            sparse_tc = lookup("TC", 0.75, 0.5, shape)
            sparse_hl = lookup("HighLight", 0.75, 0.5, shape)
            outcomes.append(
                ShapeOutcome(
                    shape=shape,
                    highlight_best=best,
                    dense_parity=(
                        dense_hl.edp / dense_tc.edp
                        <= 1 + parity_tolerance
                    ),
                    sparse_gain_vs_dense=(
                        sparse_tc.edp / sparse_hl.edp
                    ),
                )
            )
        return outcomes
    finally:
        # Close only an engine this call created (REP004): a borrowed
        # engine, and its cache connection, belong to the caller.
        if created:
            engine.close()


def summarize_shapes(outcomes: Sequence[ShapeOutcome]) -> str:
    lines = [
        f"{'shape (MxKxN)':>18s} {'HL best':>8s} {'parity':>7s} "
        f"{'gain @75/50':>12s}"
    ]
    for outcome in outcomes:
        m, k, n = outcome.shape
        lines.append(
            f"{f'{m}x{k}x{n}':>18s} {str(outcome.highlight_best):>8s} "
            f"{str(outcome.dense_parity):>7s} "
            f"{outcome.sparse_gain_vs_dense:11.1f}x"
        )
    return "\n".join(lines)
