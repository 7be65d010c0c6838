"""Sensitivity analysis: do the paper's orderings survive cost-model
perturbations?

The reproduction's absolute energies are 65 nm-class estimates, so the
right robustness question is: which *relative* conclusions depend on
which constants? This module re-runs the Fig. 13 sweep under scaled
energy-table constants and reports whether the headline orderings
(HighLight best EDP everywhere; DSTC worse-than-dense at low sparsity)
hold at each perturbation.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.energy.estimator import Estimator
from repro.energy.tables import EnergyAreaTable, default_table
from repro.errors import EvaluationError
from repro.eval.engine import SweepEngine, SweepResult
from repro.eval.experiments import fig13

#: Constants whose uncertainty most plausibly affects conclusions.
PERTURBABLE = (
    "mac_pj",
    "sram_read_pj",
    "dram_read_pj",
    "regfile_read_pj",
    "mux_pj_per_input_16b",
    "intersection_pj",
    "vfmu_block_read_pj",
)


@dataclass(frozen=True)
class SensitivityOutcome:
    """One perturbed run's headline checks."""

    constant: str
    scale: float
    highlight_best_everywhere: bool
    dense_parity: bool
    dstc_worse_than_dense_at_low_sparsity: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.highlight_best_everywhere
            and self.dense_parity
            and self.dstc_worse_than_dense_at_low_sparsity
        )


def _check(sweep: SweepResult, parity_tolerance: float) -> Dict[str, bool]:
    normalized = sweep.normalized("edp")
    best = True
    for row in normalized.values():
        ours = row["HighLight"]
        for design, value in row.items():
            if design == "HighLight" or value is None:
                continue
            if ours > value * (1.0 + parity_tolerance):
                best = False
    dense = normalized[(0.0, 0.0)]["HighLight"]
    return {
        "highlight_best_everywhere": best,
        "dense_parity": abs(dense - 1.0) <= parity_tolerance,
        "dstc_worse_than_dense_at_low_sparsity": (
            normalized[(0.0, 0.0)]["DSTC"] > 1.0
            and normalized[(0.0, 0.25)]["DSTC"] > 1.0
        ),
    }


def perturb_table(
    table: EnergyAreaTable, constant: str, scale: float
) -> EnergyAreaTable:
    """A copy of ``table`` with one constant scaled by ``scale``."""
    if constant not in PERTURBABLE:
        raise EvaluationError(
            f"{constant!r} is not a perturbable constant; "
            f"choose from {PERTURBABLE}"
        )
    if scale <= 0:
        raise EvaluationError(f"scale must be positive, got {scale}")
    return replace(table, **{constant: getattr(table, constant) * scale})


def sweep_sensitivity(
    scales: Sequence[float] = (0.7, 1.3),
    constants: Sequence[str] = PERTURBABLE,
    size: int = 1024,
    parity_tolerance: float = 0.05,
) -> List[SensitivityOutcome]:
    """Run Fig. 13 under each (constant, scale) perturbation.

    ``size`` defaults to the paper's 1024^3 workloads — the model is
    analytical, so full size costs nothing, and the traffic/compute
    balance (and therefore the orderings) is size-dependent. Each
    perturbation gets its own :class:`SweepEngine` (the cost table
    differs, so nothing may be shared across perturbations).
    """
    outcomes: List[SensitivityOutcome] = []
    base = default_table()
    for constant in constants:
        for scale in scales:
            table = perturb_table(base, constant, scale)
            engine = SweepEngine(Estimator(table))
            # closing(): REP004 close-discipline holds for every
            # constructed engine, cached or not.
            with closing(engine):
                sweep = fig13(engine, size=size)
                checks = _check(sweep, parity_tolerance)
            outcomes.append(
                SensitivityOutcome(
                    constant=constant, scale=scale, **checks
                )
            )
    return outcomes


def summarize(outcomes: Sequence[SensitivityOutcome]) -> str:
    """Human-readable pass/fail grid."""
    lines = [
        f"{'constant':26s} {'scale':>6s} {'best-everywhere':>16s} "
        f"{'dense parity':>13s} {'DSTC>dense':>11s}"
    ]
    for outcome in outcomes:
        lines.append(
            f"{outcome.constant:26s} {outcome.scale:6.2f} "
            f"{str(outcome.highlight_best_everywhere):>16s} "
            f"{str(outcome.dense_parity):>13s} "
            f"{str(outcome.dstc_worse_than_dense_at_low_sparsity):>11s}"
        )
    return "\n".join(lines)
