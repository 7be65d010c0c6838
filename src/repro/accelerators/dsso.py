"""DSSO: dual structured sparse operands with alternating dense ranks
(paper Sec. 7.5).

Operand A (weights) carries ``C1(dense)->C0(2:4)``; operand B (input
activations) carries ``C1(2:{2<=H<=8})->C0(dense)``. Because the two
operands are never sparse at the same rank, each rank's SAF performs a
dense-sparse intersection, which balances perfectly — so *both*
operands' sparsity turns into speedup (unlike HighLight, which only
gates on B). The trade-off: fewer supported operand-B degrees.
"""

from __future__ import annotations

from typing import Tuple

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.realization import (
    Candidate,
    hss_weight_candidates,
)
from repro.accelerators.registry import register_design
from repro.arch.designs import highlight_resources
from repro.compression.metadata import offset_bits
from repro.energy.estimator import Estimator
from repro.errors import UnsupportedWorkloadError
from repro.model.perf import build_metrics, compute_cycles
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload, Structure
from repro.sparsity.pattern import GHRange

WORD_BITS = 16

#: Operand A: rank0 2:4, rank1 dense.
DSSO_A_RANK0 = GHRange(2, 4, 4)
#: Operand B: rank1 2:{2..8}, rank0 dense.
DSSO_B_RANK1 = GHRange(2, 2, 8)


@register_design(category="hss", sparsity_side="dual",
                 main_evaluation=False, study="sec7.5")
class DSSO(AcceleratorDesign):
    """The dual-side HSS design of Fig. 17."""

    name = "DSSO"

    def __init__(self) -> None:
        # Same hardware resources as HighLight (the study isolates the
        # dataflow/SAF difference, not a re-allocation).
        super().__init__(highlight_resources())

    @property
    def supported_patterns(self) -> str:
        return "A: C1(dense)->C0(2:4); B: C1(2:{2<=H<=8})->C0(dense)"

    def realize(
        self, sparsity_a: float, sparsity_b: float
    ) -> Tuple[Candidate, ...]:
        # The Sec. 7.5 study sweeps the same cells as HighLight.
        return hss_weight_candidates(sparsity_a, sparsity_b)

    def supports(self, workload: MatmulWorkload) -> bool:
        return self._a_ok(workload) and self._b_ok(workload)

    @staticmethod
    def _a_ok(workload: MatmulWorkload) -> bool:
        a = workload.a
        if a.is_dense:
            return True
        if a.structure is not Structure.HSS or a.pattern is None:
            return False
        rank0 = a.pattern.rank(0)
        upper_dense = all(
            rule.g == rule.h for rule in a.pattern.ranks[1:]
        )
        return DSSO_A_RANK0.supports(rank0) and upper_dense

    @staticmethod
    def _b_ok(workload: MatmulWorkload) -> bool:
        b = workload.b
        if b.is_dense:
            return True
        if b.structure is not Structure.HSS or b.pattern is None:
            return False
        if b.pattern.num_ranks < 2:
            return False
        rank0 = b.pattern.rank(0)
        rank1 = b.pattern.rank(1)
        return rank0.g == rank0.h and DSSO_B_RANK1.supports(rank1)

    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        if not self.supports(workload):
            raise UnsupportedWorkloadError(
                f"DSSO cannot process {workload.describe()}"
            )
        resources = self.resources
        density_a = workload.a.density
        density_b = workload.b.density
        # Dual-side skipping: both structured densities turn into
        # speedup; dense-sparse intersections balance perfectly.
        scheduled = workload.dense_products * density_a * density_b

        a_words = workload.m * workload.k * density_a
        a_meta_words = (
            a_words * offset_bits(DSSO_A_RANK0.h_max) / WORD_BITS
            if not workload.a.is_dense
            else 0.0
        )
        b_words = workload.k * workload.n * density_b
        b_blocks = b_words / max(1, DSSO_A_RANK0.h_max)
        b_meta_words = (
            b_blocks * offset_bits(DSSO_B_RANK1.h_max) / WORD_BITS
            if not workload.b.is_dense
            else 0.0
        )

        reuse = resources.operand_reuse
        b_fetch = scheduled / reuse
        cycles = compute_cycles(scheduled, resources.arch.num_macs, 1.0)
        saf_events = [
            ("rank0_mux", "select", scheduled),
            ("rank1_addr_mux", "select", scheduled / DSSO_A_RANK0.g),
            ("vfmu", "write_word", b_fetch),
            ("vfmu", "block_read", cycles * 4),
            ("vfmu", "shift", cycles * 4),
        ]
        return build_metrics(
            workload=workload,
            resources=resources,
            estimator=estimator,
            scheduled_products=scheduled,
            utilization=1.0,
            full_macs=scheduled,
            a_stored_words=a_words,
            a_meta_words=a_meta_words,
            b_stored_words=b_words,
            b_meta_words=b_meta_words,
            b_fetch_words=b_fetch,
            saf_events=saf_events,
            compress_values=b_words if not workload.b.is_dense else 0.0,
        )
