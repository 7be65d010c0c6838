"""DSTC: the dual-sided unstructured sparse baseline.

Exploits arbitrary sparsity in both operands via an outer-product
dataflow: every effectual product is scheduled (maximum flexibility),
but each product read-modify-writes a large accumulation buffer and
needs merge/intersection logic — a high sparsity tax that masks the
savings on low-sparsity workloads (paper Secs. 2.2.1, 7.2). Workload
balance is imperfect: perfect only when slice occupancies are multiples
of the 32-lane compute columns.
"""

from __future__ import annotations

from typing import Tuple

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.realization import Candidate
from repro.arch.designs import dstc_resources
from repro.energy.estimator import Estimator
from repro.model.density import random_balance_utilization
from repro.model.perf import build_metrics
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload, unstructured_operand

#: Bitmask metadata: one bit per dense slot, packed into 16-bit words.
WORD_BITS = 16
#: Residual utilization loss from the unpredictable nonzero locations
#: (pipeline bubbles while chasing dynamic coordinates). Per-operand
#: random-balance losses come from
#: :func:`repro.model.density.random_balance_utilization` — the paper:
#: "DSTC only ensures perfect workload balancing among columns of
#: compute units when a sub-tensor's occupancy is a multiple of 32".
PIPELINE_EFFICIENCY = 0.95


class DSTC(AcceleratorDesign):
    """Dual-side sparse tensor core (Table 3: dense or unstructured)."""

    name = "DSTC"

    def __init__(self) -> None:
        super().__init__(dstc_resources())

    @property
    def supported_patterns(self) -> str:
        return "A: dense or unstructured; B: dense or unstructured"

    def realize(
        self, sparsity_a: float, sparsity_b: float
    ) -> Tuple[Candidate, ...]:
        # Both operands unstructured, in the given orientation only.
        return (
            (
                unstructured_operand(sparsity_a),
                unstructured_operand(sparsity_b),
                False,
            ),
        )

    def supports(self, workload: MatmulWorkload) -> bool:
        return True

    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        density_a = workload.a.density
        density_b = workload.b.density
        scheduled = workload.dense_products * density_a * density_b
        utilization = (
            random_balance_utilization(density_a)
            * random_balance_utilization(density_b)
            * PIPELINE_EFFICIENCY
        )

        a_words = workload.m * workload.k * density_a
        b_words = workload.k * workload.n * density_b
        a_meta = workload.m * workload.k / WORD_BITS  # bitmask
        b_meta = workload.k * workload.n / WORD_BITS
        reuse = self.resources.operand_reuse
        # Outer product streams both operands: charge both fetch paths.
        operand_fetches = 2.0 * scheduled / reuse

        saf_events = [
            # Coordinate merge/intersection work per effectual product.
            ("intersection", "intersect", scheduled),
        ]
        compress = a_words + b_words  # both operands compressed on-chip
        return build_metrics(
            workload=workload,
            resources=self.resources,
            estimator=estimator,
            scheduled_products=scheduled,
            utilization=utilization,
            full_macs=scheduled,
            a_stored_words=a_words,
            a_meta_words=a_meta,
            b_stored_words=b_words,
            b_meta_words=b_meta,
            b_fetch_words=operand_fetches,
            a_fetch_words=0.0,  # folded into operand_fetches
            psum_component="accum_buffer",
            # The outer-product dataflow's defining cost: products land
            # at arbitrary output coordinates and read-modify-write the
            # accumulation buffer; a pairwise spatial merge in front of
            # the buffer halves the update rate.
            psum_updates=scheduled / 2.0,
            saf_events=saf_events,
            compress_values=compress,
        )
