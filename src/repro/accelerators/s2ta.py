"""S2TA: the dual-sided structured sparse baseline.

Requires operand A to satisfy ``{G<=4}:8`` (at least 50% sparsity) and
operand B ``{G<=8}:8``; both operands then skip at their quantized
densities with perfect balance. The dual-sided selection network (8-wide
muxes on both operands) and the much smaller register files (64 x 64 B,
halving operand reuse) are its medium sparsity tax. It cannot process
purely dense layers (paper Sec. 7.3).
"""

from __future__ import annotations

from typing import Tuple

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.realization import Candidate, g8_operand
from repro.accelerators.registry import register_design
from repro.arch.designs import s2ta_resources
from repro.energy.estimator import Estimator
from repro.model.density import s2ta_quantized_density
from repro.model.perf import build_metrics
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload

#: G:8 metadata: 3 bits per stored nonzero, packed into 16-bit words.
META_BITS_PER_VALUE = 3
WORD_BITS = 16
#: Operand A must quantize to at most 4:8.
MAX_A_DENSITY = 0.5
#: Design-specific constraint on the second (operand-B) skipping side:
#: the density-bound unrolling exploits at most a 2x rate from B, so B
#: is scheduled at no less than 4:8 ("does not fully exploit the
#: available speedup", paper Sec. 7.2).
MIN_B_SCHEDULED_DENSITY = 0.5
#: Partial-sum spill: the 64 B register files cannot hold output tiles,
#: so one in every SPILL_INTERVAL accumulations read-modify-writes the
#: GLB instead of staying PE-local.
SPILL_INTERVAL = 8


@register_design(category="structured", sparsity_side="dual",
                 table4_order=3, main_evaluation=True)
class S2TA(AcceleratorDesign):
    """S2TA-like design (Table 3: A C0({G<=4}:8); B C0({G<=8}:8))."""

    name = "S2TA"

    def __init__(self) -> None:
        super().__init__(s2ta_resources())

    @property
    def supported_patterns(self) -> str:
        return "A: C0({G<=4}:8); B: C0({G<=8}:8)"

    def realize(
        self, sparsity_a: float, sparsity_b: float
    ) -> Tuple[Candidate, ...]:
        # Both operands G:8; operand A has no dense mode, so the swap
        # rescues cells whose A degree is too low.
        return (
            (g8_operand(sparsity_a), g8_operand(sparsity_b), False),
            (g8_operand(sparsity_b), g8_operand(sparsity_a), True),
        )

    def supports(self, workload: MatmulWorkload) -> bool:
        # Operand A must be at least 50% sparse at G:8 granularity;
        # the design has no dense-A mode (Table 3 has no "dense" entry
        # for its operand A).
        return s2ta_quantized_density(workload.a) <= MAX_A_DENSITY + 1e-12

    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        q_a = s2ta_quantized_density(workload.a)
        q_b = s2ta_quantized_density(workload.b)
        scheduled_b = max(q_b, MIN_B_SCHEDULED_DENSITY)
        scheduled = workload.dense_products * q_a * scheduled_b

        a_words = workload.m * workload.k * q_a
        b_words = workload.k * workload.n * q_b
        a_meta = a_words * META_BITS_PER_VALUE / WORD_BITS
        b_meta = b_words * META_BITS_PER_VALUE / WORD_BITS

        spill = scheduled / SPILL_INTERVAL
        saf_events = [
            ("a_select_mux", "select", scheduled),
            ("b_select_mux", "select", scheduled),
            # Partial-sum spills to the GLB (read-modify-write).
            ("glb_data", "read", spill),
            ("glb_data", "write", spill),
        ]
        return build_metrics(
            workload=workload,
            resources=self.resources,
            estimator=estimator,
            scheduled_products=scheduled,
            utilization=1.0,
            full_macs=scheduled,
            a_stored_words=a_words,
            a_meta_words=a_meta,
            b_stored_words=b_words,
            b_meta_words=b_meta,
            b_fetch_words=scheduled / self.resources.operand_reuse,
            saf_events=saf_events,
            compress_values=b_words,
            supported=True,
        )
