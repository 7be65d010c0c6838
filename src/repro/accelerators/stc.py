"""STC: the single-sided 2:4 structured sparse baseline.

Exploits operand A when (and only when) it satisfies ``{G<=2}:4``:
a 2x speedup cap, metadata of 2 bits per stored value, and a 4-to-2
operand-select mux per MAC — a very low sparsity tax. Operand B is
always processed dense (no compression unit in the design).
"""

from __future__ import annotations

from typing import Tuple

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.realization import Candidate, hss_or_unstructured
from repro.accelerators.registry import register_design
from repro.arch.designs import stc_resources
from repro.energy.estimator import Estimator
from repro.model.density import stc_effective_density
from repro.model.perf import build_metrics
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload, unstructured_operand

#: 2:4 metadata: 2 bits per stored nonzero, packed into 16-bit words.
META_BITS_PER_VALUE = 2
WORD_BITS = 16


@register_design(category="structured", sparsity_side="single",
                 table4_order=1, main_evaluation=True)
class STC(AcceleratorDesign):
    """Sparse-tensor-core-like design (Table 3: A dense or C0({G<=2}:4))."""

    name = "STC"

    def __init__(self) -> None:
        super().__init__(stc_resources())

    @property
    def supported_patterns(self) -> str:
        return "A: dense or C0({G<=2}:4); B: dense"

    def realize(
        self, sparsity_a: float, sparsity_b: float
    ) -> Tuple[Candidate, ...]:
        # Only operand A is skipped, so each orientation puts one
        # degree in its 2:4-compatible HSS form.
        return (
            (
                hss_or_unstructured(sparsity_a),
                unstructured_operand(sparsity_b),
                False,
            ),
            (
                hss_or_unstructured(sparsity_b),
                unstructured_operand(sparsity_a),
                True,
            ),
        )

    def supports(self, workload: MatmulWorkload) -> bool:
        # Functionally correct on any workload: unsupported sparsity is
        # simply processed as dense data.
        return True

    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        scheduled_density, sparse_mode = stc_effective_density(workload.a)
        scheduled = workload.dense_products * scheduled_density
        a_words = workload.m * workload.k * scheduled_density
        a_meta = (
            a_words * META_BITS_PER_VALUE / WORD_BITS if sparse_mode else 0.0
        )
        saf_events = []
        if sparse_mode:
            # Every scheduled product routes its B operand through the
            # 4-to-2 selection muxes.
            saf_events.append(("b_select_mux", "select", scheduled))
        return build_metrics(
            workload=workload,
            resources=self.resources,
            estimator=estimator,
            scheduled_products=scheduled,
            utilization=1.0,
            full_macs=scheduled,
            a_stored_words=a_words,
            a_meta_words=a_meta,
            b_stored_words=float(workload.k * workload.n),
            b_fetch_words=scheduled / self.resources.operand_reuse,
            saf_events=saf_events,
        )
