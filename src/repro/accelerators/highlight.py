"""HighLight: the paper's design (Secs. 5-6).

Operand A is dense or two-rank HSS within ``C1(4:{4<=H<=8}) ->
C0(2:{2<=H<=4})``; hierarchical skipping yields the exact structured
speedup with perfect workload balance. Operand B is dense or
unstructured sparse: compressed (three-level metadata through the VFMU)
to save storage/traffic, and *gated* at the MACs to save energy without
affecting cycles (Sec. 6.4).
"""

from __future__ import annotations

from typing import Tuple

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.realization import (
    Candidate,
    hss_weight_candidates,
)
from repro.arch.designs import highlight_resources
from repro.compression.metadata import offset_bits
from repro.energy.estimator import Estimator
from repro.model.density import (
    HIGHLIGHT_RANK0,
    HIGHLIGHT_RANK1,
    highlight_supported_density,
)
from repro.model.perf import build_metrics, compute_cycles
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload, Structure

WORD_BITS = 16
#: Conservative exploitation of operand-B sparsity: the paper evaluates
#: HighLight "with 20% sparsity for conservative estimations" when B is
#: 25% sparse, i.e. a 5-percentage-point haircut on exploitable B
#: sparsity (gating/compression never captures every zero).
B_SPARSITY_HAIRCUT = 0.05


class HighLight(AcceleratorDesign):
    """The HSS accelerator (Table 3 row "HighLight")."""

    name = "HighLight"

    def __init__(self) -> None:
        super().__init__(highlight_resources())

    @property
    def supported_patterns(self) -> str:
        return (
            "A: dense or C1(4:{4<=H<=8})->C0(2:{2<=H<=4}); "
            "B: dense or unstructured"
        )

    def realize(
        self, sparsity_a: float, sparsity_b: float
    ) -> Tuple[Candidate, ...]:
        return hss_weight_candidates(sparsity_a, sparsity_b)

    def supports(self, workload: MatmulWorkload) -> bool:
        # Operand A must be dense or HSS-structured; operand B anything.
        return workload.a.structure in (Structure.DENSE, Structure.HSS)

    def evaluate(
        self, workload: MatmulWorkload, estimator: Estimator
    ) -> Metrics:
        """Cost the workload, choosing the better operand-B handling.

        Table 3 lists operand B as "dense; unstructured sparse": the
        hardware can stream B uncompressed (gating still applies — the
        MACs detect zero operands either way) or compressed through the
        three-level metadata path. Compression pays on sparse
        activations but is pure overhead near-dense, so the design
        takes whichever mode yields the lower EDP.
        """
        variants = [self._evaluate(workload, estimator, False)]
        if not workload.b.is_dense:
            variants.append(self._evaluate(workload, estimator, True))
        return min(variants, key=lambda metrics: metrics.edp)

    def _evaluate(
        self,
        workload: MatmulWorkload,
        estimator: Estimator,
        compress_b: bool,
    ) -> Metrics:
        resources = self.resources
        scheduled_density = highlight_supported_density(workload.a)
        scheduled = workload.dense_products * scheduled_density

        # --- operand B gating ---------------------------------------
        exploitable_b_sparsity = self._exploitable_b_sparsity(workload)
        gated = scheduled * exploitable_b_sparsity
        full = scheduled - gated

        # --- operand A storage (hierarchical CP, Fig. 9) -------------
        a_nnz = workload.m * workload.k * workload.a.density
        a_meta_bits = a_nnz * offset_bits(HIGHLIGHT_RANK0.h_max)
        if workload.a.structure is Structure.HSS:
            nonempty_blocks = a_nnz / max(1, HIGHLIGHT_RANK0.g)
            a_meta_bits += nonempty_blocks * offset_bits(
                HIGHLIGHT_RANK1.h_max
            )
        a_meta_words = (
            a_meta_bits / WORD_BITS if not workload.a.is_dense else 0.0
        )
        a_words = a_nnz

        # --- operand B storage (three-level metadata, Fig. 12) -------
        b_slots = workload.k * workload.n
        b_compressed = compress_b and not workload.b.is_dense
        b_density_stored = (
            1.0 - exploitable_b_sparsity if b_compressed else 1.0
        )
        b_words = b_slots * b_density_stored
        b_meta_words = self._b_meta_words(b_slots, b_words) if b_compressed \
            else 0.0

        # --- fetch + VFMU activity ------------------------------------
        reuse = resources.operand_reuse
        b_fetch = scheduled * b_density_stored / reuse
        cycles = compute_cycles(scheduled, resources.arch.num_macs, 1.0)
        num_pe_arrays = 4
        saf_events = [
            # Rank0 SAF: every scheduled product selects its B value
            # through the per-PE 4-to-2 mux.
            ("rank0_mux", "select", scheduled),
            # Rank1 SAF: one block selection per G0-sized block.
            ("rank1_addr_mux", "select", scheduled / HIGHLIGHT_RANK0.g),
            # VFMU: refill words, plus a shifted block read per array
            # per processing step.
            ("vfmu", "write_word", b_fetch),
            ("vfmu", "block_read", cycles * num_pe_arrays),
            ("vfmu", "shift", cycles * num_pe_arrays),
        ]
        compress = b_words if b_compressed else 0.0
        return build_metrics(
            workload=workload,
            resources=resources,
            estimator=estimator,
            scheduled_products=scheduled,
            utilization=1.0,
            full_macs=full,
            gated_macs=gated,
            a_stored_words=a_words,
            a_meta_words=a_meta_words,
            b_stored_words=b_words,
            b_meta_words=b_meta_words,
            b_fetch_words=b_fetch,
            saf_events=saf_events,
            compress_values=compress,
        )

    @staticmethod
    def _exploitable_b_sparsity(workload: MatmulWorkload) -> float:
        """Fraction of scheduled MACs that can be gated on B zeros."""
        if workload.b.is_dense:
            return 0.0
        if workload.b.structure is Structure.HSS:
            # Statically known locations: fully exploitable.
            return workload.b.sparsity
        return max(0.0, workload.b.sparsity - B_SPARSITY_HAIRCUT)

    @staticmethod
    def _b_meta_words(b_slots: float, b_stored: float) -> float:
        """Three-level operand-B metadata (Sec. 6.4) in 16-bit words.

        Level 3: a Rank0-local offset per stored nonzero; levels 1-2:
        one address-sized entry per Rank1 block and per block set.
        """
        rank0_block = HIGHLIGHT_RANK0.h_max
        rank1_values = rank0_block * HIGHLIGHT_RANK1.h_max
        offsets_bits = b_stored * offset_bits(rank0_block)
        level2_entries = b_slots / rank1_values
        level1_entries = level2_entries / HIGHLIGHT_RANK1.h_max
        address_bits = (level2_entries + level1_entries) * WORD_BITS
        return (offsets_bits + address_bits) / WORD_BITS
