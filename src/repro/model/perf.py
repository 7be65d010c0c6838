"""Shared GEMM cost assembly: counts -> activity -> Metrics.

Every accelerator design computes its design-specific quantities
(scheduled products, utilization, stored/fetched words, SAF events) and
hands them to :func:`build_metrics`, which assembles the common memory
activity (DRAM, GLB fills/fetches, partial-sum traffic, output drain)
and turns everything into a :class:`repro.model.metrics.Metrics` via the
energy estimator. Keeping the memory accounting in one place guarantees
the designs are compared under identical dataflow assumptions except
where a design explicitly deviates (DSTC's outer-product accumulation).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.arch.designs import DesignResources
from repro.energy.estimator import Estimator
from repro.errors import ModelError
from repro.model.activity import ActivityCounts
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload

SafEvent = Tuple[str, str, float]  # (component, action, count)


def compute_cycles(
    scheduled_products: float, num_macs: int, utilization: float
) -> float:
    """Cycle count: scheduled MAC slots over usable parallelism."""
    if scheduled_products <= 0:
        raise ModelError("scheduled_products must be positive")
    return scheduled_products / (num_macs * utilization)


def build_metrics(
    *,
    workload: MatmulWorkload,
    resources: DesignResources,
    estimator: Estimator,
    scheduled_products: float,
    utilization: float,
    full_macs: float,
    gated_macs: float = 0.0,
    a_stored_words: float,
    a_meta_words: float = 0.0,
    b_stored_words: float,
    b_meta_words: float = 0.0,
    b_fetch_words: float,
    a_fetch_words: Optional[float] = None,
    psum_component: str = "rf",
    psum_updates: Optional[float] = None,
    saf_events: Iterable[SafEvent] = (),
    compress_values: float = 0.0,
    supported: bool = True,
    swapped: bool = False,
) -> Metrics:
    """Assemble activity counts and evaluate them into Metrics.

    Memory model shared by all designs:

    * DRAM: each stored operand word (and metadata word) read once;
      every output word written once.
    * GLB: filled once with stored data/metadata; operand A read once
      (it is held stationary near the MACs); operand B read
      ``b_fetch_words`` times (design-computed, already divided by the
      spatial broadcast reuse); outputs staged through the GLB.
    * Partial sums: ``psum_updates`` read-modify-writes of
      ``psum_component`` (defaults to scheduled products divided by the
      design's spatial-reduction width).
    """
    arch = resources.arch
    outputs = workload.m * workload.n
    activity = ActivityCounts()

    activity.add("macs", "mac", full_macs)
    activity.add("macs", "gated_mac", gated_macs)

    # --- DRAM traffic -------------------------------------------------
    dram = resources.dram_name
    activity.add(dram, "read", a_stored_words + b_stored_words)
    activity.add(dram, "read", a_meta_words + b_meta_words)
    activity.add(dram, "write", outputs)

    # --- GLB data -----------------------------------------------------
    if a_fetch_words is None:
        a_fetch_words = a_stored_words
    activity.add("glb_data", "write", a_stored_words + b_stored_words)
    activity.add("glb_data", "read", a_fetch_words + b_fetch_words)
    activity.add("glb_data", "write", outputs)  # drain staging
    activity.add("glb_data", "read", outputs)

    # --- GLB metadata ---------------------------------------------------
    meta_words = a_meta_words + b_meta_words
    if meta_words:
        if not arch.has_component("glb_meta"):
            raise ModelError(
                f"{arch.name} produced metadata but has no glb_meta"
            )
        activity.add("glb_meta", "write", meta_words)
        activity.add("glb_meta", "read", meta_words)

    # --- partial sums ---------------------------------------------------
    if psum_updates is None:
        psum_updates = scheduled_products / resources.psum_spatial_reduction
    activity.add(psum_component, "read", psum_updates)
    activity.add(psum_component, "write", psum_updates)

    # --- design-specific SAF events --------------------------------------
    for component, action, count in saf_events:
        activity.add(component, action, count)

    if compress_values:
        activity.add("compression_unit", "compress_value", compress_values)

    cycles = compute_cycles(scheduled_products, arch.num_macs, utilization)
    breakdown = activity.energy_pj(arch, estimator)
    return Metrics(
        design=arch.name,
        workload=workload.describe(),
        cycles=cycles,
        energy_breakdown_pj=breakdown,
        utilization=utilization,
        supported=supported,
        swapped=swapped,
    )
