"""Resource allocations for all evaluated designs (paper Table 4).

Every design gets similar storage and compute: a global buffer (GLB,
320 KB total — sparse designs partition it 256 KB data + 64 KB metadata),
register files, and 1024 MACs. Design-specific sparsity-support
components (muxes, VFMU, intersection units, compression units) are
included so the area and energy sparsity tax is attributable (Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.arch.components import (
    Component,
    ComponentClass,
    mac,
    mux,
    regfile,
    sram,
)
from repro.arch.spec import ArchitectureSpec
from repro.errors import ArchitectureError

KB = 1024

#: Sparse designs partition one 320 KB physical GLB array into data and
#: metadata regions (Table 4); per-access energy scales with the
#: *physical* array size, identical for every design.
GLB_ARRAY_BYTES = 320 * KB

#: All designs compute with 1024 MACs arranged as a 32x32 logical grid
#: (four PE arrays of 256 MACs, Table 4 / Fig. 6(c)).
NUM_MACS = 1024
SPATIAL_ROWS = 32
SPATIAL_COLS = 32
DATAWIDTH_BITS = 16


@dataclass(frozen=True)
class DesignResources:
    """Architecture plus the reuse facts the analytical model consumes."""

    arch: ArchitectureSpec
    #: GLB bytes reserved for data / metadata (Table 4 partitioning).
    glb_data_bytes: int
    glb_meta_bytes: int
    #: Spatial partial-sum reduction width: how many MACs' products are
    #: combined before a register-file update. Inner-product designs
    #: reduce across a PE row (32); DSTC's outer-product dataflow sends
    #: every product to the accumulation buffer (1).
    psum_spatial_reduction: int
    #: Multiplicative on-chip reuse of each operand word fetched from
    #: GLB (how many MACs consume one fetched word). Bounded by the
    #: spatial grid; S2TA's much smaller RF (64 x 64 B) halves it.
    operand_reuse: int

    @property
    def name(self) -> str:
        return self.arch.name

    @cached_property
    def dram_name(self) -> str:
        """The off-chip memory's component name (``<design>_dram``)."""
        for component in self.arch.components:
            if component.name.endswith("_dram"):
                return component.name
        raise ArchitectureError(f"{self.arch.name} has no DRAM component")


def _common(name_prefix: str) -> Tuple[Component, ...]:
    return (
        Component(f"{name_prefix}_dram", ComponentClass.DRAM, 1,
                  {"technology": "LPDDR4"}),
        mac("macs", NUM_MACS, DATAWIDTH_BITS),
    )


def tc_resources() -> DesignResources:
    """TC-like dense accelerator: 320 KB GLB, 4 x 2 KB RF, 4 x 256 MACs."""
    components = _common("tc") + (
        sram("glb_data", 320 * KB, array_bytes=GLB_ARRAY_BYTES),
        regfile("rf", 2 * KB, count=4),
    )
    arch = ArchitectureSpec(
        "TC", components, NUM_MACS, SPATIAL_ROWS, SPATIAL_COLS
    )
    return DesignResources(
        arch=arch,
        glb_data_bytes=320 * KB,
        glb_meta_bytes=0,
        psum_spatial_reduction=32,
        operand_reuse=32,
    )


def stc_resources() -> DesignResources:
    """STC-like single-sided 2:4 structured sparse accelerator."""
    components = _common("stc") + (
        sram("glb_data", 256 * KB, array_bytes=GLB_ARRAY_BYTES),
        sram("glb_meta", 64 * KB, array_bytes=GLB_ARRAY_BYTES),
        regfile("rf", 2 * KB, count=4),
        # One 4-to-2 selector (two 4-to-1 muxes) per pair of MACs picks
        # the B operands matching A's 2:4 metadata.
        mux("b_select_mux", inputs=4, width_bits=DATAWIDTH_BITS,
            count=NUM_MACS),
    )
    arch = ArchitectureSpec(
        "STC", components, NUM_MACS, SPATIAL_ROWS, SPATIAL_COLS
    )
    return DesignResources(
        arch=arch,
        glb_data_bytes=256 * KB,
        glb_meta_bytes=64 * KB,
        psum_spatial_reduction=32,
        operand_reuse=32,
    )


def dstc_resources() -> DesignResources:
    """DSTC-like dual-sided unstructured sparse accelerator.

    The outer-product dataflow needs a large accumulation buffer that is
    read-modified-written by (nearly) every product — the dominant
    sparsity tax the paper calls out.
    """
    components = _common("dstc") + (
        sram("glb_data", 256 * KB, array_bytes=GLB_ARRAY_BYTES),
        sram("glb_meta", 64 * KB, array_bytes=GLB_ARRAY_BYTES),
        # Outer-product partial results land at arbitrary output
        # coordinates, so the accumulation store must cover a whole
        # output tile: it is a large SRAM, not a small RF, and every
        # product read-modify-writes it (the paper's "costly
        # accumulation buffer").
        sram("accum_buffer", 64 * KB, count=4),
        Component("intersection", ComponentClass.INTERSECTION, NUM_MACS,
                  {"style": "prefix_sum"}),
        Component("compression_unit", ComponentClass.COMPRESSION, 1, {}),
    )
    arch = ArchitectureSpec(
        "DSTC", components, NUM_MACS, SPATIAL_ROWS, SPATIAL_COLS
    )
    return DesignResources(
        arch=arch,
        glb_data_bytes=256 * KB,
        glb_meta_bytes=64 * KB,
        psum_spatial_reduction=1,
        operand_reuse=32,
    )


def s2ta_resources() -> DesignResources:
    """S2TA-like dual-sided structured sparse accelerator.

    Same MAC count but 64 PEs with tiny 64 B register files (Table 4),
    which halves the per-fetch operand reuse relative to the 2 KB-RF
    designs.
    """
    components = _common("s2ta") + (
        sram("glb_data", 256 * KB, array_bytes=GLB_ARRAY_BYTES),
        sram("glb_meta", 64 * KB, array_bytes=GLB_ARRAY_BYTES),
        regfile("rf", 64, count=64),
        # Dual-sided selection: 8-wide selectors on both operands.
        mux("a_select_mux", inputs=8, width_bits=DATAWIDTH_BITS,
            count=NUM_MACS),
        mux("b_select_mux", inputs=8, width_bits=DATAWIDTH_BITS,
            count=NUM_MACS),
        Component("compression_unit", ComponentClass.COMPRESSION, 1, {}),
    )
    arch = ArchitectureSpec(
        "S2TA", components, NUM_MACS, SPATIAL_ROWS, SPATIAL_COLS
    )
    return DesignResources(
        arch=arch,
        glb_data_bytes=256 * KB,
        glb_meta_bytes=64 * KB,
        psum_spatial_reduction=32,
        operand_reuse=8,
    )


def highlight_resources() -> DesignResources:
    """HighLight: hierarchical skipping SAFs plus operand-B gating.

    1024 MACs in four PE arrays; each PE holds G0=2 MACs, so there are
    512 PEs, each with one 4-to-2 Rank0 selector. Each PE array has one
    VFMU (a 2 x Hmax-block register buffer with shift control) and
    narrow 4-to-2 *address* muxes for the Rank1 SAF (Sec. 6.3.2).
    """
    vfmu_buffer_bytes = 2 * 8 * 4 * (DATAWIDTH_BITS // 8)  # 2 x Hmax1 blocks
    components = _common("highlight") + (
        sram("glb_data", 256 * KB, array_bytes=GLB_ARRAY_BYTES),
        sram("glb_meta", 64 * KB, array_bytes=GLB_ARRAY_BYTES),
        regfile("rf", 2 * KB, count=4),
        mux("rank0_mux", inputs=4, width_bits=DATAWIDTH_BITS,
            count=NUM_MACS),
        mux("rank1_addr_mux", inputs=4, width_bits=4, count=8),
        Component("vfmu", ComponentClass.VFMU, 4,
                  {"buffer_bytes": vfmu_buffer_bytes}),
        Component("compression_unit", ComponentClass.COMPRESSION, 1, {}),
    )
    arch = ArchitectureSpec(
        "HighLight", components, NUM_MACS, SPATIAL_ROWS, SPATIAL_COLS
    )
    return DesignResources(
        arch=arch,
        glb_data_bytes=256 * KB,
        glb_meta_bytes=64 * KB,
        psum_spatial_reduction=32,
        operand_reuse=32,
    )


def table4() -> Tuple[DesignResources, ...]:
    """All Table 4 rows, in paper order."""
    return (
        tc_resources(),
        stc_resources(),
        dstc_resources(),
        s2ta_resources(),
        highlight_resources(),
    )
