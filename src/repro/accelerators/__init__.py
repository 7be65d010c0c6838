"""The evaluated accelerator designs (paper Tables 1, 3, 4).

* :class:`TC` — dense tensor-core-like baseline (no sparsity support).
* :class:`STC` — single-sided 2:4 structured sparse (speedup capped 2x).
* :class:`S2TA` — dual-sided G:8 structured sparse.
* :class:`DSTC` — dual-sided unstructured sparse, outer-product
  dataflow with a costly accumulation buffer.
* :class:`HighLight` — the paper's design: hierarchical skipping of
  two-rank HSS operand A, compression + gating of operand B.
* :class:`DSSO` — the Sec. 7.5 dual-side HSS study design with
  alternating dense ranks.

The table below registers every design in
:data:`repro.accelerators.registry.REGISTRY` by name, class reference
and metadata (category, sparsity side, Table 4 position); sweeps and
the CLI resolve designs by name through the registry rather than by
constructor. A design's module loads on its first ``create()``, and
the classes above load on first access, so reading the registry
imports no cost model.
"""

from typing import TYPE_CHECKING

from repro.accelerators.registry import (
    REGISTRY,
    DesignInfo,
    DesignRegistry,
    RegistryError,
    register_design,
)
from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.accelerators.base import AcceleratorDesign
    from repro.accelerators.tc import TC
    from repro.accelerators.stc import STC
    from repro.accelerators.s2ta import S2TA
    from repro.accelerators.dstc import DSTC
    from repro.accelerators.highlight import HighLight
    from repro.accelerators.dsso import DSSO

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("AcceleratorDesign",),
        "tc": ("TC",),
        "stc": ("STC",),
        "s2ta": ("S2TA",),
        "dstc": ("DSTC",),
        "highlight": ("HighLight",),
        "dsso": ("DSSO",),
    },
)

# Registration order is the order `repro list` prints.
register_design(
    "TC", "repro.accelerators.tc:TC",
    category="dense", sparsity_side="none",
    table4_order=0, main_evaluation=True,
)
register_design(
    "STC", "repro.accelerators.stc:STC",
    category="structured", sparsity_side="single",
    table4_order=1, main_evaluation=True,
)
register_design(
    "S2TA", "repro.accelerators.s2ta:S2TA",
    category="structured", sparsity_side="dual",
    table4_order=3, main_evaluation=True,
)
register_design(
    "DSTC", "repro.accelerators.dstc:DSTC",
    category="unstructured", sparsity_side="dual",
    table4_order=2, main_evaluation=True,
)
register_design(
    "HighLight", "repro.accelerators.highlight:HighLight",
    category="hss", sparsity_side="single",
    table4_order=4, main_evaluation=True,
)
register_design(
    "DSSO", "repro.accelerators.dsso:DSSO",
    category="hss", sparsity_side="dual",
    main_evaluation=False, study="sec7.5",
)

__all__ = [
    "AcceleratorDesign",
    "REGISTRY",
    "DesignInfo",
    "DesignRegistry",
    "RegistryError",
    "register_design",
    "TC",
    "STC",
    "S2TA",
    "DSTC",
    "HighLight",
    "DSSO",
    "all_designs",
    "main_design_names",
]


def main_design_names():
    """Names of the main-evaluation designs, in Table 4 order."""
    infos = REGISTRY.filter(main_evaluation=True)
    infos.sort(key=lambda info: info.metadata["table4_order"])
    return tuple(info.name for info in infos)


def all_designs():
    """Fresh instances of the five main-evaluation designs — TC, STC,
    DSTC, S2TA and HighLight — in Table 4 order.

    DSSO, the Sec. 7.5 dual-side study design, is not part of the main
    evaluation; reach it through ``REGISTRY.create("DSSO")`` (its
    registry metadata carries ``study="sec7.5"``).
    """
    return tuple(REGISTRY.create(name) for name in main_design_names())
