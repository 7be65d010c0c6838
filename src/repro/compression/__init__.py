"""Compression formats and metadata accounting.

* :mod:`repro.compression.metadata` — metadata-bit accounting shared
  with the cost models.
* :mod:`repro.compression.hierarchical` — the hierarchical CP format
  HighLight uses for HSS operand A (paper Fig. 9).
* :mod:`repro.compression.operand_b` — the three-level metadata format
  for compressed unstructured operand B (paper Fig. 12), consumed by the
  VFMU model/simulator.
"""

from typing import TYPE_CHECKING

from repro.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.compression.hierarchical import (
        HierarchicalCPRow,
        decode_hierarchical_cp,
        encode_hierarchical_cp,
    )
    from repro.compression.operand_b import (
        CompressedOperandB,
        decode_operand_b,
        encode_operand_b,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "hierarchical": (
        "HierarchicalCPRow", "decode_hierarchical_cp",
        "encode_hierarchical_cp",
    ),
    "operand_b": (
        "CompressedOperandB", "decode_operand_b", "encode_operand_b",
    ),
})

__all__ = [
    "HierarchicalCPRow",
    "decode_hierarchical_cp",
    "encode_hierarchical_cp",
    "CompressedOperandB",
    "decode_operand_b",
    "encode_operand_b",
]
