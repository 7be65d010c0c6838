"""Metadata-bit accounting shared by the formats and the cost models.

Kept free of numpy: the accelerator cost models size their metadata
with :func:`offset_bits` and should not pay for array support they
never use.
"""

from __future__ import annotations

import math

from repro.errors import CompressionError


def offset_bits(block_size: int) -> int:
    """Bits needed to name a position inside a block of ``block_size``."""
    if block_size <= 0:
        raise CompressionError(f"bad block size {block_size}")
    return max(1, math.ceil(math.log2(block_size)))
