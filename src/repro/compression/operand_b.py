"""Compressed unstructured operand B with three-level metadata (Fig. 12).

When operand B is unstructured sparse, HighLight stores only the nonzero
values in the GLB, plus metadata that hierarchically encodes the nonzero
locations (paper Sec. 6.4):

1. the total number of nonzeros for every *set* of Rank1 blocks (H1
   blocks per set, matching operand A's C1 grouping) — this drives the
   VFMU's variable shift amount;
2. the end address (cumulative nonzero count) of each Rank1 block;
3. the intra-Rank0-block offset of each nonzero value.

Internally the encoder also keeps each nonzero's position within its
Rank1 block so that decoding is lossless; the hardware recovers the same
information by counting valid entries while streaming, so the metadata
*bit* accounting still follows the paper's three levels exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import CompressionError
from repro.compression.metadata import offset_bits
from repro.utils import ceil_div


@dataclass(frozen=True)
class CompressedOperandB:
    """A compressed operand-B stream (one GLB-resident row/column)."""

    values: np.ndarray
    #: Level 1: nonzeros per set of ``set_size`` Rank1 blocks.
    set_counts: Tuple[int, ...]
    #: Level 2: per-Rank1-block end address (cumulative nonzero count).
    block_end_addresses: Tuple[int, ...]
    #: Per-nonzero position within its Rank1 block (drives decode; the
    #: paper's level-3 offsets are these positions modulo the Rank0
    #: block size).
    intra_positions: Tuple[int, ...]
    rank0_block: int
    rank1_block: int
    set_size: int
    length: int

    @property
    def offsets(self) -> Tuple[int, ...]:
        """Level 3: intra-Rank0-block offset of each nonzero."""
        return tuple(p % self.rank0_block for p in self.intra_positions)

    @property
    def num_stored_values(self) -> int:
        return int(self.values.size)

    @property
    def compression_ratio(self) -> float:
        """Dense slots per stored value (>= 1; 1 means incompressible)."""
        if self.num_stored_values == 0:
            return float("inf")
        return self.length / self.num_stored_values

    @property
    def metadata_bits(self) -> int:
        """Exact metadata footprint in bits.

        Set counts and end addresses are address-sized fields (wide
        enough to index the padded stream); offsets are Rank0-local.
        """
        address_bits = max(1, int(np.ceil(np.log2(max(2, self.length + 1)))))
        bits = address_bits * len(self.set_counts)
        bits += address_bits * len(self.block_end_addresses)
        bits += offset_bits(self.rank0_block) * len(self.intra_positions)
        return bits


def encode_operand_b(
    vector: np.ndarray,
    rank0_block: int,
    rank1_block: int,
    set_size: int,
) -> CompressedOperandB:
    """Compress an unstructured-sparse operand-B stream.

    ``rank0_block`` is H0 in values; ``rank1_block`` is the number of
    Rank0 blocks per Rank1 block; ``set_size`` is the number of Rank1
    blocks per metadata set (operand A's H1: 3 in the paper's C1(2:3)
    walkthrough).
    """
    array = np.asarray(vector, dtype=float)
    if array.ndim != 1:
        raise CompressionError("encode_operand_b expects a 1-D stream")
    for name, value in (
        ("rank0_block", rank0_block),
        ("rank1_block", rank1_block),
        ("set_size", set_size),
    ):
        if value <= 0:
            raise CompressionError(f"{name} must be positive, got {value}")
    values_per_rank1 = rank0_block * rank1_block
    span = values_per_rank1 * set_size
    padded = ceil_div(max(array.size, 1), span) * span
    work = np.zeros(padded, dtype=float)
    work[: array.size] = array

    values = []
    positions = []
    block_ends = []
    set_counts = []
    running = 0
    set_start_total = 0
    num_rank1 = padded // values_per_rank1
    for rank1_index in range(num_rank1):
        start = rank1_index * values_per_rank1
        chunk = work[start : start + values_per_rank1]
        for position in np.flatnonzero(chunk):
            values.append(float(chunk[position]))
            positions.append(int(position))
            running += 1
        block_ends.append(running)
        if (rank1_index + 1) % set_size == 0:
            set_counts.append(running - set_start_total)
            set_start_total = running
    return CompressedOperandB(
        values=np.array(values, dtype=float),
        set_counts=tuple(set_counts),
        block_end_addresses=tuple(block_ends),
        intra_positions=tuple(positions),
        rank0_block=rank0_block,
        rank1_block=rank1_block,
        set_size=set_size,
        length=int(array.size),
    )


def decode_operand_b(encoded: CompressedOperandB) -> np.ndarray:
    """Rebuild the dense operand-B stream from its compressed form."""
    values_per_rank1 = encoded.rank0_block * encoded.rank1_block
    padded = len(encoded.block_end_addresses) * values_per_rank1
    out = np.zeros(padded, dtype=float)
    cursor = 0
    for rank1_index, end in enumerate(encoded.block_end_addresses):
        start_count = (
            encoded.block_end_addresses[rank1_index - 1] if rank1_index else 0
        )
        base = rank1_index * values_per_rank1
        for _ in range(end - start_count):
            out[base + encoded.intra_positions[cursor]] = encoded.values[
                cursor
            ]
            cursor += 1
    return out[: encoded.length]
