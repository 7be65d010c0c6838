"""Hierarchical CP compression for HSS operand A (paper Fig. 9).

A row of an HSS operand A with pattern ``C1(G1:H1)->C0(G0:H0)`` is stored
as:

* the packed nonzero values, in block order;
* **Rank0 metadata**: one offset per nonzero naming its position inside
  its block of H0 values (``ceil(log2 H0)`` bits each);
* **Rank1 metadata**: one offset per *non-empty* Rank0 block naming its
  position among the H1 blocks of its Rank1 group (``ceil(log2 H1)``
  bits each).

Because the pattern is structured, per-block occupancies are bounded by
G0/G1, which is exactly what lets the hardware fetch and distribute
blocks with trivial alignment logic — the low sparsity tax the paper
argues for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import CompressionError
from repro.compression.metadata import offset_bits
from repro.sparsity.hss import HSSPattern
from repro.utils import ceil_div


@dataclass(frozen=True)
class HierarchicalCPRow:
    """One operand-A row in hierarchical CP form."""

    values: np.ndarray
    #: Per-nonzero offset within its H0-value block (Rank0 CP metadata).
    rank0_offsets: Tuple[int, ...]
    #: Per non-empty block: (group index, offset within the H1 group).
    rank1_offsets: Tuple[Tuple[int, int], ...]
    #: Number of nonzeros in each non-empty block (prefix for unpacking).
    block_occupancies: Tuple[int, ...]
    pattern: HSSPattern
    length: int

    @property
    def metadata_bits(self) -> int:
        """Exact metadata footprint in bits."""
        bits = offset_bits(self.pattern.rank(0).h) * len(self.rank0_offsets)
        if self.pattern.num_ranks > 1:
            bits += offset_bits(self.pattern.rank(1).h) * len(
                self.rank1_offsets
            )
        return bits

    @property
    def num_stored_values(self) -> int:
        return int(self.values.size)


def encode_hierarchical_cp(
    row: np.ndarray, pattern: HSSPattern
) -> HierarchicalCPRow:
    """Encode a 1-D HSS row into hierarchical CP form.

    Supports one- and two-rank patterns (the hardware design points the
    paper evaluates). The row is zero-padded to a span multiple.
    """
    vector = np.asarray(row, dtype=float)
    if vector.ndim != 1:
        raise CompressionError("encode_hierarchical_cp expects a 1-D row")
    if pattern.num_ranks > 2:
        raise CompressionError(
            "hierarchical CP is implemented for up to two ranks "
            f"(got {pattern.num_ranks})"
        )
    h0 = pattern.rank(0).h
    h1 = pattern.rank(1).h if pattern.num_ranks > 1 else 1
    span = h0 * h1
    padded = ceil_div(vector.size, span) * span
    work = np.zeros(padded, dtype=float)
    work[: vector.size] = vector

    values = []
    rank0_offsets = []
    rank1_offsets = []
    occupancies = []
    num_blocks = padded // h0
    for block in range(num_blocks):
        chunk = work[block * h0 : (block + 1) * h0]
        nonzero = np.flatnonzero(chunk)
        if nonzero.size == 0:
            continue
        if nonzero.size > pattern.rank(0).g:
            raise CompressionError(
                f"block {block} has {nonzero.size} nonzeros, exceeding "
                f"G0={pattern.rank(0).g}"
            )
        group, position = divmod(block, h1)
        rank1_offsets.append((group, position))
        occupancies.append(int(nonzero.size))
        for offset in nonzero:
            values.append(float(chunk[offset]))
            rank0_offsets.append(int(offset))
    if pattern.num_ranks > 1:
        g1 = pattern.rank(1).g
        per_group = {}
        for group, _ in rank1_offsets:
            per_group[group] = per_group.get(group, 0) + 1
        for group, count in per_group.items():
            if count > g1:
                raise CompressionError(
                    f"rank-1 group {group} has {count} non-empty blocks, "
                    f"exceeding G1={g1}"
                )
    return HierarchicalCPRow(
        values=np.array(values, dtype=float),
        rank0_offsets=tuple(rank0_offsets),
        rank1_offsets=tuple(rank1_offsets),
        block_occupancies=tuple(occupancies),
        pattern=pattern,
        length=int(vector.size),
    )


def decode_hierarchical_cp(encoded: HierarchicalCPRow) -> np.ndarray:
    """Rebuild the dense row from its hierarchical CP encoding."""
    h0 = encoded.pattern.rank(0).h
    h1 = encoded.pattern.rank(1).h if encoded.pattern.num_ranks > 1 else 1
    span = h0 * h1
    padded = ceil_div(encoded.length, span) * span if encoded.length else span
    out = np.zeros(padded, dtype=float)
    cursor = 0
    for (group, position), occupancy in zip(
        encoded.rank1_offsets, encoded.block_occupancies
    ):
        block = group * h1 + position
        for _ in range(occupancy):
            offset = encoded.rank0_offsets[cursor]
            out[block * h0 + offset] = encoded.values[cursor]
            cursor += 1
    return out[: encoded.length]
