"""Baseline single-rank compression formats with metadata accounting.

These are the per-rank representation formats of the Sparseloop taxonomy
the paper builds on [54]: uncompressed (U), bitmask (B), run-length (R)
and offset-based coordinate payload (CP). Each encoder returns an
encoding object carrying the packed nonzero values, the metadata, and an
exact metadata bit count, so design-level storage and traffic can be
computed precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.compression.metadata import offset_bits
from repro.errors import CompressionError


def _as_vector(values: np.ndarray) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise CompressionError(
            f"formats operate on 1-D vectors, got {array.ndim} dims"
        )
    return array


@dataclass(frozen=True)
class UncompressedEncoding:
    """The identity format: all value slots stored, no metadata."""

    values: np.ndarray

    @property
    def metadata_bits(self) -> int:
        return 0

    @property
    def num_stored_values(self) -> int:
        return int(self.values.size)

    def decode(self) -> np.ndarray:
        return self.values.copy()


def encode_uncompressed(values: np.ndarray) -> UncompressedEncoding:
    """Store the vector as-is (what a dense accelerator like TC does)."""
    return UncompressedEncoding(_as_vector(values))


@dataclass(frozen=True)
class BitmaskEncoding:
    """Packed nonzeros plus a one-bit-per-slot presence mask."""

    payload: np.ndarray
    mask: np.ndarray

    @property
    def metadata_bits(self) -> int:
        return int(self.mask.size)

    @property
    def num_stored_values(self) -> int:
        return int(self.payload.size)

    def decode(self) -> np.ndarray:
        out = np.zeros(self.mask.size, dtype=float)
        out[np.flatnonzero(self.mask)] = self.payload
        return out


def encode_bitmask(values: np.ndarray) -> BitmaskEncoding:
    """Bitmask compression (the per-level format SMASH-style designs use)."""
    vector = _as_vector(values)
    mask = vector != 0
    return BitmaskEncoding(payload=vector[mask], mask=mask)


@dataclass(frozen=True)
class RunLengthEncoding:
    """Packed nonzeros plus the zero-run length preceding each one."""

    payload: np.ndarray
    run_lengths: Tuple[int, ...]
    length: int
    run_bits: int

    @property
    def metadata_bits(self) -> int:
        return self.run_bits * len(self.run_lengths)

    @property
    def num_stored_values(self) -> int:
        return int(self.payload.size)

    def decode(self) -> np.ndarray:
        out = np.zeros(self.length, dtype=float)
        position = 0
        for run, value in zip(self.run_lengths, self.payload):
            position += run
            out[position] = value
            position += 1
        return out


def encode_run_length(
    values: np.ndarray, run_bits: int = 4
) -> RunLengthEncoding:
    """Run-length compression with fixed-width run fields.

    Runs longer than the field allows are encoded by inserting explicit
    zero payloads (the classic escape used by Eyeriss-style RLE); for
    metadata accounting we simply count those extra entries.
    """
    vector = _as_vector(values)
    max_run = (1 << run_bits) - 1
    payload = []
    runs = []
    current_run = 0
    for value in vector:
        if value == 0:
            current_run += 1
            if current_run > max_run:
                payload.append(0.0)
                runs.append(max_run)
                current_run = 0
            continue
        payload.append(float(value))
        runs.append(current_run)
        current_run = 0
    return RunLengthEncoding(
        payload=np.array(payload, dtype=float),
        run_lengths=tuple(runs),
        length=vector.size,
        run_bits=run_bits,
    )


@dataclass(frozen=True)
class CPEncoding:
    """Offset-based coordinate payload: per-nonzero offset in its block.

    This is the format of paper Fig. 9 at a single rank: each nonzero
    carries a CP naming its position within its block of ``block_size``.
    """

    payload: np.ndarray
    offsets: Tuple[int, ...]
    block_size: int
    num_blocks: int

    @property
    def metadata_bits(self) -> int:
        return offset_bits(self.block_size) * len(self.offsets)

    @property
    def num_stored_values(self) -> int:
        return int(self.payload.size)

    def decode(self, block_occupancies: Tuple[int, ...]) -> np.ndarray:
        """Rebuild the dense vector given per-block nonzero counts."""
        if sum(block_occupancies) != len(self.offsets):
            raise CompressionError(
                "block occupancies do not match the number of offsets"
            )
        out = np.zeros(self.num_blocks * self.block_size, dtype=float)
        cursor = 0
        for block, occupancy in enumerate(block_occupancies):
            for _ in range(occupancy):
                offset = self.offsets[cursor]
                out[block * self.block_size + offset] = self.payload[cursor]
                cursor += 1
        return out


def encode_cp(values: np.ndarray, block_size: int) -> CPEncoding:
    """Offset-based CP encoding over fixed-size blocks.

    The vector length must be a multiple of ``block_size`` (pad upstream
    if needed, as the GLB layout does).
    """
    vector = _as_vector(values)
    if block_size <= 0:
        raise CompressionError(f"bad block size {block_size}")
    if vector.size % block_size:
        raise CompressionError(
            f"length {vector.size} is not a multiple of block {block_size}"
        )
    payload = []
    offsets = []
    num_blocks = vector.size // block_size
    for block in range(num_blocks):
        chunk = vector[block * block_size : (block + 1) * block_size]
        for offset in np.flatnonzero(chunk):
            payload.append(float(chunk[offset]))
            offsets.append(int(offset))
    return CPEncoding(
        payload=np.array(payload, dtype=float),
        offsets=tuple(offsets),
        block_size=block_size,
        num_blocks=num_blocks,
    )
