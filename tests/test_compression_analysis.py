"""Tests for the cross-format storage analysis."""

import numpy as np
import pytest

from repro.compression.analysis import (
    StorageFootprint,
    format_comparison_table,
    storage_footprints,
)
from repro.errors import CompressionError
from repro.sparsity import HSSPattern, sparsify


@pytest.fixture
def hss_row(rng):
    pattern = HSSPattern.from_ratios((2, 4), (2, 4))
    return sparsify(rng.normal(size=256), pattern), pattern


class TestFootprints:
    def test_all_formats_present(self, hss_row):
        row, pattern = hss_row
        footprints = storage_footprints(row, pattern)
        assert set(footprints) == {
            "uncompressed", "bitmask", "run_length", "cp",
            "hierarchical_cp",
        }

    def test_uncompressed_is_dense_footprint(self, hss_row):
        row, pattern = hss_row
        footprints = storage_footprints(row, pattern)
        assert footprints["uncompressed"].total_bits == 256 * 16
        assert footprints["uncompressed"].ratio_vs_dense(256) == 1.0

    def test_compressed_beat_dense_at_75(self, hss_row):
        row, pattern = hss_row
        footprints = storage_footprints(row, pattern)
        for name in ("bitmask", "cp", "hierarchical_cp"):
            assert footprints[name].total_bits < 256 * 16, name

    def test_hierarchical_cp_beats_bitmask_metadata(self, hss_row):
        """Structured metadata (2 bits/nonzero + per-block offsets)
        undercuts the flat 1-bit-per-slot mask at HSS degrees."""
        row, pattern = hss_row
        footprints = storage_footprints(row, pattern)
        assert (
            footprints["hierarchical_cp"].metadata_bits
            < footprints["bitmask"].metadata_bits
        )

    def test_near_dense_compression_stops_paying(self, rng):
        row = rng.uniform(1.0, 2.0, size=128)  # fully dense
        footprints = storage_footprints(row)
        assert (
            footprints["bitmask"].total_bits
            > footprints["uncompressed"].total_bits
        )

    def test_without_pattern_no_hier_entry(self, rng):
        footprints = storage_footprints(rng.normal(size=64))
        assert "hierarchical_cp" not in footprints

    def test_ratio_rejects_bad_slots(self):
        footprint = StorageFootprint("x", 16, 0)
        with pytest.raises(CompressionError):
            footprint.ratio_vs_dense(0)


class TestAcrossDegrees:
    @pytest.mark.parametrize("ranks, degree", (
        (((2, 4), (4, 4)), 0.5),
        (((2, 4), (3, 4)), 0.625),
        (((2, 4), (2, 4)), 0.75),
    ))
    def test_hierarchical_cp_beats_dense(self, rng, ranks, degree):
        """Sec. 6.2's format choice: at every HSS degree the
        hierarchical format stores less than dense, and well under half
        of it at 75%."""
        pattern = HSSPattern.from_ratios(*ranks)
        assert pattern.sparsity == pytest.approx(degree)
        row = sparsify(rng.normal(size=1024), pattern)
        ratio = storage_footprints(row, pattern)[
            "hierarchical_cp"
        ].ratio_vs_dense(1024)
        assert ratio < 1.0
        if degree == 0.75:
            assert ratio < 0.5


class TestTable:
    def test_table_lists_formats(self, hss_row):
        row, pattern = hss_row
        text = format_comparison_table(row, pattern)
        assert "hierarchical_cp" in text
        assert "vs dense" in text

    def test_table_sorted_by_total(self, hss_row):
        row, pattern = hss_row
        lines = format_comparison_table(row, pattern).splitlines()[1:]
        totals = [int(line.split()[3]) for line in lines]
        assert totals == sorted(totals)
