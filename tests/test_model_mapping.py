"""Tests for the tiling/mapping search substrate."""

import pytest

from repro.errors import ModelError
from repro.model.mapping import (
    Mapping,
    best_mapping,
    dram_traffic_vs_glb,
    enumerate_mappings,
)
from repro.model.workload import (
    MatmulWorkload,
    dense_operand,
    unstructured_operand,
)

KB = 1024


def workload(m=1024, k=1024, n=1024, a_sparsity=0.0, b_sparsity=0.0):
    return MatmulWorkload(
        m=m, k=k, n=n,
        a=unstructured_operand(a_sparsity),
        b=unstructured_operand(b_sparsity),
    )


class TestMapping:
    def test_buffer_bytes(self):
        mapping = Mapping(32, 32, 1024, 1024, 1024, 1.0, 1.0)
        expected = (32 * 1024 + 1024 * 32 + 32 * 32) * 2
        assert mapping.buffer_bytes() == expected

    def test_dram_words_dense(self):
        mapping = Mapping(512, 512, 1024, 1024, 1024, 1.0, 1.0)
        # 2 tiles per dim: A read twice, B read twice, outputs once.
        assert mapping.dram_words() == 2 * 1024**2 + 2 * 1024**2 + 1024**2

    def test_density_reduces_traffic(self):
        dense = Mapping(512, 512, 1024, 1024, 1024, 1.0, 1.0)
        sparse = Mapping(512, 512, 1024, 1024, 1024, 0.25, 1.0)
        assert sparse.dram_words() < dense.dram_words()

    def test_num_tiles(self):
        assert Mapping(256, 512, 1024, 8, 1024, 1.0, 1.0).num_tiles == 8

    def test_rejects_bad_tiles(self):
        with pytest.raises(ModelError):
            Mapping(0, 32, 64, 64, 64, 1.0, 1.0)
        with pytest.raises(ModelError):
            Mapping(32, 128, 64, 64, 64, 1.0, 1.0)


class TestSearch:
    def test_all_enumerated_fit(self):
        for mapping in enumerate_mappings(workload(), 320 * KB):
            assert mapping.buffer_bytes() <= 320 * KB

    def test_best_minimizes_traffic(self):
        chosen = best_mapping(workload(), 320 * KB)
        for candidate in enumerate_mappings(workload(), 320 * KB):
            assert chosen.dram_words() <= candidate.dram_words()

    def test_bigger_glb_never_hurts(self):
        small = best_mapping(workload(), 64 * KB)
        large = best_mapping(workload(), 1024 * KB)
        assert large.dram_words() <= small.dram_words()

    def test_nothing_fits_tiny_glb(self):
        # Even a 1x1 tile needs the K-slices resident.
        assert best_mapping(workload(), 128) is None

    def test_compression_unlocks_larger_tiles(self):
        """Sparse (compressed) operands fit larger tiles in the same
        GLB — the storage-side win of compression."""
        dense_choice = best_mapping(workload(), 128 * KB)
        sparse_choice = best_mapping(
            workload(a_sparsity=0.75, b_sparsity=0.75), 128 * KB
        )
        assert sparse_choice.dram_words() < dense_choice.dram_words()

    def test_traffic_curve_monotone(self):
        sizes = [64 * KB, 128 * KB, 320 * KB, 2048 * KB]
        curve = dram_traffic_vs_glb(workload(), sizes)
        assert curve == sorted(curve, reverse=True)

    def test_compression_wins_at_every_glb_size(self):
        """75%-sparse operands move less DRAM traffic than dense ones
        at every GLB size, and map into Table 4's 320 KB GLB."""
        sizes = [64 * KB, 128 * KB, 256 * KB, 320 * KB, 1024 * KB,
                 4096 * KB]
        sparse_workload = workload(a_sparsity=0.75, b_sparsity=0.75)
        dense = dram_traffic_vs_glb(workload(), sizes)
        sparse = dram_traffic_vs_glb(sparse_workload, sizes)
        assert dense == sorted(dense, reverse=True)
        assert all(s < d for d, s in zip(dense, sparse))
        assert best_mapping(sparse_workload, 320 * KB) is not None

    def test_traffic_curve_raises_when_unmappable(self):
        with pytest.raises(ModelError):
            dram_traffic_vs_glb(workload(), [128])

    def test_rejects_bad_glb(self):
        with pytest.raises(ModelError):
            list(enumerate_mappings(workload(), 0))
