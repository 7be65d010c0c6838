"""End-to-end simulator tests: exactness and count validation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import SimConfig, simulate_matmul
from repro.sparsity import HSSPattern, sparsify
from repro.utils import ceil_div


@pytest.fixture
def config():
    return SimConfig()


def make_operands(rng, pattern, m=6, k=32, n=5, b_sparsity=0.0):
    a = sparsify(rng.normal(size=(m, k)), pattern)
    b = rng.normal(size=(k, n))
    if b_sparsity:
        b[rng.random(b.shape) < b_sparsity] = 0.0
    return a, b


class TestExactness:
    @pytest.mark.parametrize("h1", [2, 3, 4])
    @pytest.mark.parametrize("compress", [False, True])
    def test_exact_for_all_h1(self, rng, config, h1, compress):
        pattern = config.example_pattern(h1)
        a, b = make_operands(rng, pattern, k=h1 * 4 * 3)
        result, _ = simulate_matmul(a, b, pattern, config, compress)
        np.testing.assert_allclose(result, a @ b)

    def test_exact_with_sparse_b(self, rng, config):
        pattern = config.example_pattern()
        a, b = make_operands(rng, pattern, b_sparsity=0.6)
        for compress in (False, True):
            result, _ = simulate_matmul(a, b, pattern, config, compress)
            np.testing.assert_allclose(result, a @ b)

    def test_exact_unaligned_k(self, rng, config):
        pattern = config.example_pattern()
        a = sparsify(rng.normal(size=(3, 26)), pattern)
        b = rng.normal(size=(26, 4))
        result, _ = simulate_matmul(a, b, pattern, config)
        np.testing.assert_allclose(result, a @ b)

    def test_all_zero_a(self, rng, config):
        pattern = config.example_pattern()
        a = np.zeros((3, 32))
        b = rng.normal(size=(32, 4))
        result, stats = simulate_matmul(a, b, pattern, config)
        np.testing.assert_allclose(result, np.zeros((3, 4)))
        assert stats.steps == 0  # every group skipped at Rank1


class TestCounts:
    def test_steps_match_theoretical_speedup(self, rng, config):
        """Steps = M x N x ceil(K / (H0 H1)) with a full pattern —
        the perfect-balance structured speedup (Sec. 6.3) — for every
        supported H1."""
        m, k, n = 6, 64, 5
        for h1 in (2, 3, 4):
            pattern = config.example_pattern(h1)
            a, b = make_operands(rng, pattern, m=m, k=k, n=n)
            _, stats = simulate_matmul(a, b, pattern, config)
            assert stats.steps == m * n * ceil_div(k, 4 * h1), h1

    def test_scheduled_matches_analytical_density(self, rng, config):
        pattern = config.example_pattern(4)
        m, k, n = 4, 64, 4
        a, b = make_operands(rng, pattern, m=m, k=k, n=n)
        _, stats = simulate_matmul(a, b, pattern, config)
        assert stats.scheduled_products == pytest.approx(
            m * k * n * pattern.density
        )

    def test_full_plus_gated_equals_mux_selects(self, rng, config):
        pattern = config.example_pattern()
        a, b = make_operands(rng, pattern, b_sparsity=0.5)
        _, stats = simulate_matmul(a, b, pattern, config)
        assert stats.full_macs + stats.gated_macs == stats.mux_selects

    def test_gating_counts_b_zeros(self, rng, config):
        pattern = config.example_pattern()
        a, b = make_operands(rng, pattern, b_sparsity=0.5)
        _, stats = simulate_matmul(a, b, pattern, config)
        assert stats.gated_macs > 0

    def test_dense_b_never_gates(self, rng, config):
        pattern = config.example_pattern()
        a, b = make_operands(rng, pattern)
        _, stats = simulate_matmul(a, b, pattern, config)
        assert stats.gated_macs == 0

    def test_compression_reduces_glb_traffic(self, rng, config):
        pattern = config.example_pattern()
        a, b = make_operands(rng, pattern, k=64, b_sparsity=0.8)
        _, plain = simulate_matmul(a, b, pattern, config, False)
        _, compressed = simulate_matmul(a, b, pattern, config, True)
        assert compressed.glb_reads < plain.glb_reads
        assert compressed.vfmu_skipped_fetches > 0


class TestValidation:
    def test_rejects_unsupported_pattern(self, rng, config):
        pattern = HSSPattern.from_ratios((2, 4), (2, 8))
        a = sparsify(rng.normal(size=(2, 64)), pattern)
        with pytest.raises(SimulationError):
            simulate_matmul(a, rng.normal(size=(64, 2)), pattern, config)

    def test_rejects_shape_mismatch(self, rng, config):
        pattern = config.example_pattern()
        with pytest.raises(SimulationError):
            simulate_matmul(
                np.zeros((2, 32)), np.zeros((16, 2)), pattern, config
            )

    def test_rejects_nonconforming_a(self, rng, config):
        """A tensor violating the claimed pattern fails loudly at the
        compression stage rather than silently computing wrong."""
        pattern = config.example_pattern()
        a = rng.normal(size=(2, 32))  # dense: violates 2:4 blocks
        with pytest.raises(Exception):
            simulate_matmul(a, rng.normal(size=(32, 2)), pattern, config)
