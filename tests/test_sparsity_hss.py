"""Tests for HSSPattern and the Fig. 6 design-space math."""

from fractions import Fraction

import pytest

from repro.errors import PatternError
from repro.sparsity import GH, GHRange, HSSPattern
from repro.sparsity.hss import (
    compose_densities,
    fig6_designs,
    mux_cost,
    supported_degrees,
)


class TestHSSPattern:
    def test_paper_example_sparsity(self):
        """Fig. 5: C1(3:4)->C0(2:4) has sparsity 1 - 3/4 * 2/4 = 0.625."""
        pattern = HSSPattern.from_ratios((2, 4), (3, 4))
        assert pattern.sparsity == pytest.approx(0.625)

    def test_density_fraction_exact(self):
        pattern = HSSPattern.from_ratios((2, 3), (2, 3))
        assert pattern.density_fraction == Fraction(4, 9)

    def test_single_rank(self):
        assert HSSPattern.from_ratios((2, 4)).num_ranks == 1

    def test_block_sizes(self):
        pattern = HSSPattern.from_ratios((2, 4), (3, 4))
        assert pattern.block_sizes() == (4, 16)

    def test_max_speedup(self):
        pattern = HSSPattern.from_ratios((2, 4), (2, 4))
        assert pattern.max_speedup() == pytest.approx(4.0)

    def test_succinct_order(self):
        pattern = HSSPattern.from_ratios((2, 4), (3, 4))
        assert pattern.succinct() == "C1(3:4)->C0(2:4)"

    def test_rank_accessor(self):
        pattern = HSSPattern.from_ratios((2, 4), (3, 4))
        assert pattern.rank(0) == GH(2, 4)
        assert pattern.rank(1) == GH(3, 4)

    def test_rejects_empty(self):
        with pytest.raises(PatternError):
            HSSPattern(())

    def test_rejects_non_gh_rank(self):
        with pytest.raises(PatternError):
            HSSPattern((GHRange(2, 2, 4),))


class TestComposeDensities:
    def test_fig1_example(self):
        """Composing a 2-set with a 3-set yields six degrees (Fig. 1)."""
        s0 = [Fraction(1), Fraction(1, 2)]
        s1 = [Fraction(1), Fraction(2, 3), Fraction(2, 5)]
        assert len(compose_densities(s0, s1)) == 6

    def test_descending_order(self):
        result = compose_densities([Fraction(1), Fraction(1, 2)])
        assert result == sorted(result, reverse=True)

    def test_deduplicates(self):
        # 1/2 x 1 == 1 x 1/2
        result = compose_densities(
            [Fraction(1), Fraction(1, 2)], [Fraction(1), Fraction(1, 2)]
        )
        assert len(result) == 3

    def test_rejects_empty_set(self):
        with pytest.raises(PatternError):
            compose_densities([])


class TestFig6Designs:
    def test_degree_range_covers_87_5(self):
        design_s, design_ss = fig6_designs()
        for design in (design_s, design_ss):
            degrees = supported_degrees(design)
            assert max(degrees) == 1
            assert min(degrees) == Fraction(1, 8)

    def test_ss_hmax_smaller(self):
        design_s, design_ss = fig6_designs()
        assert design_s[0].h_max == 16
        assert max(f.h_max for f in design_ss) == 8

    def test_two_ranks_beat_one_at_iso_flexibility(self):
        """Sec. 5.3: the paper's two-rank point supports at least the
        one-rank design's degrees at under half its muxing tax."""
        one_rank = [GHRange(2, 2, 16)]
        two_rank = [GHRange(2, 2, 4), GHRange(2, 2, 8)]
        assert len(supported_degrees(two_rank)) >= len(
            supported_degrees(one_rank)
        )
        assert mux_cost(two_rank) < mux_cost(one_rank) / 2

    def test_mux_cost_linear_in_hmax(self):
        """Sec. 5.2: tax grows ~linearly with Hmax at fixed G."""
        cost_8 = mux_cost([GHRange(2, 2, 8)])
        cost_16 = mux_cost([GHRange(2, 2, 16)])
        assert cost_16 == pytest.approx(2 * cost_8)

    def test_mux_cost_rejects_empty(self):
        with pytest.raises(PatternError):
            mux_cost([])

    def test_supported_degrees_rejects_empty(self):
        with pytest.raises(PatternError):
            supported_degrees([])
