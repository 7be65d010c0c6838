"""Tests for the analytical accelerator design models.

These encode the per-design behaviours the paper attributes to each
baseline: TC's obliviousness, STC's 2x cap and single-sidedness, DSTC's
accumulation tax and imbalance, S2TA's dual-structured requirement, and
HighLight's hierarchical skipping + gating.
"""

import pytest

from repro.accelerators import (
    DSSO,
    DSTC,
    STC,
    S2TA,
    TC,
    HighLight,
    all_designs,
)
from repro.errors import UnsupportedWorkloadError
from repro.eval.engine import Cell, SweepEngine
from repro.model.workload import (
    MatmulWorkload,
    dense_operand,
    hss_operand,
    structured_operand,
    synthetic_workload,
    unstructured_operand,
)
from repro.sparsity import HSSPattern

SIZE = 256


def workload(a, b, m=SIZE, k=SIZE, n=SIZE):
    return MatmulWorkload(m=m, k=k, n=n, a=a, b=b, name="t")


def hss(sparsity):
    patterns = {
        0.5: HSSPattern.from_ratios((2, 4), (4, 4)),
        0.75: HSSPattern.from_ratios((2, 4), (4, 8)),
    }
    return hss_operand(patterns[sparsity])


class TestTC:
    def test_supports_everything(self):
        assert TC().supports(workload(unstructured_operand(0.9),
                                      dense_operand()))

    def test_oblivious_to_sparsity(self, estimator):
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        sparse = TC().evaluate(
            workload(unstructured_operand(0.75), unstructured_operand(0.5)),
            estimator,
        )
        assert dense.cycles == sparse.cycles
        assert dense.energy_pj == pytest.approx(sparse.energy_pj)

    def test_cycles_are_dense_products_over_macs(self, estimator):
        metrics = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        assert metrics.cycles == pytest.approx(SIZE**3 / 1024)

    def test_full_utilization(self, estimator):
        metrics = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        assert metrics.utilization == 1.0


class TestSTC:
    def test_2x_speedup_on_24(self, estimator):
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        sparse = STC().evaluate(
            workload(hss(0.5), dense_operand()), estimator
        )
        assert dense.cycles / sparse.cycles == pytest.approx(2.0)

    def test_speedup_capped_at_2x(self, estimator):
        """75% sparse weights still only get the 2:4 cap (Sec. 2.2.3)."""
        at_50 = STC().evaluate(
            workload(hss(0.5), dense_operand()), estimator
        )
        at_75 = STC().evaluate(
            workload(hss(0.75), dense_operand()), estimator
        )
        assert at_50.cycles == pytest.approx(at_75.cycles)

    def test_cannot_exploit_b_sparsity(self, estimator):
        dense_b = STC().evaluate(
            workload(hss(0.5), dense_operand()), estimator
        )
        sparse_b = STC().evaluate(
            workload(hss(0.5), unstructured_operand(0.6)), estimator
        )
        assert dense_b.cycles == pytest.approx(sparse_b.cycles)

    def test_dense_mode_near_tc(self, estimator):
        """STC at EDP parity with TC on dense layers."""
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        stc = STC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        assert stc.edp / dense.edp == pytest.approx(1.0, abs=0.1)


class TestDSTC:
    def test_dual_side_skipping(self, estimator):
        metrics = DSTC().evaluate(
            workload(unstructured_operand(0.75), unstructured_operand(0.5)),
            estimator,
        )
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        # Effectual fraction is 0.125 but imbalance keeps it above that.
        assert metrics.cycles < dense.cycles
        assert metrics.cycles > 0.125 * dense.cycles

    def test_imperfect_utilization_when_sparse(self, estimator):
        metrics = DSTC().evaluate(
            workload(unstructured_operand(0.75), unstructured_operand(0.75)),
            estimator,
        )
        assert metrics.utilization < 0.6

    def test_high_tax_at_dense(self, estimator):
        """DSTC's EDP is far worse than TC's on dense workloads."""
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        dstc = DSTC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        assert dstc.edp / dense.edp > 3.0

    def test_accumulation_dominates_energy(self, estimator):
        metrics = DSTC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        accum = metrics.energy_breakdown_pj["accum_buffer"]
        assert accum > 0.5 * metrics.energy_pj


class TestS2TA:
    def test_requires_sparse_a(self):
        assert not S2TA().supports(
            workload(dense_operand(), unstructured_operand(0.75))
        )

    def test_supports_half_sparse_a(self):
        assert S2TA().supports(
            workload(structured_operand(4, 8), dense_operand())
        )

    def test_dual_side_speedup_with_b_cap(self, estimator):
        """B-side skipping is capped at 2x (scheduled >= 4:8)."""
        base = S2TA().evaluate(
            workload(structured_operand(4, 8), dense_operand()), estimator
        )
        both = S2TA().evaluate(
            workload(structured_operand(4, 8), structured_operand(1, 8)),
            estimator,
        )
        assert base.cycles / both.cycles == pytest.approx(2.0)

    def test_quantizes_to_eighths(self, estimator):
        exact = S2TA().evaluate(
            workload(structured_operand(4, 8), dense_operand()), estimator
        )
        rounded = S2TA().evaluate(
            workload(structured_operand(2, 8),
                     unstructured_operand(0.05)),
            estimator,
        )
        assert rounded.cycles == pytest.approx(exact.cycles / 2)


class TestHighLight:
    def test_structured_speedup_exact(self, estimator):
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        metrics = HighLight().evaluate(
            workload(hss(0.75), dense_operand()), estimator
        )
        assert dense.cycles / metrics.cycles == pytest.approx(4.0)
        assert metrics.utilization == 1.0

    def test_dense_parity(self, estimator):
        """EDP parity with TC on dense layers (headline claim)."""
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        metrics = HighLight().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        assert metrics.edp / dense.edp == pytest.approx(1.0, abs=0.05)

    def test_b_gating_saves_energy_not_time(self, estimator):
        dense_b = HighLight().evaluate(
            workload(hss(0.5), dense_operand()), estimator
        )
        sparse_b = HighLight().evaluate(
            workload(hss(0.5), unstructured_operand(0.6)), estimator
        )
        assert sparse_b.cycles == pytest.approx(dense_b.cycles)
        assert sparse_b.energy_pj < dense_b.energy_pj

    def test_rejects_unstructured_a(self):
        assert not HighLight().supports(
            workload(unstructured_operand(0.5), dense_operand())
        )

    def test_conservative_b_haircut(self, estimator):
        """The Fig. 13 footnote: 25% B sparsity exploited as 20%."""
        at_25 = HighLight().evaluate(
            workload(hss(0.5), unstructured_operand(0.25)), estimator
        )
        dense_b = HighLight().evaluate(
            workload(hss(0.5), dense_operand()), estimator
        )
        gated = at_25.energy_breakdown_pj["macs"]
        full = dense_b.energy_breakdown_pj["macs"]
        assert gated / full == pytest.approx(
            0.8 + 0.2 * 0.12 / 2.2, rel=0.02
        )

    def test_unsupported_degree_rounds_up(self, estimator):
        """A 3:4 (25% sparse) operand runs at the nearest supported
        density (0.8), not at 0.75."""
        metrics = HighLight().evaluate(
            workload(hss_operand(HSSPattern.from_ratios((3, 4))),
                     dense_operand()),
            estimator,
        )
        dense = TC().evaluate(
            workload(dense_operand(), dense_operand()), estimator
        )
        assert metrics.cycles / dense.cycles == pytest.approx(0.8)


class TestDSSO:
    def a_pattern(self):
        return hss_operand(HSSPattern.from_ratios((2, 4)))

    def b_pattern(self, h):
        return hss_operand(HSSPattern.from_ratios((4, 4), (2, h)))

    def test_supports_alternating_dense_ranks(self):
        assert DSSO().supports(
            workload(self.a_pattern(), self.b_pattern(4))
        )

    def test_rejects_doubly_sparse_same_rank(self):
        doubly = hss_operand(HSSPattern.from_ratios((2, 4), (2, 4)))
        assert not DSSO().supports(workload(doubly, self.b_pattern(4)))

    def test_dual_side_speedup(self, estimator):
        """Fig. 17: 2x faster than HighLight at B C1(2:4)."""
        wl = workload(self.a_pattern(), self.b_pattern(4))
        dsso = DSSO().evaluate(wl, estimator)
        highlight = HighLight().evaluate(wl, estimator)
        assert highlight.cycles / dsso.cycles == pytest.approx(2.0)

    def test_evaluate_unsupported_raises(self, estimator):
        doubly = hss_operand(HSSPattern.from_ratios((2, 4), (2, 4)))
        with pytest.raises(UnsupportedWorkloadError):
            DSSO().evaluate(workload(doubly, self.b_pattern(4)), estimator)


class TestBestOrientation:
    """The Sec. 7.1.1 operand-swap rule: each design realizes a cell in
    every orientation worth trying and the engine keeps the lowest
    EDP."""

    def test_swap_helps_stc(self, estimator):
        """B sparse + A dense: swapping exposes the structured operand."""
        engine = SweepEngine(estimator)
        keyed = engine.key_cells([Cell("STC", 0.0, 0.5, SIZE, SIZE, SIZE)])
        (best,) = engine.evaluate_keyed(keyed)
        direct, swapped = (engine._cache[key] for key in keyed.keys)
        assert best is swapped
        assert swapped.edp < direct.edp

    def test_no_swap_when_unsupported(self, estimator):
        engine = SweepEngine(estimator)
        keyed = engine.key_cells([Cell("S2TA", 0.0, 0.0)])
        assert engine.evaluate_keyed(keyed) == [None]
        # Both orientations were tried, and neither is supported.
        assert keyed.spans == [2]
        assert [engine._cache[key] for key in keyed.keys] == [None, None]

    def test_all_designs_have_names_and_patterns(self):
        for design in all_designs():
            assert design.name
            assert design.supported_patterns

    def test_synthetic_workload_all_supported_by_tc(self, estimator):
        for sa in (0.0, 0.5, 0.75):
            wl = synthetic_workload(sa, 0.5, size=128)
            assert TC().evaluate(wl, estimator).supported
