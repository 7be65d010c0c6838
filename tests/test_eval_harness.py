"""Tests for workload realization and cell evaluation (Sec. 7.1 rules)."""

import pytest

from repro.accelerators import DSTC, STC, S2TA, TC, HighLight
from repro.errors import UnsupportedWorkloadError
from repro.eval.harness import (
    canonical_hss,
    evaluate_cell,
    realize_workloads,
    workload_for_layer,
)
from repro.model.workload import Structure


class TestCanonicalPatterns:
    def test_dense(self):
        assert canonical_hss(0.0) is None

    def test_known_degrees(self):
        for degree in (0.5, 0.625, 0.75):
            pattern = canonical_hss(degree)
            assert pattern.sparsity == pytest.approx(degree)

    def test_unknown_degree(self):
        with pytest.raises(KeyError):
            canonical_hss(0.3)


class TestRealization:
    def test_tc_gets_dense(self):
        (workload,) = realize_workloads("TC", 0.75, 0.5)
        assert workload.a.is_dense and workload.b.is_dense

    def test_dstc_gets_unstructured(self):
        (workload,) = realize_workloads("DSTC", 0.75, 0.5)
        assert workload.a.structure is Structure.UNSTRUCTURED
        assert workload.a.sparsity == pytest.approx(0.75)

    def test_stc_gets_hss_both_orientations(self):
        workloads = realize_workloads("STC", 0.0, 0.5)
        assert len(workloads) == 2
        # The swapped orientation exposes the structured 50% operand.
        assert workloads[1].a.structure is Structure.HSS

    def test_s2ta_gets_g8(self):
        workloads = realize_workloads("S2TA", 0.5, 0.75)
        assert workloads[0].a.pattern.rank(0).h == 8

    def test_highlight_swaps_only_canonical_degrees(self):
        assert len(realize_workloads("HighLight", 0.0, 0.5)) == 2
        assert len(realize_workloads("HighLight", 0.0, 0.25)) == 1

    def test_unknown_design(self):
        with pytest.raises(UnsupportedWorkloadError):
            realize_workloads("Eyeriss", 0.0, 0.0)

    def test_designs_share_operand_objects(self):
        stc = realize_workloads("STC", 0.5, 0.3)
        highlight = realize_workloads("HighLight", 0.5, 0.3)
        assert stc[0].a is highlight[0].a
        assert stc[0].b is highlight[0].b

    def test_returns_a_fresh_list_over_immutable_candidates(self):
        first = realize_workloads("STC", 0.5, 0.3)
        first.clear()
        assert len(realize_workloads("STC", 0.5, 0.3)) == 2
        assert isinstance(STC().realize(0.5, 0.3), tuple)

    def test_layer_shapes_preserved(self):
        workloads = workload_for_layer("TC", (128, 576, 784), 0.5, 0.6)
        assert (workloads[0].m, workloads[0].k, workloads[0].n) == (
            128, 576, 784,
        )


class TestEvaluateCell:
    def test_returns_best_orientation(self, estimator):
        """A-dense/B-sparse: STC's best realization swaps operands."""
        direct = evaluate_cell(STC(), 0.5, 0.0, estimator, 256, 256, 256)
        swapped = evaluate_cell(STC(), 0.0, 0.5, estimator, 256, 256, 256)
        assert swapped.edp == pytest.approx(direct.edp)

    def test_s2ta_unsupported_on_dense(self, estimator):
        assert evaluate_cell(S2TA(), 0.0, 0.0, estimator) is None

    def test_s2ta_supported_after_swap(self, estimator):
        assert evaluate_cell(S2TA(), 0.0, 0.5, estimator) is not None

    def test_all_designs_on_sparse_cell(self, estimator):
        for design in (TC(), STC(), DSTC(), S2TA(), HighLight()):
            metrics = evaluate_cell(
                design, 0.5, 0.5, estimator, 256, 256, 256
            )
            assert metrics is not None
            assert metrics.energy_pj > 0
