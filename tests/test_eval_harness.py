"""Tests for the evaluation rules of paper Sec. 7.1.1: each design's
degree realization, the engine's realize-and-key step, and its
best-candidate pick per cell."""

import pytest

from repro.accelerators import REGISTRY, STC
from repro.accelerators.realization import canonical_hss
from repro.errors import UnsupportedWorkloadError
from repro.eval.engine import Cell, SweepEngine
from repro.model.workload import Structure


def realize(design, sparsity_a, sparsity_b):
    return REGISTRY.shared(design).realize(sparsity_a, sparsity_b)


@pytest.fixture
def engine(estimator):
    return SweepEngine(estimator)


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
        ((a, b, swapped),) = realize("TC", 0.75, 0.5)
        assert a.is_dense and b.is_dense
        assert not swapped

    def test_dstc_gets_unstructured(self):
        ((a, _, _),) = realize("DSTC", 0.75, 0.5)
        assert a.structure is Structure.UNSTRUCTURED
        assert a.sparsity == pytest.approx(0.75)

    def test_stc_gets_hss_both_orientations(self):
        candidates = realize("STC", 0.0, 0.5)
        assert len(candidates) == 2
        # The swapped orientation exposes the structured 50% operand.
        a, _, swapped = candidates[1]
        assert swapped
        assert a.structure is Structure.HSS

    def test_s2ta_gets_g8(self):
        candidates = realize("S2TA", 0.5, 0.75)
        assert candidates[0][0].pattern.rank(0).h == 8

    def test_highlight_swaps_only_canonical_degrees(self):
        assert len(realize("HighLight", 0.0, 0.5)) == 2
        assert len(realize("HighLight", 0.0, 0.25)) == 1

    def test_unknown_design(self, engine):
        with pytest.raises(UnsupportedWorkloadError, match="Eyeriss"):
            engine.key_cells([Cell("Eyeriss", 0.0, 0.0)])

    def test_designs_share_operand_objects(self):
        stc = realize("STC", 0.5, 0.3)
        highlight = realize("HighLight", 0.5, 0.3)
        assert stc[0][0] is highlight[0][0]
        assert stc[0][1] is highlight[0][1]

    def test_returns_a_fresh_list_over_immutable_candidates(self, engine):
        first = engine.key_cells([Cell("STC", 0.5, 0.3)])
        first.keys.clear()
        assert len(engine.key_cells([Cell("STC", 0.5, 0.3)]).keys) == 2
        candidates = STC().realize(0.5, 0.3)
        assert isinstance(candidates, tuple)
        assert STC().realize(0.5, 0.3) == candidates

    def test_layer_shapes_preserved(self, engine):
        keyed = engine.key_cells([Cell("TC", 0.5, 0.6, 128, 576, 784)])
        ((design, key),) = keyed.keys
        assert design == "TC"
        assert key[:3] == (128, 576, 784)


class TestKeying:
    def test_swapped_candidate_keys_the_transposed_product(self, engine):
        keyed = engine.key_cells([Cell("STC", 0.0, 0.5, 128, 576, 784)])
        assert keyed.spans == [2]
        (_, direct), (_, swapped) = keyed.keys
        assert direct[:3] == (128, 576, 784)
        assert swapped[:3] == (784, 576, 128)
        # Each orientation realizes B's 50% in STC's native pattern.
        assert (direct[3][0], swapped[3][0]) == ("dense", "hss")

    def test_spans_count_each_cells_candidates(self, engine):
        cells = [
            Cell(design, 0.5, 0.3)
            for design in ("TC", "STC", "DSTC", "S2TA", "HighLight")
        ]
        keyed = engine.key_cells(cells)
        assert keyed.spans == [
            len(realize(cell.design, 0.5, 0.3)) for cell in cells
        ]
        assert len(keyed.keys) == len(keyed.sources) == sum(keyed.spans)


class TestEvaluateCell:
    def test_returns_best_orientation(self, engine):
        """A-dense/B-sparse: STC's best realization swaps operands."""
        direct, swapped = engine.evaluate_cells([
            Cell("STC", 0.5, 0.0, 256, 256, 256),
            Cell("STC", 0.0, 0.5, 256, 256, 256),
        ])
        assert swapped.edp == pytest.approx(direct.edp)

    def test_s2ta_unsupported_on_dense(self, engine):
        assert engine.evaluate_cells([Cell("S2TA", 0.0, 0.0)]) == [None]

    def test_s2ta_supported_after_swap(self, engine):
        (metrics,) = engine.evaluate_cells([Cell("S2TA", 0.0, 0.5)])
        assert metrics is not None

    def test_all_designs_on_sparse_cell(self, engine):
        cells = [
            Cell(design, 0.5, 0.5, 256, 256, 256)
            for design in ("TC", "STC", "DSTC", "S2TA", "HighLight")
        ]
        for metrics in engine.evaluate_cells(cells):
            assert metrics is not None
            assert metrics.energy_pj > 0

    def test_lowest_edp_candidate_wins(self, engine):
        """The winner is the lowest-EDP supported candidate, first on
        ties (:func:`~repro.eval.engine.best_metrics`)."""
        cell = Cell("HighLight", 0.625, 0.75, 64, 128, 256)
        keyed = engine.key_cells([cell])
        (best,) = engine.evaluate_keyed(keyed)
        candidates = [engine._cache[key] for key in keyed.keys]
        supported = [m for m in candidates if m is not None]
        assert best is min(supported, key=lambda metrics: metrics.edp)
