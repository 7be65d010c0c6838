"""Tests for the workload-shape robustness sweep."""

import pytest

from repro.eval.shapes import (
    SHAPE_GRID,
    ShapeOutcome,
    summarize_shapes,
    sweep_shapes,
)


@pytest.fixture(scope="module")
def outcomes(estimator):
    # A fast subset for unit testing; the full grid is the fig13 claim
    # ``orderings_hold_on_dnn_shapes``.
    return sweep_shapes(
        shapes=((256, 256, 256), (1024, 1024, 128)),
        estimator=estimator,
        parity_tolerance=0.10,
    )


class TestSweep:
    def test_one_outcome_per_shape(self, outcomes):
        assert len(outcomes) == 2

    def test_orderings_hold(self, outcomes):
        for outcome in outcomes:
            assert outcome.highlight_best
            assert outcome.dense_parity

    def test_sparse_gains_substantial(self, outcomes):
        for outcome in outcomes:
            assert outcome.sparse_gain_vs_dense > 5.0

    def test_grid_includes_paper_cube(self):
        assert (1024, 1024, 1024) in SHAPE_GRID

    def test_summary_lists_shapes(self, outcomes):
        text = summarize_shapes(outcomes)
        assert "256x256x256" in text
        assert "gain" in text

    def test_outcome_fields(self, outcomes):
        assert isinstance(outcomes[0], ShapeOutcome)
        assert len(outcomes[0].shape) == 3
