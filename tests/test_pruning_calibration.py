"""Tests for the accuracy-model calibration experiment."""

import pytest

from repro.pruning import TrainConfig
from repro.pruning.calibration import (
    CalibrationPoint,
    check_granularity_ordering,
    check_monotone_in_sparsity,
    mean_loss_by_family,
    run_calibration,
    scheme_ladders,
    summarize_calibration,
)


class TestLadders:
    def test_three_families(self):
        assert set(scheme_ladders()) == {
            "unstructured", "hss", "channel",
        }

    def test_comparable_degrees(self):
        ladders = scheme_ladders()
        degrees = {
            family: [round(s.sparsity, 3) for s in ladder]
            for family, ladder in ladders.items()
        }
        assert degrees["unstructured"] == degrees["channel"]
        assert degrees["hss"] == degrees["unstructured"]


class TestChecks:
    def points(self, *losses_by_family):
        out = []
        for family, losses in losses_by_family:
            for degree, loss in zip((0.5, 0.75), losses):
                out.append(
                    CalibrationPoint(
                        scheme=family, granularity=1.0,
                        target_sparsity=degree,
                        measured_sparsity=degree, loss_pct=loss,
                    )
                )
        return out

    def test_monotone_detects_violation(self):
        bad = self.points(("hss", (5.0, 1.0)))
        assert not check_monotone_in_sparsity(bad)

    def test_monotone_allows_slack(self):
        noisy = self.points(("hss", (1.0, 0.5)))
        assert check_monotone_in_sparsity(noisy, slack_pct=1.0)

    def test_granularity_detects_violation(self):
        bad = self.points(
            ("channel", (0.0, 0.0)), ("unstructured", (5.0, 5.0))
        )
        assert not check_granularity_ordering(bad)

    def test_mean_loss(self):
        points = self.points(("hss", (1.0, 3.0)))
        assert mean_loss_by_family(points)["hss"] == 2.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def points(self):
        # Small-but-real run (the full ladder runs in benchmarks).
        return run_calibration(
            TrainConfig(hidden=48, epochs=8),
            num_samples=900, num_features=32, num_classes=4,
        )

    def test_all_families_measured(self, points):
        assert {p.scheme for p in points} == {
            "unstructured", "hss", "channel",
        }

    def test_assumptions_hold(self, points):
        assert check_monotone_in_sparsity(points, slack_pct=2.0)
        assert check_granularity_ordering(points, slack_pct=2.0)

    def test_channel_clearly_worst(self, points):
        means = mean_loss_by_family(points)
        assert means["channel"] > means["hss"]
        assert means["channel"] > means["unstructured"]

    def test_hss_tracks_unstructured_on_full_ladder(self):
        """The full default ladder: HSS loses about what unstructured
        pruning loses, and channel pruning far more."""
        means = mean_loss_by_family(run_calibration())
        assert abs(means["hss"] - means["unstructured"]) < 2.0
        assert means["channel"] > means["hss"] + 5.0

    def test_summary_renders(self, points):
        text = summarize_calibration(points)
        assert "channel" in text and "hss" in text
