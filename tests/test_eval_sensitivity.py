"""Tests for the cost-model sensitivity analysis."""

import pytest

from repro.energy.tables import default_table
from repro.errors import EvaluationError
from repro.eval.sensitivity import (
    PERTURBABLE,
    perturb_table,
    summarize,
    sweep_sensitivity,
)


class TestPerturbTable:
    def test_scales_constant(self):
        table = perturb_table(default_table(), "mac_pj", 2.0)
        assert table.mac_pj == pytest.approx(default_table().mac_pj * 2)

    def test_other_constants_untouched(self):
        table = perturb_table(default_table(), "mac_pj", 2.0)
        assert table.sram_read_pj == default_table().sram_read_pj

    def test_unknown_constant(self):
        with pytest.raises(EvaluationError):
            perturb_table(default_table(), "banana_pj", 2.0)

    def test_bad_scale(self):
        with pytest.raises(EvaluationError):
            perturb_table(default_table(), "mac_pj", 0.0)


class TestSweep:
    @pytest.fixture(scope="class")
    def outcomes(self):
        # A focused subset keeps the test fast; the full grid is the
        # fig13 claim ``orderings_survive_cost_perturbation``.
        return sweep_sensitivity(
            scales=(0.7, 1.3),
            constants=("mac_pj", "dram_read_pj", "intersection_pj"),
        )

    def test_headlines_robust(self, outcomes):
        """Every headline ordering survives +/-30% perturbations."""
        assert all(outcome.all_hold for outcome in outcomes)

    def test_one_outcome_per_combination(self, outcomes):
        assert len(outcomes) == 6

    def test_summary_format(self, outcomes):
        text = summarize(outcomes)
        assert "mac_pj" in text
        assert "True" in text

    def test_perturbable_constants_exist_on_table(self):
        table = default_table()
        for name in PERTURBABLE:
            assert hasattr(table, name)
