"""Tests for the experiment registry (one class per figure/table).

Each class holds the structural tests of one artifact, plus one
``test_<claim id>`` per paper claim the artifact registers (attached
at the bottom of this module): the claim's registered check is the
only place the claim is asserted.
"""

import pytest

from repro.eval import experiments as E
from repro.eval.artifacts import ARTIFACTS


@pytest.fixture(scope="module")
def sweep(paper_run):
    return paper_run[1]["fig13"]


class TestFig13:
    def test_grid_shape(self, sweep):
        assert len(sweep.cells) == len(E.A_DEGREES) * len(E.B_DEGREES)
        assert sweep.design_order == (
            "TC", "STC", "DSTC", "S2TA", "HighLight",
        )

    def test_baseline_normalizes_to_one(self, sweep):
        for row in sweep.normalized("edp").values():
            assert row["TC"] == pytest.approx(1.0)


class TestFig14:
    """Claims only."""


class TestFig2(object):
    @pytest.fixture(scope="class")
    def result(self, paper_run):
        return paper_run[1]["fig2"]

    def test_models_evaluated(self, result):
        assert set(result.results) == {"ResNet50", "Transformer-Big"}

    def test_per_layer_bars_present(self, result):
        for model, per_design in result.per_layer.items():
            for design, bars in per_design.items():
                assert len(bars) > 0

    def test_none_baseline_raises_explicitly(self, monkeypatch):
        """A None TC baseline must raise an EvaluationError, not rely
        on ``assert`` (stripped under ``python -O``, where it would
        surface later as an AttributeError on ``baseline.edp``)."""
        from repro.errors import EvaluationError, ReproError

        def unsupported_sweep(model, designs=None, degrees=None,
                              ctx=None, profile=None):
            grid = {name: tuple(degrees[name]) for name in designs}
            return E.ModelSweepResult(
                model=model.name,
                design_order=tuple(designs),
                degrees=grid,
                evaluations={
                    (name, degree): None
                    for name, ladder in grid.items()
                    for degree in ladder
                },
                baseline=("TC", grid["TC"][0]),
            )

        monkeypatch.setattr(E, "sweep_model", unsupported_sweep)
        with pytest.raises(EvaluationError, match="TC baseline"):
            E.fig2()
        assert issubclass(EvaluationError, ReproError)


class TestFig15:
    """Claims only."""


class TestFig16:
    def test_tc_has_no_saf_energy(self, paper_run):
        buckets = paper_run[1]["fig16"].energy_breakdown["TC"]
        assert buckets.get("saf", 0.0) == 0.0


class TestFig17:
    def test_h_range(self, paper_run):
        assert sorted(paper_run[1]["fig17"].speeds) == list(range(2, 9))


class TestFig6:
    """Claims only."""


class TestTables:
    def test_table1_rows(self):
        rows = E.table1()
        assert len(rows) == 5
        assert rows[-1]["design"] == "HighLight"
        assert rows[-1]["sparsity_tax"] == "Low"

    def test_table2_matches_library(self):
        rows = E.table2()
        assert len(rows) == 7
        assert any("3:4" in row["fibertree"] for row in rows)

    def test_table3_lists_all_designs(self):
        designs = [row["design"] for row in E.table3()]
        assert designs == ["TC", "STC", "DSTC", "S2TA", "HighLight"]

    def test_table3_highlight_patterns(self):
        rows = {row["design"]: row["patterns"] for row in E.table3()}
        assert "C1(4:{4<=H<=8})" in rows["HighLight"]
        assert "unstructured" in rows["DSTC"]

    def test_table3_dsso_row(self):
        row = E.table3_dsso()
        assert "C1(2:{2<=H<=8})" in row["patterns"]

    def test_table1_saf_inventory(self):
        rows = {r["design"]: r for r in E.table1_saf_inventory()}
        assert rows["TC"]["safs"] == "none"
        assert "gating" in rows["HighLight"]["safs"]
        assert rows["HighLight"]["static_balance"] == "True"
        assert rows["DSTC"]["static_balance"] == "False"

    def test_table4_resources(self):
        rows = {row["design"]: row for row in E.table_4()}
        assert rows["TC"]["glb_data_kb"] == 320
        assert rows["HighLight"]["glb_meta_kb"] == 64
        assert all(row["macs"] == 1024 for row in rows.values())


def _claim_test(name, claim):
    def test(self, paper_run):
        ctx, results = paper_run
        measured, passed = claim.check(results[name], ctx)
        assert passed, f"{claim.paper}: measured {measured}"

    test.__doc__ = claim.paper
    return test


# Every registered claim becomes ``Test<Artifact>::test_<claim id>``.
for _info in ARTIFACTS.infos():
    _cls = globals()[f"Test{_info.name.capitalize()}"]
    for _claim in _info.claims:
        setattr(_cls, f"test_{_claim.id}", _claim_test(_info.name, _claim))
