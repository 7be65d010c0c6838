"""Tests for the result renderers."""

import pytest

from repro.eval import experiments as E
from repro.eval.engine import SweepResult
from repro.eval.reporting import (
    format_table,
    render_fig2,
    render_fig6,
    render_fig13,
    render_fig14,
    render_fig15,
    render_fig16,
    render_fig17,
    render_sweep,
)
from repro.model.metrics import Metrics


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbbb"], [["xx", "y"]])
        lines = text.splitlines()
        assert lines[0].startswith("a ")
        assert len(lines) == 3

    def test_separator_row(self):
        text = format_table(["col"], [["v"]])
        assert "---" in text.splitlines()[1]

    @pytest.mark.parametrize("headers, rows", [
        (["a", "bbbb"], [["xx", "y"]]),
        (["design", "x", "y"], [["TC", "1.000", "n/s"],
                                ["HighLight", "0.125", "12.500"]]),
        (["a", "b", "c"], [["x", "y", "z"], ["long cell"], [],
                           ["", "trailing  "], ["1", "", ""]]),
        (["only"], []),
        (["a", "b"], [[], []]),
        (["%s", "%d"], [["%%", "{}"], ["%(x)s", "{0}"]]),
        ([], []),
    ])
    def test_matches_per_cell_ljust(self, headers, rows):
        assert format_table(headers, rows) == _ljust_table(headers, rows)

    def test_row_longer_than_headers_still_fails(self):
        with pytest.raises(IndexError):
            format_table(["a"], [["x", "y"]])


def _ljust_table(headers, rows):
    """The table as the per-cell ``ljust`` renderer laid it out."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return "  ".join(
            cell.ljust(widths[index]) for index, cell in enumerate(cells)
        ).rstrip()

    separator = "  ".join("-" * w for w in widths)
    return "\n".join(
        [line(headers), separator] + [line(row) for row in rows]
    )


def _per_cell_sweep(result, metric="edp"):
    """``render_sweep`` as it formatted every cell one at a time."""
    def fmt(value):
        return "n/s" if value is None else f"{value:.3f}"

    normalized = result.normalized(metric)
    headers = ["A sparsity", "B sparsity"] + list(result.design_order)
    rows = [
        [f"{a:.0%}", f"{b:.0%}"]
        + [fmt(per_design[d]) for d in result.design_order]
        for (a, b), per_design in sorted(normalized.items())
    ]
    geomeans = result.geomeans(metric)
    footer = "geomean: " + "  ".join(
        f"{design}={geomeans[design]:.3f}"
        for design in result.design_order
    )
    return (
        f"Sweep — normalized {metric} (lower is better, "
        f"{result.baseline} = 1)\n" + _ljust_table(headers, rows)
        + "\n" + footer
    )


def _metrics(cycles):
    return Metrics(design="TC", workload="w", cycles=cycles,
                   energy_breakdown_pj={"mac": 4.0})


class TestRenderSweepBytes:
    def test_signed_zero_degree_and_unsupported_cell(self):
        sweep = SweepResult(
            cells={
                (-0.0, 0.0): {"TC": _metrics(8.0), "S2TA": None},
                (0.5, -0.0): {"TC": _metrics(8.0), "S2TA": _metrics(2.0)},
                (0.75, 0.5): {"TC": _metrics(8.0), "S2TA": _metrics(8.0)},
                (0.0, 0.5): {"TC": _metrics(4.0), "S2TA": _metrics(2.0)},
            },
            design_order=("TC", "S2TA"),
        )
        text = render_sweep(sweep)
        assert text == _per_cell_sweep(sweep)
        rows = text.splitlines()[3:-1]
        assert rows[0].split()[:4] == ["-0%", "0%", "1.000", "n/s"]
        assert rows[1].split()[:2] == ["0%", "50%"]
        assert rows[2].split()[:2] == ["50%", "-0%"]

    def test_engine_grid(self, estimator):
        sweep = E.fig13(
            estimator, size=256, a_degrees=(0.0, 0.5, 0.75),
            b_degrees=(0.0, 0.5, 0.75),
        )
        for metric in ("edp", "cycles"):
            assert render_sweep(sweep, metric) == _per_cell_sweep(
                sweep, metric
            )


class TestRenderers:
    @pytest.fixture(scope="class")
    def sweep(self, estimator):
        return E.fig13(
            estimator, size=256, a_degrees=(0.0, 0.75),
            b_degrees=(0.0, 0.75),
        )

    def test_fig13_contains_designs_and_cells(self, sweep):
        text = render_fig13(sweep, "edp")
        assert "HighLight" in text
        assert "75%" in text
        assert "n/s" in text  # S2TA's unsupported dense cell

    def test_fig14_lists_metrics(self, sweep):
        text = render_fig14(E.fig14(sweep))
        assert "edp" in text and "ed2" in text

    def test_fig6_text(self):
        text = render_fig6(E.fig6())
        assert "15 supported densities" in text
        assert "x" in text.splitlines()[-1]

    def test_fig16_text(self, estimator):
        text = render_fig16(E.fig16(estimator))
        assert "SAF area share" in text
        assert "%" in text

    def test_fig17_text(self, estimator):
        text = render_fig17(E.fig17(estimator, size=128))
        assert "C1(2:4)" in text
        assert "2.00x" in text

    def test_fig2_text(self, estimator):
        text = render_fig2(E.fig2(estimator))
        assert "ResNet50" in text and "Transformer-Big" in text

    def test_fig15_text(self, estimator):
        text = render_fig15(E.fig15(estimator))
        assert "on frontier" in text
        assert "DeiT-small" in text
