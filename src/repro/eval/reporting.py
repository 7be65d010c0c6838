"""Render experiment results as the rows/series the paper reports."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.findings import LintResult
    from repro.eval.engine import SweepResult
    from repro.eval.experiments import (
        Fig2Result,
        Fig6Result,
        Fig14Result,
        Fig15Result,
        Fig16Result,
        Fig17Result,
        ModelSweepResult,
        TablesResult,
    )

#: Output formats every artifact supports.
FORMATS = ("text", "json", "csv", "md")


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Monospace table with per-column padding."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(widths[index]) for index, cell in enumerate(cells)
        ).rstrip()

    separator = "  ".join("-" * w for w in widths)
    return "\n".join(
        [line(headers), separator] + [line(row) for row in rows]
    )


def _fmt(value: Optional[float], digits: int = 3) -> str:
    return "n/s" if value is None else f"{value:.{digits}f}"


def markdown_section(title: str, name: str, body: str) -> str:
    """One artifact as a composable markdown section.

    A ``##`` heading (so sections nest under a document's ``#`` title),
    a regeneration hint naming the artifact, and the canonical text
    rendering fenced verbatim — sections stack into an EXPERIMENTS.md
    with no per-artifact renderer code.
    """
    return (
        f"## {title}\n\n"
        f"Regenerate with `python -m repro artifact {name} "
        f"--format md`.\n\n"
        f"```\n{body}\n```"
    )


def render_tables(result: TablesResult) -> str:
    """Tables 1-4, titled and stacked (the ``tables`` artifact)."""
    sections = [
        format_table(
            ["category", "design", "sparsity tax", "degree diversity"],
            [
                [r["category"], r["design"], r["sparsity_tax"],
                 r["degree_diversity"]]
                for r in result.table1
            ],
        ),
        format_table(
            ["source", "conventional", "fibertree spec"],
            [
                [r["source"], r["conventional"], r["fibertree"]]
                for r in result.table2
            ],
        ),
        format_table(
            ["design", "patterns"],
            [[r["design"], r["patterns"]] for r in result.table3],
        ),
        format_table(
            ["design", "GLB data (KB)", "GLB meta (KB)", "RF", "MACs"],
            [
                [r["design"], str(r["glb_data_kb"]),
                 str(r["glb_meta_kb"]), str(r["rf"]), str(r["macs"])]
                for r in result.table4
            ],
        ),
    ]
    titles = ["Table 1", "Table 2", "Table 3", "Table 4"]
    return "\n\n".join(
        f"{title}\n{section}" for title, section in zip(titles, sections)
    )


def render_fig13(result: SweepResult, metric: str = "edp") -> str:
    """The Fig. 13 grid for one metric, normalized to TC."""
    normalized = result.normalized(metric)
    headers = ["A sparsity", "B sparsity"] + list(result.design_order)
    rows: List[List[str]] = []
    for (sparsity_a, sparsity_b), per_design in sorted(normalized.items()):
        rows.append(
            [f"{sparsity_a:.0%}", f"{sparsity_b:.0%}"]
            + [_fmt(per_design[d]) for d in result.design_order]
        )
    title = f"Fig. 13 — normalized {metric} (lower is better, TC = 1)"
    return title + "\n" + format_table(headers, rows)


def render_fig13_artifact(result: SweepResult) -> str:
    """The ``fig13`` artifact: the grid for EDP, energy and cycles,
    then HighLight's gain over TC."""
    parts = [
        render_fig13(result, metric)
        for metric in ("edp", "energy_pj", "cycles")
    ]
    geomean_tc, max_tc = result.gain_over("TC")
    parts.append(
        f"HighLight vs TC: geomean {geomean_tc:.1f}x, "
        f"up to {max_tc:.1f}x (paper: 6.4x / 20.4x)"
    )
    return "\n\n".join(parts)


def render_sweep(result: SweepResult, metric: str = "edp") -> str:
    """A custom sweep grid for one metric, normalized to the sweep's
    own baseline design (the CLI ``sweep`` subcommand's view)."""
    normalized = result.normalized(metric)
    headers = ["A sparsity", "B sparsity"] + list(result.design_order)
    rows: List[List[str]] = []
    for (sparsity_a, sparsity_b), per_design in sorted(normalized.items()):
        rows.append(
            [f"{sparsity_a:.0%}", f"{sparsity_b:.0%}"]
            + [_fmt(per_design[d]) for d in result.design_order]
        )
    title = (
        f"Sweep — normalized {metric} "
        f"(lower is better, {result.baseline} = 1)"
    )
    geomeans = result.geomeans(metric)
    footer = "geomean: " + "  ".join(
        f"{design}={geomeans[design]:.3f}"
        for design in result.design_order
    )
    return title + "\n" + format_table(headers, rows) + "\n" + footer


def render_model_sweep(result: ModelSweepResult) -> str:
    """A network sweep: per (design, degree) totals and normalized EDP
    (the ``repro sweep --model`` subcommand's view)."""
    headers = ["design", "weight sparsity", "cycles", "energy (uJ)",
               "normalized EDP"]
    rows: List[List[str]] = []
    for design, degree, evaluation in result.rows():
        if evaluation is None:
            rows.append([design, f"{degree:.1%}", "n/s", "n/s", "n/s"])
            continue
        normalized = result.normalized_edp(design, degree)
        rows.append(
            [
                design,
                f"{degree:.1%}",
                f"{evaluation.total_cycles:.3e}",
                f"{evaluation.total_energy_pj / 1e6:.1f}",
                "-" if normalized is None else f"{normalized:.3f}",
            ]
        )
    baseline = (
        "raw EDP (no TC baseline in sweep)"
        if result.baseline is None
        else f"TC @ {result.baseline[1]:.0%} = 1"
    )
    title = (
        f"Network sweep — {result.model} "
        f"(lower is better, {baseline})"
    )
    return title + "\n" + format_table(headers, rows)


def render_fig14(result: Fig14Result) -> str:
    """The Fig. 14 geomean bars."""
    geomeans = result.geomeans
    designs = list(next(iter(geomeans.values())).keys())
    headers = ["metric"] + designs
    rows = [
        [metric] + [f"{per_design[d]:.3f}" for d in designs]
        for metric, per_design in geomeans.items()
    ]
    return "Fig. 14 — geomean normalized metrics\n" + format_table(
        headers, rows
    )


def render_fig2(result: Fig2Result) -> str:
    """The Fig. 2 motivational comparison."""
    headers = ["model", "design", "weight sparsity", "normalized EDP"]
    rows = []
    for model, per_design in result.results.items():
        for design, (sparsity, edp) in per_design.items():
            rows.append(
                [model, design, f"{sparsity:.1%}", f"{edp:.3f}"]
            )
    return (
        "Fig. 2 — accuracy-matched (<0.5% loss) normalized EDP\n"
        + format_table(headers, rows)
    )


def render_fig6(result: Fig6Result) -> str:
    lines = ["Fig. 6 — one-rank S vs two-rank SS designs"]
    for name, curve in result.latency_curves.items():
        degrees = ", ".join(f"{d:.3f}" for d, _ in curve)
        lines.append(
            f"  {name}: {len(curve)} supported densities: {degrees}"
        )
    lines.append(
        f"  muxing overhead: S={result.mux_overhead['S']:.1f}, "
        f"SS={result.mux_overhead['SS']:.1f} "
        f"(S/SS = {result.overhead_ratio:.2f}x)"
    )
    return "\n".join(lines)


def render_fig15(result: Fig15Result) -> str:
    headers = ["model", "design", "weight sparsity", "loss (pct)",
               "normalized EDP", "on frontier"]
    rows = []
    for model, points in result.points.items():
        frontier = result.frontier(model)
        for point in sorted(
            points, key=lambda p: (p.design, p.weight_sparsity)
        ):
            rows.append(
                [
                    model,
                    point.design,
                    f"{point.weight_sparsity:.1%}",
                    f"{point.accuracy_loss_pct:.2f}",
                    f"{point.normalized_edp:.3f}",
                    "*" if point.as_point in frontier else "",
                ]
            )
    return "Fig. 15 — EDP vs accuracy loss\n" + format_table(headers, rows)


def render_fig16(result: Fig16Result) -> str:
    buckets = ["dram", "glb", "rf", "mac", "saf", "other"]
    headers = ["design"] + buckets + ["total (uJ)"]
    rows = []
    for design, breakdown in result.energy_breakdown.items():
        total = sum(breakdown.values())
        rows.append(
            [design]
            + [
                f"{breakdown.get(bucket, 0.0) / total:.1%}"
                for bucket in buckets
            ]
            + [f"{total / 1e6:.1f}"]
        )
    area = result.areas["HighLight"]
    lines = [
        "Fig. 16(a) — energy breakdown (A 75% sparse, B dense)",
        format_table(headers, rows),
        "",
        "Fig. 16(b) — HighLight area breakdown",
    ]
    for category, value in sorted(area.by_category.items()):
        if category == "dram":
            continue
        lines.append(
            f"  {category:8s} {value / 1e6:6.3f} mm^2 "
            f"({area.fraction(category):.1%})"
        )
    lines.append(f"  SAF area share: {area.saf_fraction:.1%}")
    return "\n".join(lines)


def render_fig17(result: Fig17Result) -> str:
    headers = ["B pattern", "HighLight speed", "DSSO speed", "DSSO gain"]
    rows = []
    for h, (highlight_speed, dsso_speed) in sorted(result.speeds.items()):
        rows.append(
            [
                f"C1(2:{h})",
                f"{highlight_speed:.2f}x",
                f"{dsso_speed:.2f}x",
                f"{result.dsso_gain(h):.2f}x",
            ]
        )
    return (
        "Fig. 17 — normalized processing speed (dense = 1x)\n"
        + format_table(headers, rows)
    )


def render_lint(result: "LintResult") -> str:
    """Findings as a location-sorted table plus a one-line summary.

    The summary always prints — a clean run still reports how many
    files and rules it covered, so "no output" can never be confused
    with "did not run".
    """
    parts: List[str] = []
    if result.findings:
        headers = ["location", "rule", "message"]
        rows = [
            [f.location, f.rule, f.message] for f in result.findings
        ]
        parts.append(format_table(headers, rows))
    parts.append(
        f"{len(result.findings)} finding(s) across {result.files} "
        f"file(s), {len(result.rules)} rule(s)"
    )
    return "\n".join(parts)
