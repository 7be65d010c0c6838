"""The paper's claims as checks on artifact results.

Each function here is one registered :class:`~repro.eval.artifacts.Claim`
check: ``check(result, ctx) -> (measured, passed)``, where ``result``
is the artifact's structured result, ``ctx`` the run's
:class:`~repro.eval.engine.EngineContext` (checks that need a
related result, such as Fig. 14's headline gains needing the Fig. 13
sweep, get it from the context's memoizing engine for free), and
``measured`` a short string for the report's claims table.

The registry names these by reference, so nothing imports this module
until a claim is checked (``repro report`` and the tier-1 suite). Like
the artifacts, the checks run without numpy.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.eval import experiments as E
from repro.utils import geomean

Outcome = Tuple[str, bool]

#: Relative tolerance for "equals" claims on analytical ratios.
_REL = 1e-6

#: The sparse baselines the headline gains compare against.
_SPARSE_BASELINES = ("STC", "DSTC", "S2TA")


def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=_REL)


def _pct(degree: float) -> str:
    return f"{degree:.0%}"


def _cell(cell: Tuple[float, float]) -> str:
    return f"A={_pct(cell[0])}, B={_pct(cell[1])}"


# ----------------------------------------------------------------------
# Fig. 2
# ----------------------------------------------------------------------


def _fig2_edp(result: E.Fig2Result, model: str, design: str) -> float:
    return result.results[model][design][1]


def fig2_stc_beats_dstc_on_transformer(
    result: E.Fig2Result, ctx: Any
) -> Outcome:
    stc = _fig2_edp(result, "Transformer-Big", "STC")
    dstc = _fig2_edp(result, "Transformer-Big", "DSTC")
    return f"STC {stc:.3f} vs DSTC {dstc:.3f}", stc < dstc


def fig2_dstc_beats_stc_on_resnet(
    result: E.Fig2Result, ctx: Any
) -> Outcome:
    dstc = _fig2_edp(result, "ResNet50", "DSTC")
    stc = _fig2_edp(result, "ResNet50", "STC")
    return f"DSTC {dstc:.3f} vs STC {stc:.3f}", dstc < stc


def fig2_highlight_lowest_on_both(
    result: E.Fig2Result, ctx: Any
) -> Outcome:
    parts = []
    passed = True
    for model, per_design in result.results.items():
        highlight = per_design["HighLight"][1]
        best_other = min(
            edp for design, (_, edp) in per_design.items()
            if design != "HighLight"
        )
        passed = passed and highlight <= best_other + 1e-12
        parts.append(
            f"{model} {highlight:.3f} vs best other {best_other:.3f}"
        )
    return "; ".join(parts), passed


def fig2_accuracy_matched_degrees(
    result: E.Fig2Result, ctx: Any
) -> Outcome:
    resnet = result.results["ResNet50"]
    transformer = result.results["Transformer-Big"]
    return (
        f"DSTC {_pct(resnet['DSTC'][0])} vs "
        f"{_pct(transformer['DSTC'][0])}, HighLight "
        f"{_pct(resnet['HighLight'][0])} vs "
        f"{_pct(transformer['HighLight'][0])}",
        resnet["DSTC"][0] > transformer["DSTC"][0]
        and resnet["HighLight"][0] >= transformer["HighLight"][0],
    )


# ----------------------------------------------------------------------
# Fig. 6
# ----------------------------------------------------------------------


def fig6_fifteen_degrees_each(result: E.Fig6Result, ctx: Any) -> Outcome:
    counts = {
        design: len(curve)
        for design, curve in result.latency_curves.items()
    }
    return (
        ", ".join(f"{design} {n}" for design, n in counts.items()),
        all(n == 15 for n in counts.values()),
    )


def fig6_overhead_ratio_above_2(
    result: E.Fig6Result, ctx: Any
) -> Outcome:
    ratio = result.overhead_ratio
    return f"{ratio:.2f}x", ratio > 2.0


def fig6_latency_equals_density(
    result: E.Fig6Result, ctx: Any
) -> Outcome:
    points = [
        point
        for curve in result.latency_curves.values()
        for point in curve
    ]
    worst = max(abs(latency - density) for density, latency in points)
    return (
        f"max |latency - density| {worst:.3g} over {len(points)} points",
        all(_close(latency, density) for density, latency in points),
    )


# ----------------------------------------------------------------------
# Fig. 13
# ----------------------------------------------------------------------


def fig13_highlight_best_edp_every_cell(result: Any, ctx: Any) -> Outcome:
    worst = 0.0
    worst_cell: Optional[Tuple[float, float]] = None
    for cell, row in result.normalized("edp").items():
        others = [
            value for design, value in row.items()
            if design != "HighLight" and value is not None
        ]
        ratio = row["HighLight"] / min(others)
        if ratio > worst:
            worst, worst_cell = ratio, cell
    where = f" at {_cell(worst_cell)}" if worst_cell is not None else ""
    return (
        f"worst HighLight / best-other EDP {worst:.3f}{where}",
        worst <= 1.02,
    )


def fig13_highlight_dense_parity(result: Any, ctx: Any) -> Outcome:
    dense = result.normalized("edp")[(0.0, 0.0)]["HighLight"]
    return f"{dense:.3f}x dense EDP", abs(dense - 1.0) <= 0.02


def fig13_stc_capped_at_2x_speed(result: Any, ctx: Any) -> Outcome:
    stc = result.normalized("cycles")[(0.75, 0.0)]["STC"]
    return f"{stc:.3f}x dense cycles at {_cell((0.75, 0.0))}", _close(
        stc, 0.5
    )


def fig13_highlight_structured_speedups(result: Any, ctx: Any) -> Outcome:
    cycles = result.normalized("cycles")
    half = cycles[(0.5, 0.0)]["HighLight"]
    quarter = cycles[(0.75, 0.0)]["HighLight"]
    return (
        f"{half:.3f}x dense cycles at A=50%, {quarter:.3f}x at A=75%",
        _close(half, 0.5) and _close(quarter, 0.25),
    )


def fig13_dstc_worse_than_dense_at_low_sparsity(
    result: Any, ctx: Any
) -> Outcome:
    edp = result.normalized("edp")
    cells = ((0.0, 0.0), (0.0, 0.25))
    values = [edp[cell]["DSTC"] for cell in cells]
    return (
        "; ".join(
            f"{value:.2f}x dense EDP at {_cell(cell)}"
            for cell, value in zip(cells, values)
        ),
        all(value > 1.0 for value in values),
    )


def fig13_dstc_wins_speed_at_high_sparsity(
    result: Any, ctx: Any
) -> Outcome:
    row = result.normalized("cycles")[(0.75, 0.75)]
    return (
        f"DSTC {row['DSTC']:.3f} vs HighLight {row['HighLight']:.3f} "
        f"dense cycles at {_cell((0.75, 0.75))}",
        row["DSTC"] < row["HighLight"],
    )


def fig13_s2ta_unsupported_on_dense_cells(
    result: Any, ctx: Any
) -> Outcome:
    edp = result.normalized("edp")
    dense_a = ((0.0, 0.0), (0.0, 0.25))
    unsupported = [edp[cell]["S2TA"] is None for cell in dense_a]
    runs_sparse_a = edp[(0.5, 0.0)]["S2TA"] is not None
    return (
        f"unsupported at {sum(unsupported)}/{len(dense_a)} dense-A "
        f"cells; {'runs' if runs_sparse_a else 'unsupported'} at "
        f"{_cell((0.5, 0.0))}",
        all(unsupported) and runs_sparse_a,
    )


def fig13_orderings_survive_cost_perturbation(
    result: Any, ctx: Any
) -> Outcome:
    from repro.eval.sensitivity import sweep_sensitivity

    outcomes = sweep_sensitivity()
    failed = [
        f"{o.constant} x{o.scale:.1f}" for o in outcomes if not o.all_hold
    ]
    held = len(outcomes) - len(failed)
    measured = f"{held}/{len(outcomes)} perturbations hold"
    if failed:
        measured += f" (fail: {', '.join(failed)})"
    return measured, not failed


def fig13_orderings_hold_on_dnn_shapes(result: Any, ctx: Any) -> Outcome:
    from repro.eval.shapes import sweep_shapes

    outcomes = sweep_shapes(engine=ctx.engine, parity_tolerance=0.10)
    failed = [
        "x".join(map(str, o.shape))
        for o in outcomes
        if not (
            o.highlight_best
            and o.dense_parity
            and o.sparse_gain_vs_dense > 5.0
        )
    ]
    least_gain = min(o.sparse_gain_vs_dense for o in outcomes)
    measured = (
        f"{len(outcomes) - len(failed)}/{len(outcomes)} shapes hold; "
        f"least gain vs dense {least_gain:.1f}x"
    )
    if failed:
        measured += f" (fail: {', '.join(failed)})"
    return measured, not failed


# ----------------------------------------------------------------------
# Fig. 14
# ----------------------------------------------------------------------

#: Fig. 14 metrics on which HighLight's geomean is the lowest (its
#: latency is comparable-to-best: dual-side skippers are faster at
#: extreme sparsity).
_FIG14_BEST_METRICS = ("edp", "ed2", "energy_pj")


def fig14_highlight_best_geomean_all_metrics(
    result: E.Fig14Result, ctx: Any
) -> Outcome:
    parts = []
    passed = True
    for metric in _FIG14_BEST_METRICS:
        per_design = result.geomeans[metric]
        best = min(per_design, key=per_design.__getitem__)
        passed = passed and per_design["HighLight"] == per_design[best]
        parts.append(
            f"{metric} {per_design['HighLight']:.3f} (lowest: {best})"
        )
    return "; ".join(parts), passed


def _gains(ctx: Any) -> Dict[str, Tuple[float, float]]:
    sweep = E.fig13(ctx)
    return {
        design: sweep.gain_over(design)
        for design in ("TC",) + _SPARSE_BASELINES
    }


def fig14_headline_gains(result: E.Fig14Result, ctx: Any) -> Outcome:
    gains = _gains(ctx)
    geomean_tc, max_tc = gains["TC"]
    combined = geomean([gains[d][0] for d in _SPARSE_BASELINES])
    return (
        f"{geomean_tc:.1f}x (up to {max_tc:.1f}x) vs dense; "
        f"{combined:.1f}x vs sparse designs",
        5.0 <= geomean_tc <= 8.0
        and 15.0 <= max_tc <= 30.0
        and 2.0 <= combined <= 4.0,
    )


def fig14_all_gains_at_least_parity(
    result: E.Fig14Result, ctx: Any
) -> Outcome:
    gains = _gains(ctx)
    return (
        ", ".join(
            f"{design} {gains[design][0]:.1f}x"
            for design in _SPARSE_BASELINES
        ),
        all(gains[design][0] >= 1.0 for design in _SPARSE_BASELINES),
    )


# ----------------------------------------------------------------------
# Fig. 15 (and the EfficientNet-B0 extension of it)
# ----------------------------------------------------------------------


def _designs(result: E.Fig15Result, model: str) -> set:
    return {p.design for p in result.points[model]}


def _frontier_outcome(result: E.Fig15Result) -> Outcome:
    flags = {
        model: result.highlight_on_frontier(model)
        for model in result.points
    }
    return (
        ", ".join(
            f"{model}: {'on' if flag else 'OFF'}"
            for model, flag in flags.items()
        ),
        all(flags.values()),
    )


def fig15_highlight_on_all_frontiers(
    result: E.Fig15Result, ctx: Any
) -> Outcome:
    return _frontier_outcome(result)


def fig15_s2ta_absent_from_attention_models(
    result: E.Fig15Result, ctx: Any
) -> Outcome:
    models = ("DeiT-small", "Transformer-Big")
    present = [m for m in models if "S2TA" in _designs(result, m)]
    return (
        f"S2TA points on {', '.join(present) or 'neither'}",
        not present,
    )


def fig15_s2ta_present_on_resnet(
    result: E.Fig15Result, ctx: Any
) -> Outcome:
    count = sum(
        p.design == "S2TA" for p in result.points["ResNet50"]
    )
    return f"{count} S2TA points on ResNet50", count > 0


def fig15_dstc_worse_than_dense_on_compact_models(
    result: E.Fig15Result, ctx: Any
) -> Outcome:
    worst = max(
        p.normalized_edp
        for p in result.points["DeiT-small"]
        if p.design == "DSTC"
    )
    return f"DSTC up to {worst:.2f}x dense EDP on DeiT-small", worst > 1.0


def fig15_loss_grows_with_sparsity(
    result: E.Fig15Result, ctx: Any
) -> Outcome:
    shrinking = []
    for model, points in result.points.items():
        highlight = sorted(
            (p for p in points if p.design == "HighLight"),
            key=lambda p: p.weight_sparsity,
        )
        losses = [p.accuracy_loss_pct for p in highlight]
        if losses != sorted(losses):
            shrinking.append(model)
    return (
        "monotone on every model" if not shrinking
        else f"not monotone on {', '.join(shrinking)}",
        not shrinking,
    )


def fig15_efficientnet_on_frontier(
    result: E.Fig15Result, ctx: Any
) -> Outcome:
    return _frontier_outcome(E.ext_efficientnet(ctx))


def fig15_efficientnet_dstc_near_dense(
    result: E.Fig15Result, ctx: Any
) -> Outcome:
    extension = E.ext_efficientnet(ctx)
    dstc = [
        p.normalized_edp
        for p in extension.points["EfficientNet-B0"]
        if p.design == "DSTC"
    ]
    return (
        f"DSTC {min(dstc):.2f}-{max(dstc):.2f}x dense EDP",
        min(dstc) < 1.0 and max(dstc) > 0.9,
    )


# ----------------------------------------------------------------------
# Fig. 16
# ----------------------------------------------------------------------


def fig16_saf_area_share_near_5_7(
    result: E.Fig16Result, ctx: Any
) -> Outcome:
    share = result.highlight_saf_area_fraction
    return f"{share:.1%}", abs(share - 0.057) <= 0.015


def fig16_highlight_lowest_energy(
    result: E.Fig16Result, ctx: Any
) -> Outcome:
    totals = {
        design: sum(buckets.values())
        for design, buckets in result.energy_breakdown.items()
    }
    lowest = min(totals, key=totals.__getitem__)
    return (
        f"lowest total energy: {lowest}",
        totals["HighLight"] == totals[lowest],
    )


def fig16_dstc_rf_dominated(result: E.Fig16Result, ctx: Any) -> Outcome:
    buckets = result.energy_breakdown["DSTC"]
    largest = max(buckets, key=buckets.__getitem__)
    share = buckets[largest] / sum(buckets.values())
    return (
        f"largest DSTC bucket: {largest} ({share:.0%})",
        buckets["rf"] == buckets[largest],
    )


def fig16_highlight_saf_energy_small(
    result: E.Fig16Result, ctx: Any
) -> Outcome:
    buckets = result.energy_breakdown["HighLight"]
    share = buckets["saf"] / sum(buckets.values())
    return f"{share:.1%} of HighLight energy", share < 0.05


# ----------------------------------------------------------------------
# Fig. 17
# ----------------------------------------------------------------------


def fig17_highlight_flat_2x(result: E.Fig17Result, ctx: Any) -> Outcome:
    speeds = [highlight for highlight, _ in result.speeds.values()]
    return (
        f"{'/'.join(sorted({f'{speed:.2f}x' for speed in speeds}))} "
        f"over H={min(result.speeds)}..{max(result.speeds)}",
        all(_close(speed, 2.0) for speed in speeds),
    )


def fig17_dsso_speed_scales_with_h(
    result: E.Fig17Result, ctx: Any
) -> Outcome:
    off = [
        h for h, (_, dsso) in result.speeds.items() if not _close(dsso, h)
    ]
    return (
        "DSSO speed = H for every H" if not off
        else f"DSSO speed != H at H={', '.join(map(str, off))}",
        not off,
    )


def fig17_dsso_2x_at_common_degree(
    result: E.Fig17Result, ctx: Any
) -> Outcome:
    gain = result.dsso_gain(4)
    return f"{gain:.2f}x", _close(gain, 2.0)
