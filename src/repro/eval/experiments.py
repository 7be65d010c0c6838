"""The experiment registry: one function per paper figure/table.

Every function is pure computation returning a structured result object
with a uniform ``to_payload()``; :mod:`repro.eval.reporting` renders
them as the rows/series the paper reports,
:mod:`repro.eval.artifacts` exposes them behind the declarative
artifact registry, and :mod:`repro.eval.claims` checks the paper's
claims on their results.

Each experiment takes one ``ctx`` argument — an
:class:`~repro.eval.engine.EngineContext` (or anything
:meth:`~repro.eval.engine.EngineContext.coerce` accepts: ``None``, a
bare estimator, or an engine) — which carries the estimator, the
memoizing engine, and the execution policy end-to-end.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.accelerators import (
    REGISTRY,
    DesignRegistry,
    all_designs,
    main_design_names,
)
from repro.accelerators.base import AcceleratorDesign
from repro.arch import area_breakdown, table4
from repro.arch.area import AreaModel
from repro.dnn.models import DnnModel, all_models
from repro.errors import EvaluationError, WorkloadError
from repro.eval.engine import (
    DEFAULT_A_DEGREES,
    DEFAULT_B_DEGREES,
    GEOMEAN_METRICS,
    Cell,
    ContextLike,
    EngineContext,
    KeyedCells,
    Pair,
    SweepEngine,
    SweepResult,
)
from repro.eval.pareto import Point, is_on_frontier, pareto_frontier
from repro.model.metrics import Metrics
from repro.model.workload import (
    MatmulWorkload,
    hss_operand,
)
from repro.pruning.accuracy import AccuracyModel
from repro.sparsity.hss import (
    HSSPattern,
    fig6_designs,
    mux_cost,
    supported_degrees,
)

#: The synthetic sweep of Fig. 13.
A_DEGREES = DEFAULT_A_DEGREES
B_DEGREES = DEFAULT_B_DEGREES

#: Energy-breakdown buckets for Fig. 16(a).
COMPONENT_BUCKETS = {
    "glb_data": "glb",
    "glb_meta": "glb",
    "rf": "rf",
    "accum_buffer": "rf",
    "macs": "mac",
    "rank0_mux": "saf",
    "rank1_addr_mux": "saf",
    "vfmu": "saf",
    "a_select_mux": "saf",
    "b_select_mux": "saf",
    "intersection": "saf",
    "compression_unit": "other",
}


def _bucket(component: str) -> str:
    if component.endswith("_dram"):
        return "dram"
    return COMPONENT_BUCKETS.get(component, "other")


# ----------------------------------------------------------------------
# Fig. 13 / Fig. 14: the synthetic sparsity sweep and its geomeans
# ----------------------------------------------------------------------


def fig13(
    ctx: ContextLike = None,
    size: int = 1024,
    a_degrees: Sequence[float] = A_DEGREES,
    b_degrees: Sequence[float] = B_DEGREES,
) -> SweepResult:
    """Fig. 13: latency/energy/EDP over the synthetic sparsity grid.

    The grid runs through the context's memoizing engine (an estimator
    coerces to its shared engine), so repeated calls under one context —
    ``repro all`` regenerating Fig. 14 from the Fig. 13 sweep — never
    re-evaluate a cell.
    """
    engine = EngineContext.coerce(ctx).engine
    return engine.sweep(
        designs=main_design_names(),
        a_degrees=a_degrees,
        b_degrees=b_degrees,
        m=size, k=size, n=size,
    )


@dataclass(frozen=True)
class Fig14Result:
    """Fig. 14: geomean normalized metrics per design."""

    #: metric -> design -> geomean of the design/baseline ratio.
    geomeans: Dict[str, Dict[str, float]]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rows": [
                {"metric": metric, "design": design, "geomean": value}
                for metric, per_design in self.geomeans.items()
                for design, value in per_design.items()
            ],
        }


def fig14(
    result: Optional[SweepResult] = None, ctx: ContextLike = None
) -> Fig14Result:
    """Fig. 14: geomean normalized EDP / energy / latency / ED^2."""
    result = result if result is not None else fig13(ctx)
    return Fig14Result(
        geomeans={
            metric: result.geomeans(metric)
            for metric in GEOMEAN_METRICS
        }
    )


def fig14_from_context(ctx: ContextLike = None) -> Fig14Result:
    """Fig. 14 computed off a context (the ``fig14`` artifact): the
    Fig. 13 sweep it needs is free under a context that already ran
    it."""
    return fig14(fig13(ctx))


# ----------------------------------------------------------------------
# DNN-level evaluation shared by Fig. 2 and Fig. 15
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelEvaluation:
    """One design on one network at one weight-sparsity degree."""

    design: str
    model: str
    weight_sparsity: float
    per_layer: Dict[str, Metrics]
    total_energy_pj: float
    total_cycles: float

    @property
    def edp(self) -> float:
        return self.total_energy_pj * self.total_cycles


#: A per-layer weight-sparsity override: layer name -> degree.
SparsityProfile = Dict[str, float]


def _profile_degree(value: object, layer: str) -> float:
    """One profile entry normalized to a sparsity degree.

    Accepts a bare degree, ``{"degree": d}``, or ``{"pattern": "G:H"}``
    (whose scheduled degree is ``1 - G/H``; realization then picks the
    design-native structure for that degree, as everywhere else).
    """
    if isinstance(value, dict):
        unknown = set(value) - {"degree", "pattern"}
        if unknown:
            raise WorkloadError(
                f"profile entry {layer!r}: unknown field(s) "
                f"{', '.join(sorted(unknown))}; allowed: degree, pattern"
            )
        if ("degree" in value) == ("pattern" in value):
            raise WorkloadError(
                f"profile entry {layer!r}: give exactly one of "
                f"'degree' or 'pattern'"
            )
        if "pattern" in value:
            match = re.fullmatch(
                r"\s*(\d+)\s*:\s*(\d+)\s*", str(value["pattern"])
            )
            if not match:
                raise WorkloadError(
                    f"profile entry {layer!r}: bad pattern "
                    f"{value['pattern']!r}; expected 'G:H' (e.g. '2:4')"
                )
            g, h = int(match.group(1)), int(match.group(2))
            if not 0 < g <= h:
                raise WorkloadError(
                    f"profile entry {layer!r}: pattern needs 0 < G <= H, "
                    f"got {g}:{h}"
                )
            return 1.0 - g / h
        value = value["degree"]
    try:
        degree = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise WorkloadError(
            f"profile entry {layer!r}: expected a sparsity degree, "
            f"got {value!r}"
        )
    if not 0.0 <= degree < 1.0:
        raise WorkloadError(
            f"profile entry {layer!r}: degree must be in [0, 1), "
            f"got {degree}"
        )
    return degree


def profile_from_dict(
    data: object, source: str = "profile"
) -> SparsityProfile:
    """Normalize an already-parsed profile mapping.

    ``data`` maps layer names to degrees (or ``{"degree": ...}`` /
    ``{"pattern": "G:H"}`` objects): a sweep spec's ``profile``
    (:mod:`repro.eval.sweeps`; the CLI's ``--profile`` file holds the
    same JSON). ``source`` names the origin in error messages.
    :func:`validate_profile` then checks the layer names against a
    concrete model.
    """
    if not isinstance(data, dict) or not data:
        raise WorkloadError(
            f"{source} must be a non-empty JSON object mapping "
            f"layer names to sparsity degrees"
        )
    return {
        str(layer): _profile_degree(value, str(layer))
        for layer, value in data.items()
    }


def validate_profile(
    model: DnnModel, profile: Mapping[str, float]
) -> None:
    """Reject profile entries naming layers the model does not have."""
    known = {layer.name for layer in model.layers}
    unknown = sorted(set(profile) - known)
    if unknown:
        raise WorkloadError(
            f"profile names unknown {model.name} layer(s): "
            f"{', '.join(unknown)}; known layers: "
            f"{', '.join(layer.name for layer in model.layers)}"
        )


#: Keyed layer cells per (design, model identity, degree) — holds
#: strong model and registry references so the id stays valid and the
#: keys are the registry's. Only profile-free requests are memoized
#: (profiles are open-ended mappings).
_model_keys_memo: Dict[
    Tuple[str, int, float], Tuple[DnnModel, DesignRegistry, KeyedCells]
] = {}


def _model_keys(
    engine: SweepEngine,
    design_name: str,
    model: DnnModel,
    weight_sparsity: float,
    profile: Optional[Mapping[str, float]] = None,
) -> KeyedCells:
    """Every layer of ``model`` as one :class:`Cell` (weights as A,
    activations as B, the layer's GEMM shape), realized and keyed by
    :meth:`SweepEngine.key_cells`.

    Prunable layers carry the requested weight sparsity; other layers
    stay dense — which is why dense layers deduplicate across every
    degree of a sweep. A ``profile`` overrides the degree per named
    layer (prunable or not), so one sweep point can mix degrees across
    the network. Profile-free keys are memoized: repeated sweeps of one
    model re-realize nothing.
    """
    memo_key = (design_name, id(model), weight_sparsity)
    if profile is None:
        hit = _model_keys_memo.get(memo_key)
        if hit is not None and hit[0] is model and hit[1] is engine.registry:
            return hit[2]
    cells: List[Cell] = []
    for layer in model.layers:
        if profile is not None and layer.name in profile:
            layer_sparsity = profile[layer.name]
        else:
            layer_sparsity = (
                weight_sparsity if layer.name in model.prunable else 0.0
            )
        cells.append(
            Cell(
                design_name, layer_sparsity, model.activation_sparsity,
                *layer.gemm_shape(),
            )
        )
    keyed = engine.key_cells(cells)
    if profile is None:
        _model_keys_memo[memo_key] = (model, engine.registry, keyed)
    return keyed


def _assemble_model_evaluation(
    design_name: str,
    model: DnnModel,
    weight_sparsity: float,
    winners: Sequence[Optional[Metrics]],
) -> Optional[ModelEvaluation]:
    """Sum the per-layer winners (one per layer of ``model``, in order)
    into a network total; ``None`` when any layer is unsupported."""
    per_layer: Dict[str, Metrics] = {}
    total_energy = 0.0
    total_cycles = 0.0
    for layer, best in zip(model.layers, winners):
        if best is None:
            return None
        per_layer[layer.name] = best
        total_energy += best.energy_pj * layer.gemm_instances
        total_cycles += best.cycles * layer.gemm_instances
    return ModelEvaluation(
        design=design_name,
        model=model.name,
        weight_sparsity=weight_sparsity,
        per_layer=per_layer,
        total_energy_pj=total_energy,
        total_cycles=total_cycles,
    )


def evaluate_model(
    design: AcceleratorDesign,
    model: DnnModel,
    weight_sparsity: float,
    ctx: ContextLike = None,
    profile: Optional[SparsityProfile] = None,
) -> Optional[ModelEvaluation]:
    """Evaluate every GEMM layer of a network on one design.

    All candidate realizations are routed through the context's
    memoizing engine, so repeated layer shapes — within this call,
    across degrees, and across experiments under the same context — are
    evaluated exactly once. Returns ``None`` when any layer has no
    supported realization (e.g. S2TA facing a purely dense layer —
    Sec. 7.3). ``profile`` overrides the weight-sparsity degree for the
    layers it names.
    """
    engine = EngineContext.coerce(ctx).engine
    if profile is not None:
        validate_profile(model, profile)
    keyed = _model_keys(engine, design.name, model, weight_sparsity, profile)
    return _assemble_model_evaluation(
        design.name, model, weight_sparsity, engine.evaluate_keyed(keyed)
    )


#: Weight-sparsity ladders per design approach (Fig. 15): the degrees
#: each co-design approach can realize, with the scheme granularity
#: factor feeding the accuracy model.
DESIGN_LADDERS: Dict[str, Tuple[Tuple[float, ...], float]] = {
    "TC": ((0.0,), 1.0),
    "STC": ((0.5,), 1.06),
    "S2TA": ((0.5, 0.625, 0.75, 0.875), 1.06),
    "DSTC": ((0.5, 0.625, 0.75, 0.8, 0.875), 1.0),
    "HighLight": ((0.5, 0.625, 0.75), 1.04),
}

#: Additional accuracy loss (percentage points) intrinsic to a design's
#: *activation* handling. S2TA requires structured sparse activations,
#: which it produces by dynamically truncating each block of 8 to its
#: top G values — a lossy step (its operand B is pruned, not gated).
#: HighLight/DSTC gate or skip actual zeros losslessly.
DESIGN_ACTIVATION_LOSS_PCT: Dict[str, float] = {
    "TC": 0.0,
    "STC": 0.0,
    "S2TA": 0.25,
    "DSTC": 0.0,
    "HighLight": 0.0,
}


def design_ladder(design_name: str) -> Tuple[float, ...]:
    """The default weight-sparsity ladder for a design in a network
    sweep. Designs without a Fig. 15 ladder entry (e.g. DSSO) use
    HighLight's HSS ladder — they realize degrees the same way."""
    ladder, _ = DESIGN_LADDERS.get(
        design_name, DESIGN_LADDERS["HighLight"]
    )
    return ladder


@dataclass(frozen=True)
class ModelSweepResult:
    """One network swept over designs x weight-sparsity degrees."""

    model: str
    design_order: Tuple[str, ...]
    #: design -> the degrees it was evaluated at.
    degrees: Dict[str, Tuple[float, ...]]
    #: (design, degree) -> evaluation (``None`` when unsupported).
    evaluations: Dict[Tuple[str, float], Optional[ModelEvaluation]]
    #: The normalization point, when the sweep includes dense TC.
    baseline: Optional[Tuple[str, float]] = None

    def rows(self) -> List[Tuple[str, float, Optional[ModelEvaluation]]]:
        """(design, degree, evaluation) in sweep order."""
        return [
            (design, degree, self.evaluations[(design, degree)])
            for design in self.design_order
            for degree in self.degrees[design]
        ]

    def normalized_edp(
        self, design: str, degree: float
    ) -> Optional[float]:
        """Network EDP over the baseline's, or ``None``."""
        if self.baseline is None:
            return None
        evaluation = self.evaluations[(design, degree)]
        base = self.evaluations[self.baseline]
        if evaluation is None or base is None:
            return None
        return evaluation.edp / base.edp

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready structured view: one row per (design, degree)
        network total, plus the resolved grid."""
        rows: List[Dict[str, Any]] = []
        for design, degree, evaluation in self.rows():
            row: Dict[str, Any] = {
                "design": design,
                "weight_sparsity": degree,
            }
            if evaluation is None:
                row.update(
                    cycles=None, energy_pj=None, edp=None,
                    normalized_edp=None, layers=None,
                )
            else:
                row.update(
                    cycles=evaluation.total_cycles,
                    energy_pj=evaluation.total_energy_pj,
                    edp=evaluation.edp,
                    normalized_edp=self.normalized_edp(design, degree),
                    layers=len(evaluation.per_layer),
                )
            rows.append(row)
        return {
            "model": self.model,
            "designs": list(self.design_order),
            "degrees": {
                design: list(degrees)
                for design, degrees in self.degrees.items()
            },
            "baseline": (
                None if self.baseline is None else list(self.baseline)
            ),
            "rows": rows,
        }


#: What ``sweep_model`` accepts as its degree grid: one ladder applied
#: to every design, or a per-design mapping (designs absent from the
#: mapping fall back to their default ladder).
DegreeGrid = Union[Sequence[float], Mapping[str, Sequence[float]]]


def sweep_model(
    model: DnnModel,
    designs: Optional[Sequence[str]] = None,
    degrees: Optional[DegreeGrid] = None,
    ctx: ContextLike = None,
    profile: Optional[SparsityProfile] = None,
) -> ModelSweepResult:
    """Sweep one network over designs x weight-sparsity degrees.

    This is the Fig. 15-per-model workhorse generalized to arbitrary
    grids: every layer of every (design, degree) point is one
    :class:`Cell`, realized and keyed by the engine, and the whole
    sweep is evaluated as **one batch**, so deduplication spans the
    entire network sweep and dense layers (identical at every degree)
    are evaluated once. ``degrees`` overrides the default ladders — a
    sequence applies to every design, a mapping picks degrees per
    design (how Fig. 2 runs its accuracy-matched points as one cached
    sweep); a ``profile`` pins named layers to their own degrees at
    every point.
    """
    engine = EngineContext.coerce(ctx).engine
    if profile is not None:
        validate_profile(model, profile)
    design_order = tuple(designs) if designs else main_design_names()
    if degrees is None:
        per_design: Dict[str, Tuple[float, ...]] = {
            name: design_ladder(name) for name in design_order
        }
    elif isinstance(degrees, Mapping):
        per_design = {
            name: tuple(degrees.get(name, design_ladder(name)))
            for name in design_order
        }
    else:
        per_design = {name: tuple(degrees) for name in design_order}
    baseline: Optional[Tuple[str, float]] = None
    if "TC" in design_order:
        # Dense TC anchors normalization; TC ignores weight sparsity,
        # so any of its degrees is the dense baseline.
        baseline = ("TC", per_design["TC"][0])
    points: List[Tuple[str, float]] = []
    batch = KeyedCells([], [], [])
    for design_name in design_order:
        for degree in per_design[design_name]:
            keyed = _model_keys(engine, design_name, model, degree, profile)
            points.append((design_name, degree))
            batch.keys.extend(keyed.keys)
            batch.sources.extend(keyed.sources)
            batch.spans.extend(keyed.spans)
    winners = engine.evaluate_keyed(batch)
    layers = len(model.layers)
    evaluations: Dict[Tuple[str, float], Optional[ModelEvaluation]] = {}
    for index, (design_name, degree) in enumerate(points):
        evaluations[(design_name, degree)] = _assemble_model_evaluation(
            design_name, model, degree,
            winners[index * layers:(index + 1) * layers],
        )
    return ModelSweepResult(
        model=model.name,
        design_order=design_order,
        degrees=per_design,
        evaluations=evaluations,
        baseline=baseline,
    )


def max_degree_within_loss(
    model: DnnModel,
    ladder: Sequence[float],
    granularity: float,
    budget_pct: float = 0.5,
) -> float:
    """Largest ladder degree keeping accuracy loss within budget.

    This implements the paper's "while ensuring similar accuracy
    (within 0.5% difference)" workload construction for Fig. 2.
    """
    accuracy = AccuracyModel.for_model(model)
    feasible = [
        degree
        for degree in ladder
        if accuracy.loss_pct(degree, granularity) <= budget_pct + 1e-12
    ]
    if not feasible:
        return 0.0
    return max(feasible)


def unstructured_degree_within_loss(
    model: DnnModel, budget_pct: float = 0.5
) -> float:
    """Highest unstructured sparsity within the accuracy budget
    (continuous: solve the calibrated loss curve for the budget)."""
    accuracy = AccuracyModel.for_model(model)
    overshoot = (
        math.log(budget_pct / accuracy.scale + 1.0) / accuracy.steepness
    )
    return min(0.95, accuracy.free_sparsity + overshoot)


# ----------------------------------------------------------------------
# Fig. 2: the motivational accuracy-matched comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Result:
    """Per-model, per-design normalized EDP (accuracy within 0.5%)."""

    #: model -> design -> (weight sparsity used, normalized network EDP)
    results: Dict[str, Dict[str, Tuple[float, float]]]
    #: model -> design -> per-layer normalized EDP (paper's bars)
    per_layer: Dict[str, Dict[str, List[float]]]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rows": [
                {
                    "model": model,
                    "design": design,
                    "weight_sparsity": sparsity,
                    "normalized_edp": edp,
                }
                for model, per_design in self.results.items()
                for design, (sparsity, edp) in per_design.items()
            ],
            "per_layer": {
                model: {
                    design: list(values)
                    for design, values in per_design.items()
                }
                for model, per_design in self.per_layer.items()
            },
        }


#: The designs Fig. 2 compares, paper order.
FIG2_DESIGNS: Tuple[str, ...] = ("TC", "STC", "DSTC", "HighLight")


def accuracy_matched_degrees(
    model: DnnModel, budget_pct: float = 0.5
) -> Dict[str, float]:
    """Per-design weight-sparsity degrees within the accuracy budget.

    The Fig. 2 degree search: each design's realizable ladder is walked
    against the model's calibrated accuracy curve (DSTC's unstructured
    degree solves the curve directly). Purely analytical — the chosen
    degrees are then evaluated through :func:`sweep_model`, so every
    evaluation probe of the search is an engine cache request.
    """
    return {
        "TC": 0.0,
        "STC": max_degree_within_loss(
            model, (0.0, 0.5), 1.06, budget_pct
        ),
        "DSTC": unstructured_degree_within_loss(model, budget_pct),
        "HighLight": max_degree_within_loss(
            model, DESIGN_LADDERS["HighLight"][0], 1.04, budget_pct
        ),
    }


def fig2(ctx: ContextLike = None) -> Fig2Result:
    """Fig. 2: TC/STC/DSTC/HighLight on pruned Transformer-Big and
    ResNet50, accuracy matched within 0.5%.

    The accuracy-matched degrees resolve analytically
    (:func:`accuracy_matched_degrees`), then each model's four points
    run as **one** :func:`sweep_model` batch with a per-design degree
    mapping: one cache probe covers the whole figure, dense layers
    deduplicate across designs, and on a warm persistent cache the
    entire degree search performs zero fresh evaluations.
    """
    ctx = EngineContext.coerce(ctx)
    models = {
        m.name: m for m in all_models() if m.name != "DeiT-small"
    }
    results: Dict[str, Dict[str, Tuple[float, float]]] = {}
    per_layer_out: Dict[str, Dict[str, List[float]]] = {}
    for model_name, model in models.items():
        degrees = accuracy_matched_degrees(model)
        sweep = sweep_model(
            model,
            designs=FIG2_DESIGNS,
            degrees={
                name: (degree,) for name, degree in degrees.items()
            },
            ctx=ctx,
        )
        baseline = (
            None if sweep.baseline is None
            else sweep.evaluations[sweep.baseline]
        )
        if baseline is None:
            # Not an assert: under ``python -O`` asserts are stripped
            # and a None baseline would surface later as an opaque
            # AttributeError on ``baseline.edp``.
            raise EvaluationError(
                f"the dense TC baseline evaluation for {model_name} "
                f"returned None; cannot normalize Fig. 2 EDPs"
            )
        results[model_name] = {}
        per_layer_out[model_name] = {}
        for design_name in FIG2_DESIGNS:
            evaluation = sweep.evaluations[
                (design_name, degrees[design_name])
            ]
            if evaluation is None:
                continue
            results[model_name][design_name] = (
                degrees[design_name],
                evaluation.edp / baseline.edp,
            )
            per_layer_out[model_name][design_name] = [
                (
                    evaluation.per_layer[layer.name].edp
                    / baseline.per_layer[layer.name].edp
                )
                for layer in model.layers
            ]
    return Fig2Result(results=results, per_layer=per_layer_out)


# ----------------------------------------------------------------------
# Fig. 15: EDP vs accuracy-loss Pareto frontiers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoPoint:
    design: str
    weight_sparsity: float
    accuracy_loss_pct: float
    normalized_edp: float

    @property
    def as_point(self) -> Point:
        return (self.accuracy_loss_pct, self.normalized_edp)


@dataclass(frozen=True)
class Fig15Result:
    #: model -> all evaluated (design, degree, loss, EDP) points.
    points: Dict[str, List[ParetoPoint]]

    def frontier(self, model: str) -> List[Point]:
        return pareto_frontier([p.as_point for p in self.points[model]])

    def highlight_on_frontier(self, model: str) -> bool:
        """The paper's headline: every HighLight point is
        non-dominated (within plotting tolerance)."""
        all_points = [p.as_point for p in self.points[model]]
        return all(
            is_on_frontier(p.as_point, all_points, tolerance=0.02)
            for p in self.points[model]
            if p.design == "HighLight"
        )

    def to_payload(self) -> Dict[str, Any]:
        rows: List[Dict[str, Any]] = []
        for model, points in self.points.items():
            frontier = self.frontier(model)
            for point in points:
                rows.append(
                    {
                        "model": model,
                        "design": point.design,
                        "weight_sparsity": point.weight_sparsity,
                        "accuracy_loss_pct": point.accuracy_loss_pct,
                        "normalized_edp": point.normalized_edp,
                        "on_frontier": point.as_point in frontier,
                    }
                )
        return {
            "rows": rows,
            "highlight_on_frontier": {
                model: self.highlight_on_frontier(model)
                for model in self.points
            },
        }


def _pareto_points(
    model: DnnModel, sweep: ModelSweepResult
) -> List[ParetoPoint]:
    """Fold a network sweep into Fig. 15-style Pareto points."""
    accuracy = AccuracyModel.for_model(model)
    if sweep.baseline is None:
        raise EvaluationError(
            f"network sweep of {sweep.model} has no baseline; cannot "
            f"fold it into Pareto points"
        )
    baseline = sweep.evaluations[sweep.baseline]
    if baseline is None:
        raise EvaluationError(
            f"the baseline evaluation {sweep.baseline!r} of "
            f"{sweep.model} returned None; cannot normalize EDPs"
        )
    points: List[ParetoPoint] = []
    for design_name, degree, evaluation in sweep.rows():
        if evaluation is None:
            continue
        _, granularity = DESIGN_LADDERS[design_name]
        loss = accuracy.loss_pct(degree, granularity)
        loss += DESIGN_ACTIVATION_LOSS_PCT[design_name]
        points.append(
            ParetoPoint(
                design=design_name,
                weight_sparsity=degree,
                accuracy_loss_pct=loss,
                normalized_edp=evaluation.edp / baseline.edp,
            )
        )
    return points


def fig15(ctx: ContextLike = None) -> Fig15Result:
    """Fig. 15: the EDP/accuracy-loss trade-off for the three DNNs.

    Each network's design x degree-ladder grid is one batched
    :func:`sweep_model` submission: candidate workloads deduplicate
    across designs and degrees (every dense layer is costed once per
    design), and a persistent-cache context serves the whole figure
    transparently.
    """
    ctx = EngineContext.coerce(ctx)
    out: Dict[str, List[ParetoPoint]] = {}
    for model in all_models():
        sweep = sweep_model(
            model, designs=tuple(DESIGN_LADDERS), ctx=ctx
        )
        out[model.name] = _pareto_points(model, sweep)
    return Fig15Result(points=out)


def ext_efficientnet(ctx: ContextLike = None) -> Fig15Result:
    """Extension experiment: the Fig. 15 study on EfficientNet-B0.

    The paper's Sec. 1 names EfficientNet as a compact model that
    "cannot be pruned as aggressively"; this runs the same
    EDP/accuracy-loss analysis on it. Expected shape: steep accuracy
    loss beyond ~45% sparsity, DSTC worse than dense at the
    accuracy-preserving degrees, HighLight still on the frontier.
    """
    from repro.dnn.models import efficientnet_b0

    ctx = EngineContext.coerce(ctx)
    model = efficientnet_b0()
    sweep = sweep_model(
        model, designs=tuple(DESIGN_LADDERS), ctx=ctx
    )
    return Fig15Result(
        points={model.name: _pareto_points(model, sweep)}
    )


# ----------------------------------------------------------------------
# Fig. 16: sparsity tax (energy breakdown + area breakdown)
# ----------------------------------------------------------------------


#: Fig. 16(a) energy buckets, render order.
FIG16_BUCKETS = ("dram", "glb", "rf", "mac", "saf", "other")


@dataclass(frozen=True)
class Fig16Result:
    #: design -> bucket -> energy (pJ) for the A 75% / B dense workload.
    energy_breakdown: Dict[str, Dict[str, float]]
    #: design -> AreaModel (Fig. 16(b) is the HighLight one).
    areas: Dict[str, AreaModel]

    @property
    def highlight_saf_area_fraction(self) -> float:
        return self.areas["HighLight"].saf_fraction

    def to_payload(self) -> Dict[str, Any]:
        rows: List[Dict[str, Any]] = []
        for design, breakdown in self.energy_breakdown.items():
            row: Dict[str, Any] = {"design": design}
            for bucket in FIG16_BUCKETS:
                row[bucket] = breakdown.get(bucket, 0.0)
            row["total_pj"] = sum(breakdown.values())
            rows.append(row)
        return {
            "rows": rows,
            "areas_um2": {
                design: dict(sorted(area.by_category.items()))
                for design, area in self.areas.items()
            },
            "highlight_saf_area_fraction":
                self.highlight_saf_area_fraction,
        }


def fig16(ctx: ContextLike = None) -> Fig16Result:
    """Fig. 16: energy breakdown (A 75% sparse, B dense) and area.

    The breakdown cell is a Fig. 13 grid point, so under a shared
    context (``repro all``) it is a cache hit, not a re-evaluation.
    """
    engine = EngineContext.coerce(ctx).engine
    names = main_design_names()
    cells = [Cell(name, 0.75, 0.0) for name in names]
    breakdown: Dict[str, Dict[str, float]] = {}
    for name, metrics in zip(names, engine.evaluate_cells(cells)):
        if metrics is None:
            continue
        buckets: Dict[str, float] = {}
        for component, energy in metrics.energy_breakdown_pj.items():
            bucket = _bucket(component)
            buckets[bucket] = buckets.get(bucket, 0.0) + energy
        breakdown[name] = buckets
    areas = {
        resources.arch.name: area_breakdown(resources, engine.estimator)
        for resources in table4()
    }
    return Fig16Result(energy_breakdown=breakdown, areas=areas)


# ----------------------------------------------------------------------
# Fig. 17: dual-side HSS (DSSO) processing speed
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig17Result:
    #: H value of B's C1(2:H) -> (HighLight speed, DSSO speed), both
    #: normalized to dense processing (= 1 / scheduled density).
    speeds: Dict[int, Tuple[float, float]]

    def dsso_gain(self, h: int) -> float:
        highlight_speed, dsso_speed = self.speeds[h]
        return dsso_speed / highlight_speed

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rows": [
                {
                    "h": h,
                    "highlight_speed": highlight_speed,
                    "dsso_speed": dsso_speed,
                    "dsso_gain": self.dsso_gain(h),
                }
                for h, (highlight_speed, dsso_speed) in sorted(
                    self.speeds.items()
                )
            ],
        }


def fig17(ctx: ContextLike = None, size: int = 1024) -> Fig17Result:
    """Fig. 17: HighLight vs DSSO with A C1(dense)->C0(2:4) weights and
    B C1(2:{2<=H<=8})->C0(dense) activations.

    The fourteen (design, workload) pairs go through the engine as one
    batch — memoized like every other experiment.
    """
    engine = EngineContext.coerce(ctx).engine
    pattern_a = HSSPattern.from_ratios((2, 4))
    workloads: List[Tuple[int, MatmulWorkload]] = []
    for h in range(2, 9):
        pattern_b = HSSPattern.from_ratios((4, 4), (2, h))
        workloads.append(
            (
                h,
                MatmulWorkload(
                    m=size, k=size, n=size,
                    a=hss_operand(pattern_a),
                    b=hss_operand(pattern_b),
                    name=f"fig17 H={h}",
                ),
            )
        )
    pairs: List[Pair] = []
    for _, workload in workloads:
        pairs.append(("HighLight", workload))
        pairs.append(("DSSO", workload))
    results = iter(engine.evaluate_workloads(pairs))
    num_macs = engine.design("HighLight").resources.arch.num_macs
    speeds: Dict[int, Tuple[float, float]] = {}
    for h, workload in workloads:
        metrics_hl = next(results)
        metrics_dsso = next(results)
        if metrics_hl is None or metrics_dsso is None:
            raise EvaluationError(
                f"fig17 workload H={h} was unsupported by "
                f"HighLight or DSSO — both must evaluate"
            )
        dense_cycles = workload.dense_products / num_macs
        speeds[h] = (
            dense_cycles / metrics_hl.cycles,
            dense_cycles / metrics_dsso.cycles,
        )
    return Fig17Result(speeds=speeds)


# ----------------------------------------------------------------------
# Fig. 6: design-space analysis (latency degrees + mux overhead)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig6Result:
    #: design name -> sorted (density, normalized latency) markers.
    latency_curves: Dict[str, List[Tuple[float, float]]]
    mux_overhead: Dict[str, float]

    @property
    def overhead_ratio(self) -> float:
        """S over SS muxing overhead (paper: > 2x)."""
        return self.mux_overhead["S"] / self.mux_overhead["SS"]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rows": [
                {
                    "design": name,
                    "density": density,
                    "normalized_latency": latency,
                }
                for name, curve in self.latency_curves.items()
                for density, latency in curve
            ],
            "mux_overhead": dict(self.mux_overhead),
            "overhead_ratio": self.overhead_ratio,
        }


def fig6(ctx: ContextLike = None) -> Fig6Result:
    """Fig. 6(a)/(b): one-rank S vs two-rank SS designs.

    Purely structural — ``ctx`` is accepted for interface uniformity
    but no workload is evaluated.
    """
    design_s, design_ss = fig6_designs()
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for name, families in (("S", design_s), ("SS", design_ss)):
        degrees = supported_degrees(families)
        # Ideal skipping: normalized latency equals scheduled density.
        curves[name] = [(float(d), float(d)) for d in degrees]
    overhead = {
        "S": mux_cost(design_s),
        "SS": mux_cost(design_ss),
    }
    return Fig6Result(latency_curves=curves, mux_overhead=overhead)


# ----------------------------------------------------------------------
# Tables 1-4
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TablesResult:
    """Tables 1-4 as structured rows (Table 3 includes the Sec. 7.5
    DSSO row, matching the printed artifact)."""

    table1: List[Dict[str, str]] = field(default_factory=list)
    table2: List[Dict[str, str]] = field(default_factory=list)
    table3: List[Dict[str, str]] = field(default_factory=list)
    table4: List[Dict[str, Any]] = field(default_factory=list)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rows": [
                {"table": name, **row}
                for name, rows in (
                    ("table1", self.table1),
                    ("table2", self.table2),
                    ("table3", self.table3),
                    ("table4", self.table4),
                )
                for row in rows
            ],
        }


def tables(ctx: ContextLike = None) -> TablesResult:
    """Tables 1-4 in one structured result.

    Purely structural (regenerated from the design/pattern
    definitions); ``ctx`` is accepted for interface uniformity but no
    workload is evaluated.
    """
    return TablesResult(
        table1=table1(),
        table2=table2(),
        table3=table3() + [table3_dsso()],
        table4=table_4(),
    )


def table1() -> List[Dict[str, str]]:
    """Table 1: accelerator-category comparison."""
    return [
        {"category": "Dense", "design": "TC", "sparsity_tax": "N/A",
         "degree_diversity": "N/A"},
        {"category": "Structured Sparse", "design": "STC",
         "sparsity_tax": "Very Low", "degree_diversity": "Low"},
        {"category": "Structured Sparse", "design": "S2TA",
         "sparsity_tax": "Medium", "degree_diversity": "Medium"},
        {"category": "Unstructured Sparse", "design": "DSTC",
         "sparsity_tax": "High", "degree_diversity": "Very High"},
        {"category": "HSS", "design": "HighLight",
         "sparsity_tax": "Low", "degree_diversity": "High"},
    ]


def table2() -> List[Dict[str, str]]:
    """Table 2: conventional vs fibertree-based specifications."""
    from repro.sparsity.library import table2_patterns

    return [
        {
            "source": named.source,
            "conventional": named.conventional_name,
            "fibertree": str(named.spec),
        }
        for named in table2_patterns()
    ]


def table3() -> List[Dict[str, str]]:
    """Table 3: supported sparsity patterns per design."""
    return [
        {"design": design.name, "patterns": design.supported_patterns}
        for design in all_designs()
    ]


def table1_saf_inventory() -> List[Dict[str, str]]:
    """Table 1 quantified: each design's SAF inventory and whether its
    skipping is statically balanced."""
    from repro.model.saf import all_static, design_safs

    rows = []
    for design in all_designs():
        safs = design_safs(design.name)
        rows.append(
            {
                "design": design.name,
                "safs": "; ".join(s.describe() for s in safs) or "none",
                "static_balance": str(all_static(safs)) if safs else "n/a",
            }
        )
    return rows


def table3_dsso() -> Dict[str, str]:
    """The DSSO row used in the Sec. 7.5 study."""
    design = REGISTRY.create("DSSO")
    return {"design": design.name, "patterns": design.supported_patterns}


def table_4() -> List[Dict[str, object]]:
    """Table 4: resource allocation per design."""
    rows = []
    for resources in table4():
        arch = resources.arch
        rf_like = [
            c for c in arch.components
            if c.name in ("rf", "accum_buffer")
        ]
        rows.append(
            {
                "design": arch.name,
                "glb_data_kb": resources.glb_data_bytes // 1024,
                "glb_meta_kb": resources.glb_meta_bytes // 1024,
                "rf": ", ".join(
                    f"{c.count} x {int(c.attribute('capacity_bytes'))} B"
                    for c in rf_like
                ),
                "macs": arch.num_macs,
            }
        )
    return rows
