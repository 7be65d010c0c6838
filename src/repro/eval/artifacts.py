"""The declarative artifact registry: paper figures/tables as specs.

Mirrors :mod:`repro.accelerators.registry`: each artifact registers a
``compute(ctx) -> result`` function under its name via
:func:`register_artifact`, together with the structured result type it
produces and its text renderer.
Computation and presentation are fully separated — ``compute`` returns
a result dataclass with a uniform ``to_payload()``, and :func:`render`
turns any result into ``text`` (byte-identical to the historical CLI
output), ``json`` (the payload), or ``csv`` (the payload's ``rows``).

The paper's artifacts name their compute function, result type and
renderer as ``"module:attr"`` references, resolved on first access:
the registry itself holds only names and titles, so ``repro list``
reads it without importing :mod:`repro.eval.experiments` or the
evaluation engine.

Each artifact also declares the paper claims its result must
reproduce, as :class:`Claim` s whose checks live in
:mod:`repro.eval.claims` (again named by reference). ``repro report``
and the tier-1 suite both run these registered checks, so every claim
is stated and checked in exactly one place.

Because every ``compute`` takes one
:class:`~repro.eval.engine.EngineContext`, a whole ``repro all``
invocation shares a single memoizing engine — and therefore inherits
the persistent cache and run recording without any artifact-specific
wiring.

Execution is event-driven: a :class:`RunPlan` built from the registry
yields typed :data:`RunEvent` s — :class:`ArtifactStarted`, then
:class:`ArtifactFinished` carrying the structured result plus a scoped
per-artifact :class:`~repro.eval.engine.EngineStats` delta, then one
:class:`RunFinished` with the run totals. Consumers range from the
streaming CLI (``repro all --stream`` renders each artifact the moment
its compute returns) to run records (schema v4 embeds the per-artifact
deltas) to plain batch callers (:func:`compute_artifacts` just drains
the events).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import EvaluationError
from repro.eval import reporting as R
from repro.eval.reporting import FORMATS
from repro.lazy import Ref, Resolving

if TYPE_CHECKING:  # pragma: no cover
    from repro.eval.engine import EngineContext, EngineStats


@dataclass(frozen=True)
class Claim(Resolving):
    """One paper claim an artifact's result must reproduce.

    ``check`` (``check(result, ctx) -> (measured, passed)``, with
    ``measured`` a short human-readable string) resolves from
    ``check_ref`` on first access. ``ctx`` is the run's
    :class:`~repro.eval.engine.EngineContext`, so a check can reuse
    anything the run already computed.
    """

    _RESOLVED: ClassVar[Dict[str, str]] = {"check": "check_ref"}

    #: Unique across the registry.
    id: str
    #: What the paper states.
    paper: str
    check_ref: Ref


@dataclass(frozen=True)
class ArtifactInfo(Resolving):
    """One registered artifact: its name and title, and where its
    compute function and renderers live.

    ``compute`` (``compute(ctx) -> result``), ``result_type`` (the
    structured result type ``compute`` returns — also how
    :func:`render` finds the text renderer for a bare result) and
    ``render_text`` (the historical CLI text output) resolve from
    their references on first access and are kept after that.
    """

    _RESOLVED: ClassVar[Dict[str, str]] = {
        "compute": "compute_ref",
        "result_type": "result_ref",
        "render_text": "text_ref",
    }

    name: str
    compute_ref: Ref
    result_ref: Ref
    text_ref: Ref
    #: One-line description for listings.
    title: str = ""
    #: The paper claims this artifact's result must reproduce.
    claims: Tuple[Claim, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)

    def render(self, result: Any, fmt: str = "text") -> str:
        """The result in one of the supported output formats."""
        if fmt == "text":
            return self.render_text(result)
        if fmt == "json":
            return json.dumps(result.to_payload(), indent=2)
        if fmt == "csv":
            return _payload_csv(result.to_payload())
        if fmt == "md":
            return R.markdown_section(
                self.title or self.name, self.name,
                self.render_text(result),
            )
        raise EvaluationError(
            f"unknown format {fmt!r}; supported: {', '.join(FORMATS)}"
        )


class ArtifactRegistry:
    """An ordered, dict-like name -> :class:`ArtifactInfo` mapping.

    Iteration yields names in registration order (the paper order), so
    the registry drops into every place the old ``ARTIFACTS`` dict of
    closures was used.
    """

    def __init__(self) -> None:
        self._artifacts: Dict[str, ArtifactInfo] = {}

    def register(self, info: ArtifactInfo) -> ArtifactInfo:
        if info.name in self._artifacts:
            raise EvaluationError(
                f"artifact already registered: {info.name!r}"
            )
        ids = [claim.id for claim in info.claims]
        taken = {
            claim.id
            for other in self._artifacts.values()
            for claim in other.claims
        }
        duplicates = sorted(
            {i for i in ids if ids.count(i) > 1 or i in taken}
        )
        if duplicates:
            raise EvaluationError(
                f"claim id(s) already registered: {', '.join(duplicates)}"
            )
        self._artifacts[info.name] = info
        return info

    def __getitem__(self, name: str) -> ArtifactInfo:
        try:
            return self._artifacts[name]
        except KeyError:
            raise KeyError(
                f"unknown artifact {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def get(self, name: str) -> Optional[ArtifactInfo]:
        return self._artifacts.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._artifacts)

    def infos(self) -> Tuple[ArtifactInfo, ...]:
        return tuple(self._artifacts.values())

    def for_result(self, result: Any) -> ArtifactInfo:
        """The artifact whose ``result_type`` is ``type(result)``."""
        for info in self._artifacts.values():
            if info.result_type is type(result):
                return info
        raise EvaluationError(
            f"no registered artifact produces "
            f"{type(result).__name__} results"
        )

    def __contains__(self, name: object) -> bool:
        return name in self._artifacts

    def __iter__(self) -> Iterator[str]:
        return iter(self._artifacts)

    def __len__(self) -> int:
        return len(self._artifacts)


#: The process-wide artifact registry (paper order).
ARTIFACTS = ArtifactRegistry()


def register_artifact(
    name: str,
    compute: Ref,
    result_type: Ref,
    text: Ref,
    title: str = "",
    registry: Optional[ArtifactRegistry] = None,
    claims: Sequence[Claim] = (),
    **metadata: Any,
) -> ArtifactInfo:
    """Register the named artifact; ``compute``, ``result_type`` and
    ``text`` are objects or ``"module:attr"`` references, and so is
    each claim's check. A claim id already registered raises.

    ::

        register_artifact(
            "fig6", "repro.eval.experiments:fig6",
            "repro.eval.experiments:Fig6Result",
            text="repro.eval.reporting:render_fig6",
            title="Fig. 6 — one-rank S vs two-rank SS designs",
            claims=(
                Claim("overhead_ratio_above_2",
                      "SS has >2x less muxing overhead than S",
                      "repro.eval.claims:fig6_overhead_ratio_above_2"),
            ),
        )
    """
    target = registry if registry is not None else ARTIFACTS
    return target.register(
        ArtifactInfo(
            name=name,
            compute_ref=compute,
            result_ref=result_type,
            text_ref=text,
            title=title,
            claims=tuple(claims),
            metadata=dict(metadata),
        )
    )


def render(result: Any, fmt: str = "text") -> str:
    """Render any artifact result in one of :data:`FORMATS`.

    ``text`` dispatches on the result's type to the registered text
    renderer; ``json``/``csv`` go through the result's uniform
    ``to_payload()``.
    """
    return ARTIFACTS.for_result(result).render(result, fmt)


def _payload_csv(payload: Dict[str, Any]) -> str:
    """The payload's ``rows`` as CSV (headers in first-seen order;
    rows missing a column leave the cell empty)."""
    rows = payload.get("rows", [])
    headers: list = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(
            [_csv_cell(row.get(key)) for key in headers]
        )
    return out.getvalue().rstrip("\n")


def _csv_cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


# ----------------------------------------------------------------------
# The paper's artifacts, registration order = paper order.
# ----------------------------------------------------------------------


_E = "repro.eval.experiments"
_R = "repro.eval.reporting"


def _claims(artifact: str, *claims: Tuple[str, str]) -> Tuple[Claim, ...]:
    """``(id, paper)`` pairs as claims checked by
    ``repro.eval.claims:<artifact>_<id>``."""
    return tuple(
        Claim(claim_id, paper, f"repro.eval.claims:{artifact}_{claim_id}")
        for claim_id, paper in claims
    )


register_artifact(
    "tables", f"{_E}:tables", f"{_E}:TablesResult",
    text=f"{_R}:render_tables",
    title="Tables 1-4 — categories, patterns, resources",
)
register_artifact(
    "fig2", f"{_E}:fig2", f"{_E}:Fig2Result", text=f"{_R}:render_fig2",
    title="Fig. 2 — accuracy-matched motivational comparison",
    claims=_claims(
        "fig2",
        ("stc_beats_dstc_on_transformer",
         "STC has lower EDP than DSTC on Transformer-Big"),
        ("dstc_beats_stc_on_resnet",
         "DSTC has lower EDP than STC on ResNet50"),
        ("highlight_lowest_on_both",
         "HighLight has the lowest EDP on both networks"),
        ("accuracy_matched_degrees",
         "ResNet50 prunes harder than Transformer-Big at <0.5% loss"),
    ),
)
register_artifact(
    "fig6", f"{_E}:fig6", f"{_E}:Fig6Result", text=f"{_R}:render_fig6",
    title="Fig. 6 — one-rank S vs two-rank SS designs",
    claims=_claims(
        "fig6",
        ("fifteen_degrees_each",
         "S and SS each support 15 degrees across 0-87.5%"),
        ("overhead_ratio_above_2",
         "SS has >2x less muxing overhead than S"),
        ("latency_equals_density",
         "normalized latency equals density at every degree"),
    ),
)
register_artifact(
    "fig13", f"{_E}:fig13", "repro.eval.engine:SweepResult",
    text=f"{_R}:render_fig13_artifact",
    title="Fig. 13 — synthetic sparsity sweep",
    claims=_claims(
        "fig13",
        ("highlight_best_edp_every_cell",
         "HighLight has the best EDP in every cell (2% parity)"),
        ("highlight_dense_parity",
         "HighLight matches dense EDP on the dense cell (2%)"),
        ("stc_capped_at_2x_speed", "STC's speedup is capped at 2x"),
        ("highlight_structured_speedups",
         "HighLight runs 2x / 4x faster at 50% / 75% A sparsity"),
        ("dstc_worse_than_dense_at_low_sparsity",
         "DSTC has worse-than-dense EDP at low sparsity"),
        ("dstc_wins_speed_at_high_sparsity",
         "DSTC is faster than HighLight at 75%/75% sparsity"),
        ("s2ta_unsupported_on_dense_cells",
         "S2TA cannot run dense-A cells"),
        ("orderings_survive_cost_perturbation",
         "(robustness) the EDP orderings hold with each key cost "
         "constant scaled by +/-30%"),
        ("orderings_hold_on_dnn_shapes",
         "(robustness) the EDP orderings hold, >5x over dense, on "
         "DNN-realistic GEMM shapes (10% parity)"),
    ),
)
# Regenerating the Fig. 13 sweep is free under the shared context.
register_artifact(
    "fig14", f"{_E}:fig14_from_context", f"{_E}:Fig14Result",
    text=f"{_R}:render_fig14",
    title="Fig. 14 — geomean normalized metrics",
    claims=_claims(
        "fig14",
        ("highlight_best_geomean_all_metrics",
         "HighLight has the best geomean EDP, ED^2 and energy"),
        ("headline_gains",
         "6.4x geomean (up to 20.4x) lower EDP than dense; 2.7x "
         "geomean vs the sparse designs"),
        ("all_gains_at_least_parity",
         "HighLight's geomean EDP beats each sparse design"),
    ),
)
register_artifact(
    "fig15", f"{_E}:fig15", f"{_E}:Fig15Result",
    text=f"{_R}:render_fig15",
    title="Fig. 15 — EDP vs accuracy-loss Pareto frontiers",
    claims=_claims(
        "fig15",
        ("highlight_on_all_frontiers",
         "HighLight is on every network's Pareto frontier"),
        ("s2ta_absent_from_attention_models",
         "S2TA cannot process the attention models"),
        ("s2ta_present_on_resnet", "S2TA does process ResNet50"),
        ("dstc_worse_than_dense_on_compact_models",
         "DSTC can be worse than dense on the denser models"),
        ("loss_grows_with_sparsity",
         "accuracy loss grows with weight sparsity"),
        ("efficientnet_on_frontier",
         "(extension, Sec. 1) HighLight is on EfficientNet-B0's "
         "frontier"),
        ("efficientnet_dstc_near_dense",
         "(extension, Sec. 1) on EfficientNet-B0 DSTC beats dense, "
         "yet stays within 10% of dense EDP at some degree"),
    ),
)
register_artifact(
    "fig16", f"{_E}:fig16", f"{_E}:Fig16Result",
    text=f"{_R}:render_fig16",
    title="Fig. 16 — sparsity tax (energy + area breakdown)",
    claims=_claims(
        "fig16",
        ("saf_area_share_near_5_7",
         "SAFs are 5.7% of HighLight's area (+/-1.5 points)"),
        ("highlight_lowest_energy", "HighLight has the lowest energy"),
        ("dstc_rf_dominated",
         "DSTC's energy is dominated by accumulation (RF) traffic"),
        ("highlight_saf_energy_small",
         "SAFs are <5% of HighLight's energy"),
    ),
)
register_artifact(
    "fig17", f"{_E}:fig17", f"{_E}:Fig17Result",
    text=f"{_R}:render_fig17",
    title="Fig. 17 — dual-side HSS (DSSO) processing speed",
    claims=_claims(
        "fig17",
        ("highlight_flat_2x", "HighLight stays at its A-side 2x"),
        ("dsso_speed_scales_with_h",
         "DSSO's speed scales with B's H"),
        ("dsso_2x_at_common_degree",
         "DSSO is 2x HighLight when B is C1(2:4)"),
    ),
)


# ----------------------------------------------------------------------
# The run API: artifact execution as a typed event stream.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactStarted:
    """An artifact's compute is about to run."""

    name: str
    index: int
    total: int
    title: str = ""


@dataclass(frozen=True)
class ArtifactFinished:
    """An artifact's compute returned.

    Carries the structured result plus the engine-stats delta scoped to
    exactly this artifact's compute — on a warm persistent cache every
    artifact reports ``stats.evaluations == 0``.
    """

    name: str
    index: int
    total: int
    result: Any
    #: Cache counters attributable to this artifact alone.
    stats: EngineStats
    wall_time_s: float
    title: str = ""


@dataclass(frozen=True)
class RunFinished:
    """The whole plan ran; totals over every artifact."""

    #: name -> structured result, in plan order.
    results: Dict[str, Any]
    #: Engine-stats delta over the whole run (the per-artifact deltas
    #: sum to exactly this).
    stats: EngineStats
    wall_time_s: float


#: Everything :meth:`RunPlan.events` can yield.
RunEvent = Union[ArtifactStarted, ArtifactFinished, RunFinished]


@dataclass(frozen=True)
class RunOutcome:
    """A drained run: results plus the per-artifact finish events."""

    results: Dict[str, Any]
    artifacts: Tuple[ArtifactFinished, ...]
    stats: EngineStats
    wall_time_s: float

    def artifact_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-artifact stats deltas, JSON-ready (the schema-v4 run
        record block)."""
        return stats_by_artifact(self.artifacts)


def stats_by_artifact(
    finished: Sequence[ArtifactFinished],
) -> Dict[str, Dict[str, Any]]:
    """Finish events folded to name -> counters + wall time."""
    return {
        event.name: {
            **event.stats.as_dict(),
            "wall_time_s": event.wall_time_s,
        }
        for event in finished
    }


@dataclass(frozen=True)
class RunPlan:
    """An ordered set of artifacts bound to one shared context.

    Built from the registry via :meth:`from_names` (unknown names raise
    ``KeyError`` before any work). :meth:`events` executes the plan
    lazily, yielding a typed event per state change; :meth:`run` drains
    the stream for callers that only want the end state. Either way
    every compute shares the plan's single
    :class:`~repro.eval.engine.EngineContext`, so the whole run is one
    memoization domain.
    """

    specs: Tuple[ArtifactInfo, ...]
    ctx: EngineContext

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        ctx: "EngineContext | None | object" = None,
        registry: Optional[ArtifactRegistry] = None,
    ) -> "RunPlan":
        """Resolve ``names`` against the registry under one context.

        Duplicate names are rejected: results and per-artifact stats
        are keyed by name, so a repeated artifact would stream twice
        but record once — silently breaking the deltas-sum-to-totals
        invariant. Callers wanting dedup do it before building the
        plan (the CLI does).
        """
        duplicates = sorted(
            {name for name in names if list(names).count(name) > 1}
        )
        if duplicates:
            raise EvaluationError(
                f"duplicate artifact name(s) in run plan: "
                f"{', '.join(duplicates)}"
            )
        from repro.eval.engine import EngineContext

        target = registry if registry is not None else ARTIFACTS
        specs = tuple(target[name] for name in names)
        return cls(specs=specs, ctx=EngineContext.coerce(ctx))

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def events(self) -> Iterator[RunEvent]:
        """Execute the plan, yielding events as each artifact runs.

        Per-artifact stats are checkpoint deltas on the shared engine
        (scoped, not reset — concurrent readers of the engine's
        cumulative counters are unaffected), so the ``ArtifactFinished``
        deltas always sum to the ``RunFinished`` totals.
        """
        engine = self.ctx.engine
        total = len(self.specs)
        results: Dict[str, Any] = {}
        run_checkpoint = engine.checkpoint()
        run_start = time.perf_counter()
        for index, spec in enumerate(self.specs):
            yield ArtifactStarted(
                name=spec.name, index=index, total=total,
                title=spec.title,
            )
            checkpoint = engine.checkpoint()
            start = time.perf_counter()
            result = spec.compute(self.ctx)
            wall_time_s = time.perf_counter() - start
            results[spec.name] = result
            yield ArtifactFinished(
                name=spec.name, index=index, total=total,
                result=result,
                stats=engine.stats_since(checkpoint),
                wall_time_s=wall_time_s,
                title=spec.title,
            )
        # A finished run is durable: in-batch cache flushes are
        # debounced, so persist whatever the debounce deferred before
        # announcing completion (the flush is part of the run's wall
        # time, as it was when every batch flushed).
        engine.flush()
        yield RunFinished(
            results=results,
            stats=engine.stats_since(run_checkpoint),
            wall_time_s=time.perf_counter() - run_start,
        )

    def run(self) -> RunOutcome:
        """Drain :meth:`events` and return the collected outcome."""
        finished: List[ArtifactFinished] = []
        final: Optional[RunFinished] = None
        for event in self.events():
            if isinstance(event, ArtifactFinished):
                finished.append(event)
            elif isinstance(event, RunFinished):
                final = event
        if final is None:  # events() always ends with one
            raise EvaluationError(
                "run plan produced no RunFinished event"
            )
        return RunOutcome(
            results=final.results,
            artifacts=tuple(finished),
            stats=final.stats,
            wall_time_s=final.wall_time_s,
        )


def compute_artifacts(
    names: "Tuple[str, ...] | list",
    ctx: Optional[EngineContext] = None,
) -> Dict[str, Any]:
    """Compute the named artifacts under one shared context, in order.

    The batch view of the run API: builds a :class:`RunPlan`, drains
    its events, and returns name -> structured result (render
    separately with :func:`render`). Unknown names raise ``KeyError``
    and duplicates ``EvaluationError``, both before anything is
    evaluated.
    """
    return RunPlan.from_names(names, ctx).run().results


def names_from_spec(
    spec: Any,
    registry: Optional[ArtifactRegistry] = None,
) -> Tuple[str, ...]:
    """Resolve a JSON artifact spec to a tuple of registered names.

    The spec is a mapping with exactly one key: ``{"artifacts": "all"}``
    or ``{"artifacts": [name, ...]}`` (``"all"`` in the list expands to
    the full registry, mirroring the CLI). Anything else — wrong
    top-level type, unknown keys, an empty list, non-string entries,
    duplicates, unregistered names — raises :class:`EvaluationError`
    with the registered names spelled out, so transport layers
    (``repro serve`` maps these to HTTP 400) stay loud instead of
    guessing.
    """
    target = registry if registry is not None else ARTIFACTS
    if not isinstance(spec, dict):
        raise EvaluationError(
            f"artifact spec must be a JSON object, got "
            f"{type(spec).__name__}"
        )
    unknown_keys = sorted(set(spec) - {"artifacts"})
    if unknown_keys:
        raise EvaluationError(
            f"unknown artifact spec key(s): {', '.join(unknown_keys)} "
            f"(expected only 'artifacts')"
        )
    names = spec.get("artifacts")
    if names == "all":
        return target.names()
    if not isinstance(names, list) or not names:
        raise EvaluationError(
            "artifact spec needs 'artifacts': \"all\" or a non-empty "
            "list of artifact names"
        )
    for name in names:
        if not isinstance(name, str):
            raise EvaluationError(
                f"artifact names must be strings, got "
                f"{type(name).__name__}: {name!r}"
            )
    if "all" in names:
        return target.names()
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise EvaluationError(
            f"duplicate artifact name(s) in spec: "
            f"{', '.join(duplicates)}"
        )
    unregistered = [n for n in names if n not in target]
    if unregistered:
        raise EvaluationError(
            f"unknown artifact(s): {', '.join(unregistered)}; "
            f"registered: {', '.join(target.names()) or '(none)'}"
        )
    return tuple(names)


def finished_event_line(event: ArtifactFinished) -> str:
    """One :class:`ArtifactFinished` as its NDJSON wire line (no
    trailing newline).

    This is the ``repro all --stream --format json`` output format;
    ``repro serve`` reuses it verbatim so the service's event stream
    stays byte-compatible with the CLI. Change it in exactly one
    place — here — or the CI serve smoke job's byte-diff will fail.
    """
    return json.dumps(
        {
            "artifact": event.name,
            "payload": event.result.to_payload(),
            "stats": event.stats.as_dict(),
        }
    )
