"""Run records: a JSON artifact per sweep invocation (pycomex-style).

Every recorded run captures what was asked (the resolved grid), what
came out (per-cell metrics and per-design geomeans), and how the run
behaved (wall time, cache hits/misses) — a trend-trackable snapshot to
set next to the ``BENCH_*.json`` pytest-benchmark files.

Layout on disk: the envelope (every field but ``cells``) is indented
two spaces; ``cells`` holds one compact JSON object per line, so a
record stays line-diffable per cell while the bulk of it goes through
the stdlib's C encoder (the pure-Python one runs whenever ``indent`` is
set). Layout is not schema: any JSON reader sees the same object, key
order and float reprs as a fully indented dump. Records are written
atomically — encoded in full, written to a temporary file beside the
target, then renamed over it — so a failed write never leaves a torn
record or clobbers an earlier one.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.eval.engine import (
    GEOMEAN_METRICS,
    EngineStats,
    SweepEngine,
    SweepResult,
)
from repro.model.metrics import Metrics

if TYPE_CHECKING:  # typing-only, avoids a cycle with experiments
    from repro.eval.experiments import ModelSweepResult

#: Record format version, bumped on breaking schema changes.
#: v2: cache stats gained disk_hits/evaluations; model-sweep records.
#: v3: artifact records (``repro all --record``) carrying each
#: artifact's structured ``to_payload()`` under ``artifacts``.
#: v4: artifact records embed per-artifact engine-stats deltas under
#: ``artifact_stats`` (scoped counters + wall time per figure), so
#: warm-vs-cold cache behaviour is auditable per artifact.
#: Whitespace is layout, not schema: writing ``cells`` one compact cell
#: per line left v4 unchanged.
SCHEMA_VERSION = 4


def metrics_summary(metrics: Optional[Metrics]) -> Optional[Dict[str, Any]]:
    """The JSON-friendly slice of one cell's metrics (``None`` for
    cells the design cannot process)."""
    if metrics is None:
        return None
    return {
        "cycles": metrics.cycles,
        "energy_pj": metrics.energy_pj,
        "edp": metrics.edp,
        "utilization": metrics.utilization,
        "supported": metrics.supported,
        "swapped": metrics.swapped,
    }


@dataclass(frozen=True)
class RunRecord:
    """One sweep invocation, ready to serialize."""

    command: str
    created_at: str
    grid: Dict[str, Any]
    cells: List[Dict[str, Any]] = field(default_factory=list)
    geomeans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    wall_time_s: float = 0.0
    cache: Dict[str, int] = field(default_factory=dict)
    #: Artifact runs only: name -> the artifact's ``to_payload()``.
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: Artifact runs only: name -> the engine-stats delta scoped to
    #: that artifact's compute (plus its wall time) — all zeros per
    #: artifact on a warm cache.
    artifact_stats: Dict[str, Dict[str, Any]] = field(
        default_factory=dict
    )
    schema_version: int = SCHEMA_VERSION

    def _to_json(self) -> str:
        """The record as JSON text: an indented envelope around
        ``cells`` written one compact cell per line.

        Fields are taken shallowly — they hold only JSON-ready values,
        and a stray non-JSON value still raises ``TypeError`` here.
        """
        encode = json.JSONEncoder().encode
        # One join at the end: the cells text of a large grid is
        # megabytes, and every intermediate concatenation would hold
        # another copy of it at the command's peak memory.
        parts = ["{\n"]
        for spec in fields(self):
            value = getattr(self, spec.name)
            if len(parts) > 1:
                parts.append(",\n")
            parts.append(f"  {encode(spec.name)}: ")
            if spec.name == "cells" and value:
                parts += ("[\n    ", ",\n    ".join(map(encode, value)),
                          "\n  ]")
            else:
                parts.append(
                    json.dumps(value, indent=2).replace("\n", "\n  ")
                )
        parts.append("\n}\n")
        return "".join(parts)

    def write(self, path: "str | Path") -> Path:
        """Serialize to ``path`` atomically (parent directories are
        created; an earlier record there survives a failed write)."""
        target = Path(path)
        text = self._to_json()
        target.parent.mkdir(parents=True, exist_ok=True)
        return write_text_atomic(target, text)


def write_text_atomic(path: "str | Path", text: str) -> Path:
    """Write ``text`` to a temporary file beside ``path``, then rename
    it over ``path``: readers see the old file or the whole new one,
    never a torn write, and a failed write leaves no temporary file."""
    target = Path(path)
    temp = target.with_name(
        f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    )
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return target


def record_from_sweep(
    command: str,
    sweep: SweepResult,
    engine: Optional[SweepEngine] = None,
    wall_time_s: float = 0.0,
    created_at: Optional[str] = None,
    shape: Optional[Tuple[int, int, int]] = None,
    stats: Optional[EngineStats] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from a structured sweep result.

    Geomeans are recorded only when the sweep's baseline design is part
    of the grid (normalization needs it); raw per-cell metrics are
    always present. ``stats`` overrides the engine's cumulative
    counters with a request-scoped delta (the long-lived service
    path).
    """
    if created_at is None:
        created_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    cells: List[Dict[str, Any]] = []
    for (sparsity_a, sparsity_b), per_design in sweep.cells.items():
        for design, metrics in per_design.items():
            cells.append(
                {
                    "design": design,
                    "sparsity_a": sparsity_a,
                    "sparsity_b": sparsity_b,
                    "metrics": metrics_summary(metrics),
                }
            )
    geomeans: Dict[str, Dict[str, float]] = {}
    if sweep.baseline in sweep.design_order:
        try:
            geomeans = {
                metric: sweep.geomeans(metric)
                for metric in GEOMEAN_METRICS
            }
        except EvaluationError:
            geomeans = {}
    grid = {
        "designs": list(sweep.design_order),
        "a_degrees": sorted({a for a, _ in sweep.cells}),
        "b_degrees": sorted({b for _, b in sweep.cells}),
        "baseline": sweep.baseline,
    }
    if shape is not None:
        grid["shape_mkn"] = list(shape)
    if stats is not None:
        cache = stats.as_dict()
    else:
        cache = engine.stats.as_dict() if engine is not None else {}
    return RunRecord(
        command=command,
        created_at=created_at,
        grid=grid,
        cells=cells,
        geomeans=geomeans,
        wall_time_s=wall_time_s,
        cache=cache,
    )


def record_from_model_sweep(
    command: str,
    sweep: "ModelSweepResult",
    engine: Optional[SweepEngine] = None,
    wall_time_s: float = 0.0,
    created_at: Optional[str] = None,
    stats: Optional[EngineStats] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from a network sweep.

    Cells are (design, weight_sparsity) network totals; the engine's
    cache counters record how much of the sweep was served from memory
    or disk versus actually evaluated — a warm persistent cache shows
    ``evaluations == 0`` here. ``stats`` overrides the engine's
    cumulative counters with a request-scoped delta (the long-lived
    service path).
    """
    if created_at is None:
        created_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    cells: List[Dict[str, Any]] = []
    for design, degree, evaluation in sweep.rows():
        summary: Optional[Dict[str, Any]] = None
        if evaluation is not None:
            summary = {
                "cycles": evaluation.total_cycles,
                "energy_pj": evaluation.total_energy_pj,
                "edp": evaluation.edp,
                "normalized_edp": sweep.normalized_edp(design, degree),
                "layers": len(evaluation.per_layer),
            }
        cells.append(
            {
                "design": design,
                "weight_sparsity": degree,
                "metrics": summary,
            }
        )
    grid: Dict[str, Any] = {
        "model": sweep.model,
        "designs": list(sweep.design_order),
        "degrees": {
            design: list(degrees)
            for design, degrees in sweep.degrees.items()
        },
    }
    if sweep.baseline is not None:
        grid["baseline"] = list(sweep.baseline)
    if stats is not None:
        cache = stats.as_dict()
    else:
        cache = engine.stats.as_dict() if engine is not None else {}
    return RunRecord(
        command=command,
        created_at=created_at,
        grid=grid,
        cells=cells,
        geomeans={},
        wall_time_s=wall_time_s,
        cache=cache,
    )


def record_from_artifacts(
    command: str,
    results: Dict[str, Any],
    engine: Optional[SweepEngine] = None,
    wall_time_s: float = 0.0,
    created_at: Optional[str] = None,
    artifact_stats: Optional[Dict[str, Dict[str, Any]]] = None,
    stats: Optional[EngineStats] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from computed artifacts.

    ``results`` maps artifact names to their structured results (as
    returned by :func:`repro.eval.artifacts.compute_artifacts`); each
    is stored via its uniform ``to_payload()``. The engine's cache
    counters cover the whole invocation, so a warm persistent cache
    shows ``evaluations == 0`` even for a full ``repro all``;
    ``artifact_stats`` (from the run API's per-artifact
    :class:`~repro.eval.artifacts.ArtifactFinished` deltas, see
    :func:`repro.eval.artifacts.stats_by_artifact`) breaks the same
    counters down per figure. A CLI run's counters are its engine's
    whole life, but a long-lived service records many requests off one
    engine — ``stats`` passes the request-scoped delta explicitly and
    takes precedence over the engine's cumulative counters.
    """
    if created_at is None:
        created_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if stats is not None:
        cache = stats.as_dict()
    else:
        cache = engine.stats.as_dict() if engine is not None else {}
    return RunRecord(
        command=command,
        created_at=created_at,
        grid={"artifacts": list(results)},
        artifacts={
            name: result.to_payload()
            for name, result in results.items()
        },
        artifact_stats=dict(artifact_stats or {}),
        wall_time_s=wall_time_s,
        cache=cache,
    )


def load_record(path: "str | Path") -> Dict[str, Any]:
    """Read a previously written record back as plain data."""
    return json.loads(Path(path).read_text())
