"""Sweep specs: the one parser behind ``repro sweep`` and
``POST /v1/sweep``.

A sweep spec is a JSON-style mapping. With a ``model`` (a registered
network's name, or an inline layer table in the ``--model-file``
schema) it is a :class:`ModelSweep`: the network over designs x
weight-sparsity ``degrees``, optionally with a per-layer ``profile``.
Without one it is a :class:`GridSweep`: the synthetic design x
(``a_degrees`` x ``b_degrees``) grid at one cubic GEMM ``size``.
:func:`sweep_spec` validates a body, fills in the defaults and keys
the result with a canonical digest (the service's coalescing key), so
both front ends accept, refuse and run exactly the same sweeps.
Errors are :class:`~repro.errors.SweepSpecError` s naming the spec key
and its ``repro sweep`` flag; the CLI exits 2 on one, the service
answers 400.

A grid spec loads no network code: :mod:`repro.dnn` and
:mod:`repro.eval.experiments` are imported only for model sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.accelerators import REGISTRY, main_design_names
from repro.errors import SweepSpecError, WorkloadError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dnn.models import DnnModel
    from repro.eval.engine import EngineContext, EngineStats, SweepResult
    from repro.eval.experiments import ModelSweepResult
    from repro.eval.runs import RunRecord

#: Spec key -> the ``repro sweep`` flag that sets it.
_FLAGS = {
    "model": "--model/--model-file",
    "designs": "--designs",
    "degrees": "--degrees",
    "profile": "--profile",
    "a_degrees": "--a-degrees",
    "b_degrees": "--b-degrees",
    "size": "--size",
}
_MODEL_ONLY = ("degrees", "profile")
_GRID_ONLY = ("a_degrees", "b_degrees", "size")

#: The cubic GEMM side of a grid sweep without a ``size``.
_DEFAULT_SIZE = 1024


def _label(key: str) -> str:
    return f"{key!r} ({_FLAGS[key]})"


def spec_digest(kind: str, payload: Dict[str, Any]) -> str:
    """The canonical sha256 of a resolved spec: two specs share it
    exactly when they ask for the same run."""
    blob = json.dumps(
        {"kind": kind, **payload}, sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GridSweep:
    """A validated synthetic-grid sweep."""

    digest: str
    designs: Tuple[str, ...]
    a_degrees: Tuple[float, ...]
    b_degrees: Tuple[float, ...]
    size: int

    def run(self, ctx: EngineContext) -> SweepResult:
        return ctx.engine.sweep(
            designs=self.designs,
            a_degrees=self.a_degrees,
            b_degrees=self.b_degrees,
            m=self.size, k=self.size, n=self.size,
        )

    def record(self, command: str, result: SweepResult,
               wall_time_s: float, stats: EngineStats) -> RunRecord:
        from repro.eval import runs

        return runs.record_from_sweep(
            command=command, sweep=result, wall_time_s=wall_time_s,
            stats=stats, shape=(self.size, self.size, self.size),
        )


@dataclass(frozen=True)
class ModelSweep:
    """A validated network sweep."""

    digest: str
    designs: Tuple[str, ...]
    model: DnnModel
    #: One ladder for every design, or ``None`` for each design's own.
    degrees: Optional[Tuple[float, ...]]
    profile: Optional[Dict[str, float]]

    def run(self, ctx: EngineContext) -> ModelSweepResult:
        from repro.eval import experiments

        return experiments.sweep_model(
            self.model, designs=self.designs, degrees=self.degrees,
            ctx=ctx, profile=self.profile,
        )

    def record(self, command: str, result: ModelSweepResult,
               wall_time_s: float, stats: EngineStats) -> RunRecord:
        from repro.eval import runs

        return runs.record_from_model_sweep(
            command=command, sweep=result, wall_time_s=wall_time_s,
            stats=stats,
        )


SweepSpec = Union[GridSweep, ModelSweep]


def _designs(data: Mapping[str, Any]) -> Tuple[str, ...]:
    designs = data.get("designs")
    if designs is None:
        return tuple(main_design_names())
    if (
        not isinstance(designs, list) or not designs
        or not all(isinstance(name, str) for name in designs)
    ):
        raise SweepSpecError(
            f"{_label('designs')} must be a non-empty list of design "
            f"names", "designs",
        )
    for name in designs:
        if name not in REGISTRY:
            raise SweepSpecError(
                f"unknown design {name!r}; registered: "
                f"{', '.join(info.name for info in REGISTRY)}",
                "designs",
            )
    duplicates = sorted({n for n in designs if designs.count(n) > 1})
    if duplicates:
        raise SweepSpecError(
            f"duplicate design(s) in spec: {', '.join(duplicates)}",
            "designs",
        )
    return tuple(designs)


def _degrees(data: Mapping[str, Any], key: str) -> Tuple[float, ...]:
    value = data[key]
    if (
        not isinstance(value, list) or not value
        or not all(
            isinstance(item, (int, float))
            and not isinstance(item, bool)
            for item in value
        )
    ):
        raise SweepSpecError(
            f"{_label(key)} must be a non-empty list of sparsity "
            f"degrees", key,
        )
    # Deduplicated in order: [0.5] and [0.5, 0.5] are one spec (and
    # one grid row); + 0.0 folds -0.0 into 0.0.
    degrees = tuple(dict.fromkeys(float(item) + 0.0 for item in value))
    for degree in degrees:
        if not 0.0 <= degree < 1.0:
            raise SweepSpecError(
                f"{_label(key)}: sparsity degrees must be in [0, 1), "
                f"got {degree}", key,
            )
    return degrees


def _model(raw: Any) -> Tuple[DnnModel, Any]:
    """The spec's network plus its digest token.

    A name keys by the registered spelling it resolves to; an inline
    table keys by the table itself, so key order never splits two
    requests. An inline table is never registered, and may not take a
    built-in's name.
    """
    from repro.dnn.models import get_model, is_builtin_model, model_from_dict

    try:
        if isinstance(raw, str):
            model = get_model(raw)
            return model, model.name
        model = model_from_dict(raw)
    except WorkloadError as error:
        raise SweepSpecError(str(error), "model")
    if is_builtin_model(model.name):
        raise SweepSpecError(
            f"model table {model.name!r} would shadow the built-in "
            f"model of that name (model names resolve "
            f"case-insensitively); rename it", "model",
        )
    return model, {key: raw[key] for key in sorted(raw)}


def _model_sweep(data: Mapping[str, Any],
                 designs: Tuple[str, ...]) -> ModelSweep:
    from repro.eval import experiments as E

    for key in _GRID_ONLY:
        if key in data:
            raise SweepSpecError(
                f"{_label(key)} applies to synthetic grids: grid "
                f"sweeps take it, while a model sweep takes its shapes "
                f"from the network's layers (use {_label('degrees')} "
                f"for the weight-sparsity ladder)"
            )
    model, token = _model(data["model"])
    degrees = _degrees(data, "degrees") if "degrees" in data else None
    profile: Optional[Dict[str, float]] = None
    if "profile" in data:
        try:
            profile = E.profile_from_dict(
                data["profile"], source=_label("profile")
            )
            E.validate_profile(model, profile)
        except WorkloadError as error:
            raise SweepSpecError(str(error), "profile")
    return ModelSweep(
        digest=spec_digest("sweep-model", {
            "model": token,
            "designs": list(designs),
            "degrees": {
                design: list(
                    degrees if degrees is not None
                    else E.design_ladder(design)
                )
                for design in designs
            },
            "profile": profile,
        }),
        designs=designs,
        model=model,
        degrees=degrees,
        profile=profile,
    )


def _grid_sweep(data: Mapping[str, Any],
                designs: Tuple[str, ...]) -> GridSweep:
    from repro.eval.engine import DEFAULT_A_DEGREES, DEFAULT_B_DEGREES

    for key in _MODEL_ONLY:
        if key in data:
            raise SweepSpecError(
                f"{_label(key)} applies to model sweeps, which need a "
                f"{_label('model')}"
            )
    a_degrees = (
        _degrees(data, "a_degrees") if "a_degrees" in data
        else DEFAULT_A_DEGREES
    )
    b_degrees = (
        _degrees(data, "b_degrees") if "b_degrees" in data
        else DEFAULT_B_DEGREES
    )
    size = data.get("size", _DEFAULT_SIZE)
    if (
        not isinstance(size, int) or isinstance(size, bool)
        or size < 1
    ):
        raise SweepSpecError(
            f"{_label('size')} must be a positive integer, got "
            f"{size!r}", "size",
        )
    return GridSweep(
        digest=spec_digest("sweep-grid", {
            "designs": list(designs),
            "a_degrees": list(a_degrees),
            "b_degrees": list(b_degrees),
            "size": size,
        }),
        designs=designs,
        a_degrees=a_degrees,
        b_degrees=b_degrees,
        size=size,
    )


def sweep_spec(data: Any) -> SweepSpec:
    """Validate a sweep spec body, resolve its defaults and key it."""
    if not isinstance(data, dict):
        raise SweepSpecError(
            f"sweep spec must be a JSON object, got "
            f"{type(data).__name__}"
        )
    unknown = sorted(set(data) - set(_FLAGS))
    if unknown:
        raise SweepSpecError(
            f"unknown sweep spec key(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(_FLAGS))}"
        )
    designs = _designs(data)
    if "model" in data:
        return _model_sweep(data, designs)
    return _grid_sweep(data, designs)
