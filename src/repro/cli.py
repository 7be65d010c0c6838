"""Command-line interface: paper artifacts, custom sweeps, run records.

Usage::

    python -m repro artifact <name> [...]   # regenerate paper artifacts
    python -m repro sweep [--designs ...]   # run a custom sparsity grid
    python -m repro sweep --model NAME      # sweep a DNN across designs
    python -m repro sweep --model-file F    # ... or a user-defined one
    python -m repro cache stats|clear       # persistent-cache upkeep
    python -m repro cache merge DIR...      # fan-in sharded cache fills
    python -m repro serve [--port N]        # long-lived evaluation service
    python -m repro list [--filter k=v]     # registered designs/artifacts
    python -m repro report [--output PATH]  # EXPERIMENTS.md + claims
    python -m repro lint [PATHS]            # repo invariant checker

Bare artifact names keep working as shorthand: ``python -m repro
fig13`` and ``python -m repro all`` mean ``artifact fig13`` / ``artifact
all``. Artifacts: ``tables``, ``fig2``, ``fig6``, ``fig13``, ``fig14``,
``fig15``, ``fig16``, ``fig17``.

Artifacts are declarative specs in the
:data:`~repro.eval.artifacts.ARTIFACTS` registry: each computes a
structured result and renders it as ``--format text`` (default, the
historical output), ``json``, ``csv``, or ``md`` (composable markdown
sections — ``repro report`` stacks them into an EXPERIMENTS.md and
closes it with the registered paper claims, checked). One invocation
builds a single
:class:`~repro.eval.engine.EngineContext` — estimator, memoizing
:class:`~repro.eval.engine.SweepEngine`, optional ``--cache-dir``
persistent cache — and runs a :class:`~repro.eval.artifacts.RunPlan`
over it, so ``repro all`` evaluates each unique (design, workload)
pair exactly once, and resumes from disk across runs. ``--stream``
consumes the plan's event stream instead of the batch view: each
artifact prints the moment its compute returns, with its own scoped
cache-hit/evaluation counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import closing
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.accelerators import REGISTRY
from repro.endpoint import DEFAULT_PORT as SERVE_DEFAULT_PORT
from repro.errors import (
    CacheError,
    EvaluationError,
    LintUsageError,
    SweepSpecError,
    WorkloadError,
)
from repro.eval import reporting as R
from repro.eval.reporting import FORMATS
from repro.model.metrics import GEOMEAN_METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.eval.artifacts import ArtifactFinished, ArtifactRegistry
    from repro.eval.engine import EngineContext
    from repro.eval.sweeps import SweepSpec

#: Geomean-able sweep metrics the `sweep` subcommand can render.
SWEEP_METRICS = GEOMEAN_METRICS

#: The subcommands. Any other first word that names an artifact is
#: shorthand for ``artifact <name>``.
COMMANDS = ("artifact", "sweep", "cache", "serve", "list", "report", "lint")


def _artifacts() -> "ArtifactRegistry":
    # Only the commands that run or list artifacts import the registry.
    from repro.eval.artifacts import ARTIFACTS

    return ARTIFACTS


class _ArtifactChoices:
    """The ``artifact`` subcommand's choices — every registered name,
    sorted, then ``all`` — read from the registry when argparse first
    checks or lists them."""

    def _names(self) -> List[str]:
        return sorted(_artifacts()) + ["all"]

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())


def _render_outputs(results: Dict[str, Any], fmt: str) -> str:
    """Join rendered artifacts for printing.

    ``text`` stacks sections exactly as the CLI always has; ``json``
    emits one object keyed by artifact name; ``csv`` stacks per-
    artifact tables behind ``# artifact:`` marker lines.
    """
    if fmt == "json":
        return json.dumps(
            {name: result.to_payload() for name, result in results.items()},
            indent=2,
        )
    artifacts = _artifacts()
    sections = []
    for name, result in results.items():
        rendered = artifacts[name].render(result, fmt)
        if fmt == "csv":
            rendered = f"# artifact: {name}\n{rendered}"
        sections.append(rendered)
    return "\n\n".join(sections)


def _parse_degrees(text: str) -> Tuple[float, ...]:
    """Comma-separated degrees, deduplicated in order (a repeated degree
    would repeat a grid row or column, not add one). The sweep spec
    checks their range."""
    try:
        # + 0.0 folds -0.0 into 0.0: one degree, one grid row.
        degrees = tuple(dict.fromkeys(
            float(part) + 0.0 for part in text.split(",") if part.strip()
        ))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated sparsity degrees, got {text!r}"
        )
    if not degrees:
        raise argparse.ArgumentTypeError("empty degree list")
    return degrees


def _parse_names(text: str) -> Tuple[str, ...]:
    names = tuple(dict.fromkeys(
        part.strip() for part in text.split(",") if part.strip()
    ))
    if not names:
        raise argparse.ArgumentTypeError("empty design list")
    return names


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be 0-65535, got {value}"
        )
    return value


def _coerce_metadata_value(text: str) -> object:
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """The shared EngineContext knobs (artifact + sweep subcommands)."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist (design, workload) evaluations under DIR and "
        "reuse them across runs (also: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--record", default=None, metavar="PATH",
        help="write a JSON run record of this invocation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate HighLight (MICRO 2023) paper artifacts "
        "and run custom sparsity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    artifact = sub.add_parser(
        "artifact",
        help="regenerate paper figures/tables (shorthand: bare names)",
    )
    artifact.add_argument(
        "names",
        nargs="+",
        choices=_ArtifactChoices(),
        metavar="name",
        help="artifact name(s), or 'all' for the paper order",
    )
    artifact.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="output format (default text; json/csv render each "
        "artifact's structured payload; md emits composable markdown "
        "sections)",
    )
    artifact.add_argument(
        "--stream", action="store_true",
        help="print each artifact the moment its compute returns, "
        "with its own cache-hit/evaluation counts on stderr (same "
        "total stdout as batch mode; --format json streams one "
        "object per artifact)",
    )
    _add_engine_options(artifact)

    sweep = sub.add_parser(
        "sweep",
        help="evaluate a custom design x sparsity grid, or a "
        "registered DNN with --model",
    )
    sweep.add_argument(
        "--designs", type=_parse_names, default=None, metavar="A,B,...",
        help="comma-separated registered design names "
        "(default: the five main-evaluation designs)",
    )
    sweep.add_argument(
        "--model", default=None, metavar="NAME",
        help="sweep a registered DNN instead of a synthetic grid "
        "('repro list' names them)",
    )
    sweep.add_argument(
        "--model-file", default=None, metavar="PATH",
        help="sweep a user-defined JSON layer table (see README for "
        "the schema; a built-in model's name is refused)",
    )
    sweep.add_argument(
        "--profile", default=None, metavar="PATH",
        help="(--model/--model-file only) per-layer sparsity profile: "
        "a JSON object mapping layer names to degrees (or "
        '{"pattern": "G:H"}) that overrides --degrees per layer',
    )
    sweep.add_argument(
        "--degrees", type=_parse_degrees, default=None, metavar="D,D,...",
        help="(--model only) weight-sparsity degrees for every design "
        "(default: each design's Fig. 15 ladder)",
    )
    sweep.add_argument(
        "--a-degrees", type=_parse_degrees,
        default=None, metavar="D,D,...",
        help="operand-A sparsity degrees (default: the Fig. 13 grid)",
    )
    sweep.add_argument(
        "--b-degrees", type=_parse_degrees,
        default=None, metavar="D,D,...",
        help="operand-B sparsity degrees (default: the Fig. 13 grid)",
    )
    sweep.add_argument(
        "--size", type=_positive_int, default=None, metavar="N",
        help="cubic GEMM side M=K=N (default 1024)",
    )
    sweep.add_argument(
        "--metric", choices=SWEEP_METRICS, default=None,
        help="(grid sweeps only) metric to render (default edp)",
    )
    _add_engine_options(sweep)

    cache = sub.add_parser(
        "cache", help="inspect, clear, or merge the persistent "
        "evaluation cache"
    )
    cache.add_argument(
        "action", choices=("stats", "clear", "merge"),
        help="'stats' prints per-fingerprint entry counts; 'clear' "
        "deletes all cache files; 'merge' folds the DIR shards into "
        "--cache-dir (same estimator fingerprint required)",
    )
    cache.add_argument(
        "dirs", nargs="*", metavar="DIR",
        help="(merge only) source cache directories to merge",
    )
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory to operate on (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro-highlight)",
    )
    cache.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="cache_format",
        help="(stats only) 'json' prints the machine-readable stats "
        "document — the same payload the serve API embeds under "
        "\"cache\" in GET /v1/stats",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived evaluation service: POST JSON "
        "artifact/sweep specs, stream NDJSON events off one shared "
        "warm cache (identical concurrent requests coalesce into a "
        "single evaluation)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=_port, default=SERVE_DEFAULT_PORT,
        metavar="PORT",
        help=f"TCP port (default {SERVE_DEFAULT_PORT}; 0 binds "
        f"any free port — the bound address is announced on stderr)",
    )
    serve.add_argument(
        "--max-concurrent", type=_positive_int, default=1, metavar="N",
        help="executing runs in flight at once (default 1: runs queue "
        "and per-artifact stats deltas stay exact; coalesced joiners "
        "never occupy a slot)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist evaluations under DIR — the service's shared "
        "warm cache across requests and restarts (also: "
        "$REPRO_CACHE_DIR)",
    )
    serve.add_argument(
        "--record", default=None, metavar="DIR",
        help="write one schema-v4 run record per executed request "
        "under DIR (coalesced joiners share the executing request's "
        "record)",
    )

    lister = sub.add_parser(
        "list", help="list registered designs and available artifacts"
    )
    lister.add_argument(
        "--filter", action="append", default=[], metavar="KEY=VALUE",
        help="only designs whose registry metadata matches (repeatable)",
    )

    report = sub.add_parser(
        "report",
        help="write EXPERIMENTS.md: every artifact plus the paper "
        "claims table (exit 1 if a claim fails)",
    )
    report.add_argument(
        "--output", default="EXPERIMENTS.md", metavar="PATH",
        help="destination path (default EXPERIMENTS.md)",
    )
    _add_engine_options(report)

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant checker over the repo's sources",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids or names to run "
        "(default: every registered rule)",
    )
    lint.add_argument(
        "--exclude-rules", default=None, metavar="IDS",
        help="comma-separated rule ids or names to skip",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="lint_format",
        help="findings as a table (default) or a JSON document",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _resolve_cache_dir(
    explicit: Optional[str], fallback_to_default: bool = False
) -> Optional[str]:
    """``--cache-dir`` wins, then ``$REPRO_CACHE_DIR``, then (for the
    ``cache`` subcommand) the default location."""
    from repro.eval import cache as cache_mod

    if explicit:
        return explicit
    env = os.environ.get(cache_mod.CACHE_DIR_ENV)
    if env:
        return env
    if fallback_to_default:
        return str(cache_mod.default_cache_dir())
    return None


def _open_context(parser: argparse.ArgumentParser,
                  **settings: Any) -> EngineContext:
    """:meth:`EngineContext.create`, with a cache that cannot open
    reported as a usage error (exit 2) before any work."""
    from repro.eval.engine import EngineContext

    try:
        return EngineContext.create(**settings)
    except CacheError as error:
        parser.error(str(error))


def _check_output_path(parser: argparse.ArgumentParser, flag: str,
                       path: str, create_parents: bool) -> None:
    """Refuse, before any work, an output file the final write could
    not create: a path naming a directory, or one whose directory is
    missing (unless the writer creates it) or is not a directory."""
    target = Path(path)
    if target.is_dir():
        parser.error(f"{flag} {path!r} is a directory; name a file")
    directory = target.parent
    while create_parents and not directory.exists():
        directory = directory.parent
    if not directory.exists():
        parser.error(
            f"{flag} {path!r}: directory {str(directory)!r} does not "
            f"exist"
        )
    if not directory.is_dir():
        parser.error(
            f"{flag} {path!r}: {str(directory)!r} is not a directory"
        )


def _build_context(args: argparse.Namespace,
                   parser: argparse.ArgumentParser) -> EngineContext:
    """The invocation's single EngineContext, from the CLI knobs."""
    if args.record:
        _check_output_path(
            parser, "--record", args.record, create_parents=True
        )
    return _open_context(
        parser,
        cache_dir=_resolve_cache_dir(args.cache_dir),
        record=args.record,
    )


def _print_streamed_artifact(event: ArtifactFinished, fmt: str) -> None:
    """One artifact's render, the moment its compute returned.

    Text-like formats reproduce the batch layout exactly (sections
    separated by one blank line), so piping ``--stream`` output is
    byte-identical to batch mode; ``json`` streams one self-contained
    object per artifact (payload + scoped stats) instead of batch
    mode's single keyed document.
    """
    from repro.eval.artifacts import finished_event_line

    if fmt == "json":
        # The shared encoder keeps this byte-identical to the lines
        # `repro serve` streams for the same artifacts.
        print(finished_event_line(event), flush=True)
        return
    rendered = _artifacts()[event.name].render(event.result, fmt)
    if fmt == "csv":
        rendered = f"# artifact: {event.name}\n{rendered}"
    if event.index:
        print()
    print(rendered, flush=True)


def _stream_stats_line(event: ArtifactFinished) -> str:
    stats = event.stats
    return (
        f"[{event.index + 1}/{event.total}] {event.name}: "
        f"{stats.evaluations} evaluations, {stats.hits} memory hits, "
        f"{stats.disk_hits} disk hits in {event.wall_time_s:.2f}s"
    )


def _cmd_artifact(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> int:
    from repro.eval.artifacts import (
        ArtifactFinished,
        RunFinished,
        RunPlan,
        stats_by_artifact,
    )
    from repro.eval.runs import record_from_artifacts

    # Dedup repeated names (first occurrence wins): results are
    # name-keyed, so batch mode always rendered a repeat once —
    # streaming and per-artifact records must agree with it.
    names = (
        list(_artifacts().names()) if "all" in args.names
        else list(dict.fromkeys(args.names))
    )
    ctx = _build_context(args, parser)
    # closing(): an interrupt mid-grid must still flush completed
    # evaluations to the persistent cache, not silently discard them.
    with closing(ctx.engine):
        plan = RunPlan.from_names(names, ctx)
        finished: List[ArtifactFinished] = []
        final: Optional[RunFinished] = None
        for event in plan.events():
            if isinstance(event, ArtifactFinished):
                finished.append(event)
                if args.stream:
                    _print_streamed_artifact(event, args.fmt)
                    # stderr: stdout stays pure renderer output.
                    print(_stream_stats_line(event), file=sys.stderr)
            elif isinstance(event, RunFinished):
                final = event
        if final is None:  # events() always ends with one
            raise EvaluationError(
                "run plan produced no RunFinished event"
            )
        if not args.stream:
            print(_render_outputs(final.results, args.fmt))
        if ctx.record_path:
            record = record_from_artifacts(
                command="artifact",
                results=final.results,
                engine=ctx.engine,
                wall_time_s=final.wall_time_s,
                artifact_stats=stats_by_artifact(finished),
            )
            path = record.write(ctx.record_path)
            # stderr: stdout stays pure renderer output (json/csv
            # piping).
            print(f"wrote {path}", file=sys.stderr)
        return 0


def _read_json(parser: argparse.ArgumentParser, what: str,
               path: str) -> Any:
    """A ``--model-file``/``--profile`` file's JSON, or exit 2 naming
    the file."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as error:
        parser.error(f"cannot read {what} {path}: {error}")
    except json.JSONDecodeError as error:
        parser.error(f"{what} {path} is not valid JSON: {error}")


def _sweep_spec(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> SweepSpec:
    """The sweep spec the given flags ask for, validated by the same
    parser as ``POST /v1/sweep``; a bad spec exits 2."""
    from repro.eval.sweeps import sweep_spec

    if args.model is not None and args.model_file is not None:
        parser.error("--model and --model-file are mutually exclusive")
    body: Dict[str, Any] = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in (
            ("model", args.model), ("designs", args.designs),
            ("degrees", args.degrees), ("a_degrees", args.a_degrees),
            ("b_degrees", args.b_degrees), ("size", args.size),
        )
        if value is not None
    }
    files = {"model": ("model file", args.model_file),
             "profile": ("profile", args.profile)}
    for key, (what, path) in files.items():
        if path is not None:
            body[key] = _read_json(parser, what, path)
    if "model" in body and args.metric is not None:
        parser.error(
            "--metric applies to synthetic grids; a model sweep "
            "renders network cycles, energy and normalized EDP"
        )
    try:
        return sweep_spec(body)
    except SweepSpecError as error:
        what, path = files.get(error.key or "", ("", None))
        parser.error(
            f"{what} {path}: {error}" if path is not None else str(error)
        )


def _cmd_sweep(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    from repro.eval.sweeps import GridSweep

    spec = _sweep_spec(args, parser)
    ctx = _build_context(args, parser)
    with closing(ctx.engine):
        start = time.perf_counter()
        try:
            sweep = spec.run(ctx)
        except WorkloadError as error:
            parser.error(str(error))
        wall_time_s = time.perf_counter() - start
        if isinstance(spec, GridSweep):
            command = "sweep"
            try:
                rendered = R.render_sweep(sweep, args.metric or "edp")
            except EvaluationError as error:
                # E.g. S2TA as baseline on a grid with a dense-dense
                # cell it cannot process: normalization has nothing to
                # divide by.
                parser.error(
                    f"cannot normalize this grid: {error}. Include TC "
                    f"in --designs or restrict the degree grids to "
                    f"cells the baseline ({sweep.baseline}) supports."
                )
            shape = (
                f"x {len(spec.a_degrees)}x{len(spec.b_degrees)} degree "
                f"grid @ {spec.size}^3"
            )
        else:
            command = "sweep-model"
            rendered = R.render_model_sweep(sweep)
            shape = f"on {spec.model.name}"
        print(rendered)
        stats = ctx.engine.stats
        print(
            f"\n{len(spec.designs)} designs {shape}, "
            f"{stats.evaluations} workloads evaluated, "
            f"{stats.hits} memory hits, {stats.disk_hits} disk hits "
            f"in {wall_time_s:.2f}s"
        )
        if ctx.record_path:
            record = spec.record(command, sweep, wall_time_s, stats)
            print(f"wrote {record.write(ctx.record_path)}")
        return 0


def _cmd_cache(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    from repro.eval import cache as cache_mod

    directory = _resolve_cache_dir(
        args.cache_dir, fallback_to_default=True
    )
    if args.cache_format != "text" and args.action != "stats":
        # 'cache clear --format json' would otherwise exit 0 while
        # printing the text summary anyway.
        parser.error(
            f"--format only applies to 'cache stats', not "
            f"'cache {args.action}'"
        )
    if args.action == "merge":
        if not args.dirs:
            parser.error(
                "cache merge needs at least one source DIR "
                "(merged into --cache-dir)"
            )
        try:
            summary = cache_mod.merge_cache_dirs(args.dirs, directory)
        except CacheError as error:
            parser.error(str(error))
        print(
            f"merged {len(summary['sources'])} shard(s) into "
            f"{summary['path']}: "
            f"{summary['total_entries']} entries "
            f"({summary['new_entries']} new)"
        )
        return 0
    if args.dirs:
        parser.error(
            f"DIR arguments only apply to 'cache merge', not "
            f"'cache {args.action}'"
        )
    try:
        if args.action == "clear":
            removed = cache_mod.clear_cache(directory)
            print(f"removed {removed} cache file(s) from {directory}")
            return 0
        stats = cache_mod.cache_stats(directory)
    except CacheError as error:
        parser.error(str(error))
    if args.cache_format == "json":
        # The machine-readable document monitoring scrapes — exactly
        # what the serve API's GET /v1/stats embeds under "cache".
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache directory: {stats['directory']}")
    if not stats["files"]:
        print("  (empty)")
        return 0
    rows = [
        [f["file"], f["backend"], str(f["entries"]), str(f["bytes"])]
        for f in stats["files"]
    ]
    print(R.format_table(["file", "backend", "entries", "bytes"], rows))
    print(f"total entries: {stats['total_entries']}")
    return 0


def _cmd_serve(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    from repro.serve.server import serve as run_serve

    ctx = _open_context(
        parser,
        cache_dir=_resolve_cache_dir(args.cache_dir),
    )
    # closing(): the service closes the engine on its own shutdown
    # path; this is the belt-and-braces close for failures before the
    # loop starts (both are idempotent).
    with closing(ctx.engine):
        return run_serve(
            ctx,
            host=args.host,
            port=args.port,
            max_concurrent=args.max_concurrent,
            record_dir=args.record,
        )


def _cmd_list(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> int:
    from repro.dnn.models import model_names

    filters = {}
    for item in args.filter:
        key, separator, value = item.partition("=")
        if not separator or not key:
            parser.error(
                f"bad --filter {item!r}; expected KEY=VALUE "
                f"(e.g. sparsity_side=dual)"
            )
        filters[key] = _coerce_metadata_value(value)
    known = sorted({key for info in REGISTRY for key in info.metadata})
    unknown = sorted(set(filters) - set(known))
    if unknown:
        parser.error(
            f"unknown --filter key {', '.join(map(repr, unknown))}; "
            f"registered designs carry: {', '.join(known)}"
        )
    infos = REGISTRY.filter(**filters) if filters else list(REGISTRY)
    rows = [
        [
            info.name,
            str(info.metadata.get("category", "-")),
            str(info.metadata.get("sparsity_side", "-")),
            ", ".join(
                f"{key}={value}"
                for key, value in sorted(info.metadata.items())
                if key not in ("category", "sparsity_side")
            ) or "-",
        ]
        for info in infos
    ]
    print("Registered designs")
    print(R.format_table(
        ["name", "category", "sparsity side", "metadata"], rows
    ))
    print("\nArtifacts (formats: " + ", ".join(FORMATS) + ")")
    print(R.format_table(
        ["name", "title"],
        [[info.name, info.title] for info in _artifacts().infos()],
    ))
    print("(plus 'all' for the paper order)")
    print(f"\nModels (sweep --model): {' '.join(model_names())}")
    return 0


def _cmd_report(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    from repro.eval.report import run_report
    from repro.eval.runs import record_from_artifacts, write_text_atomic

    _check_output_path(
        parser, "--output", args.output, create_parents=False
    )
    ctx = _build_context(args, parser)
    with closing(ctx.engine):
        report = run_report(ctx)
        write_text_atomic(args.output, report.document)
        if ctx.record_path:
            record = record_from_artifacts(
                command="report",
                results=report.outcome.results,
                engine=ctx.engine,
                wall_time_s=report.outcome.wall_time_s,
                artifact_stats=report.outcome.artifact_stats(),
            )
            print(f"wrote {record.write(ctx.record_path)}",
                  file=sys.stderr)
        print(f"wrote {args.output}")
        for failed in report.failed:
            print(
                f"repro: paper claim failed: {failed.artifact} "
                f"{failed.claim.id}: {failed.measured}",
                file=sys.stderr,
            )
        return 1 if report.failed else 0


def _split_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_lint(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro import analysis

    if args.list_rules:
        rows = [
            [info.id, info.name, info.category]
            for info in analysis.RULES.infos()
        ]
        print(R.format_table(("id", "name", "category"), rows))
        return 0
    try:
        result = analysis.lint_paths(
            args.paths,
            rules=_split_rule_list(args.rules),
            exclude=_split_rule_list(args.exclude_rules),
        )
    except LintUsageError as exc:
        parser.error(str(exc))  # exits 2
    if args.lint_format == "json":
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
    else:
        print(R.render_lint(result))
    return 0 if result.clean else 1


#: Parser built once per process: every choice list in
#: :func:`build_parser` is a module-level constant and argparse parsers
#: are reusable across ``parse_args`` calls, so rebuilding the ~40
#: argument declarations on each in-process ``main()`` call (tests,
#: benchmarks, notebook loops) is pure overhead.
_PARSER: Optional[argparse.ArgumentParser] = None


def _shared_parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] not in COMMANDS and (
        argv[0] == "all" or argv[0] in _artifacts()
    ):
        argv = ["artifact"] + argv
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.command == "artifact":
        return _cmd_artifact(args, parser)
    if args.command == "sweep":
        return _cmd_sweep(args, parser)
    if args.command == "cache":
        return _cmd_cache(args, parser)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "list":
        return _cmd_list(args, parser)
    if args.command == "lint":
        return _cmd_lint(args, parser)
    return _cmd_report(args, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
