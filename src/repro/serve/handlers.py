"""Run execution for ``repro serve``: engine work off the event loop.

Handlers here are the blocking halves of the service's endpoints —
each runs on an executor thread (the loop stays free to accept
requests and fan out events) and talks back exclusively through the
:class:`~repro.serve.coalescing.RunBroker`, which owns the
thread-to-loop handoff. Both executors follow the same contract:

* every event line goes through ``broker.publish`` the moment it
  exists (subscribers stream live, late joiners replay);
* failures after the stream head is committed travel as a terminal
  ``{"event": "error", ...}`` line — never a lost connection;
* ``broker.finish`` runs unconditionally, so no subscriber can wait
  on a dead run.

``ArtifactFinished`` lines are encoded by
:func:`repro.eval.artifacts.finished_event_line` — the CLI's exact
``--stream --format json`` encoder — keeping the service's NDJSON
byte-compatible with ``repro all --stream --format json``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.eval import cache as cache_mod
from repro.serve import protocol
from repro.serve.coalescing import InflightRun
from repro.eval.artifacts import (
    ArtifactFinished,
    ArtifactStarted,
    RunFinished,
    RunPlan,
    finished_event_line,
    stats_by_artifact,
)
from repro.eval.runs import record_from_artifacts
from repro.eval.sweeps import SweepSpec

if TYPE_CHECKING:  # typing-only, avoids a cycle with server
    from repro.serve.server import EvaluationService


def execute_artifacts(
    service: "EvaluationService",
    run: InflightRun,
    spec: protocol.ArtifactsSpec,
) -> None:
    """Run one artifact plan, streaming its events. Executor thread."""
    broker = service.broker
    try:
        plan = RunPlan.from_names(
            spec.names, service.ctx, registry=service.registry
        )
        finished = []
        final: Optional[RunFinished] = None
        for event in plan.events():
            if isinstance(event, ArtifactStarted):
                broker.publish(run, protocol.started_line(event))
            elif isinstance(event, ArtifactFinished):
                finished.append(event)
                broker.publish(run, finished_event_line(event))
            else:
                final = event
                broker.publish(run, protocol.run_finished_line(event))
        if service.record_dir is not None and final is not None:
            record_from_artifacts(
                command="serve-artifacts",
                results=final.results,
                wall_time_s=final.wall_time_s,
                artifact_stats=stats_by_artifact(finished),
                stats=final.stats,
            ).write(service.record_path(run))
    except BaseException as error:
        broker.publish(run, protocol.error_line(error))
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            raise
    finally:
        broker.finish(run)


def execute_sweep(
    service: "EvaluationService",
    run: InflightRun,
    spec: SweepSpec,
) -> None:
    """Run one sweep, streaming its three events. Executor thread.

    The events are those of a one-artifact run named ``sweep``, so
    they go through the artifacts run's encoders."""
    broker = service.broker
    engine = service.ctx.engine
    try:
        broker.publish(
            run, protocol.started_line(ArtifactStarted("sweep", 0, 1))
        )
        checkpoint = engine.checkpoint()
        start = time.perf_counter()
        sweep: Any = spec.run(service.ctx)
        # Mirror RunPlan.events(): a served run is durable before it
        # announces completion.
        engine.flush()
        wall_time_s = time.perf_counter() - start
        stats = engine.stats_since(checkpoint)
        broker.publish(run, finished_event_line(ArtifactFinished(
            "sweep", 0, 1, sweep, stats, wall_time_s,
        )))
        broker.publish(run, protocol.run_finished_line(
            RunFinished({"sweep": sweep}, stats, wall_time_s)
        ))
        if service.record_dir is not None:
            spec.record(
                "serve-sweep", sweep, wall_time_s, stats
            ).write(service.record_path(run))
    except BaseException as error:
        broker.publish(run, protocol.error_line(error))
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            raise
    finally:
        broker.finish(run)


def stats_payload(service: "EvaluationService") -> Dict[str, Any]:
    """The ``GET /v1/stats`` document. Event-loop thread.

    ``engine`` is a consistent snapshot (``checkpoint()`` reads under
    the engine lock); ``cache`` is the exact
    :func:`repro.eval.cache.cache_stats` payload — the same document
    ``repro cache stats --format json`` prints.
    """
    cache: Optional[Dict[str, Any]] = None
    cache_dir = service.ctx.cache_dir
    if cache_dir is not None:
        cache = cache_mod.cache_stats(cache_dir)
    return {
        "server": {
            "host": service.host,
            "port": service.port,
            "max_concurrent": service.max_concurrent,
            "requests": service.requests,
            **service.broker.counts(),
        },
        "engine": service.ctx.engine.checkpoint().as_dict(),
        "cache": cache,
    }
