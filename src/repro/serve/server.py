"""The ``repro serve`` service: one warm engine behind an HTTP API.

:class:`EvaluationService` wraps a single long-lived
:class:`~repro.eval.engine.EngineContext` — one memoization domain,
one persistent cache — behind four endpoints:

* ``POST /v1/artifacts`` — run a JSON artifact spec through
  :class:`~repro.eval.artifacts.RunPlan`, streaming events as NDJSON;
* ``POST /v1/sweep`` — run a model/grid sweep spec, same stream shape;
* ``GET /v1/health`` — liveness probe;
* ``GET /v1/stats`` — server + engine + cache counters.

Identical concurrent POSTs coalesce by canonical spec digest (see
:mod:`repro.serve.coalescing`): the evaluations of exactly one run are
performed, every subscriber receives the full event stream, and —
because all requests share the engine — a request arriving *after* a
run completed is a pure warm-cache replay with ``evaluations == 0``.

Concurrency model: evaluation happens on executor threads; the event
loop only parses requests and fans lines out. ``max_concurrent``
(default 1) bounds *executing* runs — coalesced joiners cost nothing
and never queue. The default of 1 also keeps per-artifact
``EngineStats`` deltas exact: the engine's counters are global, so two
different runs interleaving would bleed into each other's scoped
deltas.

Shutdown is signal-driven and REP004-clean: SIGINT/SIGTERM stop the
listener, in-flight runs drain completely (the durability contract —
a served result is flushed before its stream ends), open streams get a
short grace to finish writing, and the engine closes on every exit
path (idempotently, so a CLI ``finally:`` double-closing after the
signal path is a no-op).
"""

from __future__ import annotations

import asyncio
import functools
import signal
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Set

from repro.endpoint import DEFAULT_PORT
from repro.errors import ServeError
from repro.eval.artifacts import ArtifactRegistry
from repro.eval.engine import EngineContext
from repro.serve import protocol
from repro.serve.coalescing import InflightRun, RunBroker
from repro.serve.handlers import (
    execute_artifacts,
    execute_sweep,
    stats_payload,
)

#: Seconds open response streams get to finish writing after every
#: execution has drained at shutdown (streams of finished runs flush
#: in milliseconds; only a stalled client burns the full grace).
CONNECTION_DRAIN_GRACE_S = 5.0


class EvaluationService:
    """The long-lived evaluation service around one shared context.

    Construct, then either ``await run()`` (binds, serves until
    :meth:`request_shutdown`, drains, closes the engine — the CLI
    path) or drive :meth:`start`/:meth:`aclose` directly (tests).
    ``port=0`` binds a free port; :attr:`port` holds the real one
    after :meth:`start`.
    """

    # Created in start() — asyncio primitives are loop-affine.
    broker: RunBroker

    def __init__(
        self,
        ctx: EngineContext,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        registry: Optional[ArtifactRegistry] = None,
        max_concurrent: int = 1,
        record_dir: "str | Path | None" = None,
    ) -> None:
        self.ctx = ctx
        self.host = host
        self.port = port
        self.registry = registry
        self.max_concurrent = max_concurrent
        self.record_dir = (
            Path(record_dir) if record_dir is not None else None
        )
        #: HTTP requests parsed so far (event-loop thread only).
        self.requests = 0
        self._server: Optional[asyncio.Server] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._connections: Set["asyncio.Task[Any]"] = set()
        self._executions: Set["asyncio.Task[Any]"] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and arm the run machinery."""
        loop = asyncio.get_running_loop()
        self.broker = RunBroker(loop)
        self._semaphore = asyncio.Semaphore(self.max_concurrent)
        self._shutdown = asyncio.Event()
        if self.record_dir is not None:
            self.record_dir.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (idempotent; called from signal
        handlers on the event loop)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def run(self, announce: bool = True) -> int:
        """Serve until shutdown is requested; returns the exit code."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix loop: rely on request_shutdown callers
        try:
            if announce:
                # stderr, flushed: supervisors (and the CI smoke job)
                # parse this line for the bound port.
                print(
                    f"serving on http://{self.host}:{self.port}",
                    file=sys.stderr, flush=True,
                )
            if self._shutdown is not None:
                await self._shutdown.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.aclose()
        return 0

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight runs, close the engine."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Runs drain fully — a served evaluation is never abandoned
        # mid-flight, and the terminal flush below only has dirty
        # entries the debounce deferred.
        if self._executions:
            await asyncio.gather(
                *list(self._executions), return_exceptions=True
            )
        if self._connections:
            _, pending = await asyncio.wait(
                list(self._connections),
                timeout=CONNECTION_DRAIN_GRACE_S,
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(
                    *pending, return_exceptions=True
                )
        self.close()

    def close(self) -> None:
        """Flush and close the engine (idempotent — safe after
        :meth:`aclose` already closed it, or before :meth:`start`)."""
        self.ctx.close()

    def record_path(self, run: InflightRun) -> Path:
        """Where one executed (non-coalesced) run's record lands."""
        if self.record_dir is None:
            raise ServeError("service has no --record directory",
                             status=500)
        return self.record_dir / (
            f"serve-{run.sequence:04d}-{run.digest[:12]}.json"
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, TimeoutError):
            pass  # client went away mid-exchange
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await protocol.read_request(reader)
        except ServeError as error:
            writer.write(protocol.error_response(error))
            await writer.drain()
            return
        if request is None:
            return  # probe: connected, sent nothing, went away
        self.requests += 1
        try:
            await self._route(request, writer)
        except ServeError as error:
            # Spec validation happens before the stream head is
            # written, so an error here always has headers to use.
            writer.write(protocol.error_response(error))
            await writer.drain()

    async def _route(
        self, request: protocol.Request, writer: asyncio.StreamWriter
    ) -> None:
        if request.path == "/v1/health":
            self._require(request, "GET")
            writer.write(protocol.json_response(200, {"status": "ok"}))
            await writer.drain()
            return
        if request.path == "/v1/stats":
            self._require(request, "GET")
            writer.write(
                protocol.json_response(200, stats_payload(self))
            )
            await writer.drain()
            return
        if request.path == "/v1/artifacts":
            self._require(request, "POST")
            artifacts_spec = protocol.parse_artifacts_spec(
                request.json_body(), registry=self.registry
            )
            await self._stream_run(
                writer,
                artifacts_spec.digest,
                lambda run: functools.partial(
                    execute_artifacts, self, run, artifacts_spec
                ),
            )
            return
        if request.path == "/v1/sweep":
            self._require(request, "POST")
            sweep_spec = protocol.parse_sweep_spec(request.json_body())
            await self._stream_run(
                writer,
                sweep_spec.digest,
                lambda run: functools.partial(
                    execute_sweep, self, run, sweep_spec
                ),
            )
            return
        raise ServeError(
            f"unknown path {request.path!r}; endpoints: /v1/health, "
            f"/v1/stats, /v1/artifacts, /v1/sweep", status=404,
        )

    def _require(self, request: protocol.Request, method: str) -> None:
        if request.method != method:
            raise ServeError(
                f"{request.path} only supports {method}, got "
                f"{request.method}", status=405,
            )

    async def _stream_run(
        self,
        writer: asyncio.StreamWriter,
        digest: str,
        runner_for: Callable[[InflightRun], Callable[[], None]],
    ) -> None:
        """Join-or-start the digest's run and stream it to ``writer``.

        The coalescing decision happens *before* the concurrency
        semaphore: joiners subscribe immediately and never occupy an
        execution slot.
        """
        run, created = self.broker.join_or_start(digest)
        if created:
            task = asyncio.ensure_future(
                self._drive(runner_for(run))
            )
            self._executions.add(task)
            task.add_done_callback(self._executions.discard)
        queue = self.broker.subscribe(run)
        writer.write(protocol.stream_head())
        await writer.drain()
        while True:
            line = await queue.get()
            if line is None:
                break
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()

    async def _drive(self, runner: Callable[[], None]) -> None:
        """One run's execution slot: bounded by ``max_concurrent``,
        blocking work on an executor thread."""
        if self._semaphore is None:  # start() arms it before any run
            raise ServeError("service not started", status=500)
        async with self._semaphore:
            await asyncio.get_running_loop().run_in_executor(
                None, runner
            )


def serve(
    ctx: EngineContext,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    registry: Optional[ArtifactRegistry] = None,
    max_concurrent: int = 1,
    record_dir: "str | Path | None" = None,
    announce: bool = True,
) -> int:
    """Blocking entry point: serve ``ctx`` until SIGINT/SIGTERM.

    The CLI path behind ``repro serve``. Returns the process exit
    code (0 on a clean drain).
    """
    service = EvaluationService(
        ctx,
        host=host,
        port=port,
        registry=registry,
        max_concurrent=max_concurrent,
        record_dir=record_dir,
    )
    try:
        return asyncio.run(service.run(announce=announce))
    finally:
        # run() already closed the engine on its way out; this is the
        # belt-and-braces close for failures before/inside asyncio.run
        # (idempotent, REP004).
        service.close()
