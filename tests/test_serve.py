"""Tests for ``repro serve``: protocol, coalescing, streams, shutdown.

The async tests drive :class:`~repro.serve.server.EvaluationService`
directly via ``start()``/``aclose()`` on ``port=0`` inside
``asyncio.run`` (no async test plugin needed); one subprocess test
exercises the real ``python -m repro serve`` entry point end to end,
SIGTERM included.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.accelerators import main_design_names
from repro.errors import ServeError
from repro.eval import cache as cache_mod
from repro.eval import experiments as E
from repro.eval.artifacts import (
    ArtifactFinished,
    ArtifactRegistry,
    RunPlan,
    artifact,
    finished_event_line,
)
from repro.eval.engine import EngineContext, SweepResult
from repro.serve import protocol
from repro.serve.server import EvaluationService

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A small valid inline model table (the ``--model-file`` schema).
MODEL_TABLE = {
    "name": "ServeNet",
    "layers": [
        {"type": "linear", "name": "fc1", "in_features": 32,
         "out_features": 32, "tokens": 8},
    ],
}


def run_async(coro, timeout=240):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def http_bytes(port, payload):
    """Send raw bytes to the server, return (status, body-after-head)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


async def request(port, method, path, body=None):
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1")
    return await http_bytes(port, head + payload)


def ndjson(body):
    """Close-delimited NDJSON body -> list of decoded objects."""
    return [
        json.loads(line)
        for line in body.decode("utf-8").splitlines()
        if line
    ]


async def poll(condition, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if condition():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not met before timeout")


# ----------------------------------------------------------------------
# Spec validation + canonical digests (pure, no server)
# ----------------------------------------------------------------------


class TestArtifactsSpec:
    def test_all_and_explicit_list_share_a_digest(self):
        from repro.eval.artifacts import ARTIFACTS

        spec_all = protocol.parse_artifacts_spec({"artifacts": "all"})
        explicit = protocol.parse_artifacts_spec(
            {"artifacts": list(ARTIFACTS.names())}
        )
        assert spec_all.names == ARTIFACTS.names()
        assert spec_all.digest == explicit.digest

    def test_different_selections_do_not_collide(self):
        one = protocol.parse_artifacts_spec({"artifacts": ["tables"]})
        two = protocol.parse_artifacts_spec(
            {"artifacts": ["tables", "fig6"]}
        )
        assert one.digest != two.digest

    def test_order_is_part_of_the_key(self):
        # Runs execute in spec order, so reordered specs are
        # different runs (their streams differ line for line).
        ab = protocol.parse_artifacts_spec(
            {"artifacts": ["tables", "fig6"]}
        )
        ba = protocol.parse_artifacts_spec(
            {"artifacts": ["fig6", "tables"]}
        )
        assert ab.digest != ba.digest

    @pytest.mark.parametrize(
        "bad",
        [
            ["tables"],
            {"artifact": ["tables"]},
            {"artifacts": []},
            {"artifacts": [1]},
            {"artifacts": ["tables", "tables"]},
            {"artifacts": ["nope"]},
        ],
    )
    def test_invalid_specs_raise_serve_error(self, bad):
        with pytest.raises(ServeError):
            protocol.parse_artifacts_spec(bad)

    def test_unknown_artifact_message_lists_registry(self):
        with pytest.raises(ServeError, match="tables"):
            protocol.parse_artifacts_spec({"artifacts": ["nope"]})


class TestSweepSpec:
    def test_defaults_resolve_into_the_digest(self):
        implicit = protocol.parse_sweep_spec({})
        explicit = protocol.parse_sweep_spec(
            {
                "designs": list(main_design_names()),
                "a_degrees": list(E.A_DEGREES),
                "b_degrees": list(E.B_DEGREES),
                "size": 1024,
            }
        )
        assert implicit.kind == "grid"
        assert implicit.digest == explicit.digest

    def test_int_and_float_degrees_coalesce(self):
        ints = protocol.parse_sweep_spec(
            {"a_degrees": [0, 0.5], "b_degrees": [0.5], "size": 32}
        )
        floats = protocol.parse_sweep_spec(
            {"a_degrees": [0.0, 0.5], "b_degrees": [0.5], "size": 32}
        )
        assert ints.digest == floats.digest

    def test_duplicate_degrees_coalesce(self):
        single = protocol.parse_sweep_spec(
            {"a_degrees": [0.5], "b_degrees": [0.0], "size": 32}
        )
        repeated = protocol.parse_sweep_spec(
            {"a_degrees": [0.5, 0.5], "b_degrees": [0, 0.0], "size": 32}
        )
        assert repeated.a_degrees == (0.5,)
        assert repeated.b_degrees == (0.0,)
        assert repeated.digest == single.digest

    def test_model_sweep_degrees_deduplicate_in_order(self):
        spec = protocol.parse_sweep_spec(
            {"model": "ResNet50", "designs": ["TC"],
             "degrees": [0.75, 0.5, 0.75]}
        )
        assert spec.degrees == (0.75, 0.5)

    def test_model_sweep_defaults_resolve(self):
        implicit = protocol.parse_sweep_spec({"model": "ResNet50"})
        explicit = protocol.parse_sweep_spec(
            {
                "model": "ResNet50",
                "designs": list(main_design_names()),
            }
        )
        assert implicit.kind == "model"
        assert implicit.digest == explicit.digest

    def test_inline_table_key_order_is_irrelevant(self):
        table = dict(MODEL_TABLE)
        shuffled = dict(reversed(list(table.items())))
        a = protocol.parse_sweep_spec(
            {"model": table, "designs": ["TC"], "degrees": [0.5]}
        )
        b = protocol.parse_sweep_spec(
            {"model": shuffled, "designs": ["TC"], "degrees": [0.5]}
        )
        assert list(table) != list(shuffled)
        assert a.digest == b.digest
        assert a.model is not None and a.model.name == "ServeNet"

    def test_inline_models_are_not_registered_globally(self):
        from repro.dnn.models import MODEL_BUILDERS

        protocol.parse_sweep_spec({"model": dict(MODEL_TABLE)})
        assert "ServeNet" not in MODEL_BUILDERS

    @pytest.mark.parametrize(
        ("bad", "match"),
        [
            ([], "JSON object"),
            ({"grid": True}, "unknown sweep spec key"),
            ({"designs": []}, "non-empty list"),
            ({"designs": ["bogus"]}, "unknown design"),
            ({"designs": ["TC", "TC"]}, "duplicate design"),
            ({"a_degrees": [1.5]}, r"in \[0, 1\)"),
            ({"a_degrees": [True]}, "sparsity degrees"),
            ({"size": 0}, "positive integer"),
            ({"size": True}, "positive integer"),
            ({"model": "ResNet50", "size": 32}, "grid sweeps"),
            ({"degrees": [0.5]}, "model sweeps"),
            ({"model": "NoSuchNet"}, "NoSuchNet"),
            ({"model": {"name": "x"}}, "missing field"),
            (
                {"model": "ResNet50",
                 "profile": {"not-a-layer": 0.5}},
                "not-a-layer",
            ),
        ],
    )
    def test_invalid_specs_raise_serve_error(self, bad, match):
        with pytest.raises(ServeError, match=match):
            protocol.parse_sweep_spec(bad)


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------


class TestEndpoints:
    async def _serve(self, exercise, **service_kw):
        service = EvaluationService(
            EngineContext.create(), port=0, **service_kw
        )
        await service.start()
        try:
            await exercise(service)
        finally:
            await service.aclose()

    def test_health(self):
        async def exercise(service):
            status, body = await request(
                service.port, "GET", "/v1/health"
            )
            assert status == 200
            assert json.loads(body) == {"status": "ok"}

        run_async(self._serve(exercise))

    def test_health_rejects_post(self):
        async def exercise(service):
            status, body = await request(
                service.port, "POST", "/v1/health", body={}
            )
            assert status == 405
            assert json.loads(body)["status"] == 405

        run_async(self._serve(exercise))

    def test_stats_shape_without_cache(self):
        async def exercise(service):
            status, body = await request(
                service.port, "GET", "/v1/stats"
            )
            assert status == 200
            payload = json.loads(body)
            assert set(payload) == {"server", "engine", "cache"}
            assert payload["cache"] is None
            server = payload["server"]
            assert server["port"] == service.port
            assert server["max_concurrent"] == 1
            assert server["requests"] == 1
            assert server["active_runs"] == 0
            assert server["runs_started"] == 0
            assert server["coalesced_requests"] == 0
            assert server["completed_runs"] == 0
            assert server["host"] == "127.0.0.1"
            assert set(payload["engine"]) == {
                "hits", "disk_hits", "misses", "evaluations",
                "requests",
            }

        run_async(self._serve(exercise))

    def test_unknown_path_is_404_with_endpoint_list(self):
        async def exercise(service):
            status, body = await request(service.port, "GET", "/nope")
            assert status == 404
            payload = json.loads(body)
            assert payload["type"] == "ServeError"
            assert "/v1/artifacts" in payload["error"]

        run_async(self._serve(exercise))

    def test_bad_json_body_is_400(self):
        async def exercise(service):
            head = (
                b"POST /v1/artifacts HTTP/1.1\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            status, body = await http_bytes(service.port, head)
            assert status == 400
            assert "not valid JSON" in json.loads(body)["error"]

        run_async(self._serve(exercise))

    def test_unknown_artifact_is_400(self):
        async def exercise(service):
            status, body = await request(
                service.port, "POST", "/v1/artifacts",
                body={"artifacts": ["nope"]},
            )
            assert status == 400
            payload = json.loads(body)
            assert "unknown artifact" in payload["error"]
            assert "tables" in payload["error"]

        run_async(self._serve(exercise))

    def test_artifacts_rejects_get(self):
        async def exercise(service):
            status, _ = await request(
                service.port, "GET", "/v1/artifacts"
            )
            assert status == 405

        run_async(self._serve(exercise))

    def test_oversized_body_is_413(self):
        async def exercise(service):
            length = protocol.MAX_BODY_BYTES + 1
            head = (
                f"POST /v1/artifacts HTTP/1.1\r\n"
                f"Content-Length: {length}\r\n\r\n"
            ).encode("latin-1")
            status, _ = await http_bytes(service.port, head)
            assert status == 413

        run_async(self._serve(exercise))

    def test_chunked_body_is_411(self):
        async def exercise(service):
            head = (
                b"POST /v1/artifacts HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            status, _ = await http_bytes(service.port, head)
            assert status == 411

        run_async(self._serve(exercise))

    def test_malformed_request_line_is_400(self):
        async def exercise(service):
            status, _ = await http_bytes(
                service.port, b"GARBAGE\r\n\r\n"
            )
            assert status == 400

        run_async(self._serve(exercise))


# ----------------------------------------------------------------------
# Artifact streams: shape, CLI byte-compatibility, warm replay
# ----------------------------------------------------------------------


class TestArtifactStream:
    def test_stream_shape_and_cli_byte_compatibility(self, tmp_path):
        run_async(self._run(tmp_path))

    async def _run(self, tmp_path):
        # Both of these evaluate workloads through the engine, so the
        # cold-vs-warm evaluation counters below are meaningful.
        names = ["fig16", "fig17"]
        service = EvaluationService(
            EngineContext.create(
                cache_dir=str(tmp_path / "serve-cache")
            ),
            port=0,
        )
        await service.start()
        try:
            status, body = await request(
                service.port, "POST", "/v1/artifacts",
                body={"artifacts": names},
            )
            assert status == 200
            lines = body.decode("utf-8").splitlines()
            events = [json.loads(line) for line in lines]
            # started / finished pairs per artifact + one run summary.
            assert events[0] == {
                "event": "started", "artifact": "fig16",
                "index": 0, "total": 2,
            }
            assert events[2] == {
                "event": "started", "artifact": "fig17",
                "index": 1, "total": 2,
            }
            assert events[-1]["event"] == "finished"
            assert events[-1]["stats"]["evaluations"] > 0
            assert events[-1]["wall_time_s"] > 0

            # The ArtifactFinished lines are byte-identical to what
            # `repro all --stream --format json` prints for the same
            # cold run (both go through finished_event_line).
            served = [
                line for line in lines
                if "event" not in json.loads(line)
            ]
            with EngineContext.create(
                cache_dir=str(tmp_path / "cli-cache")
            ) as ctx:
                expected = [
                    finished_event_line(event)
                    for event in RunPlan.from_names(
                        names, ctx
                    ).events()
                    if isinstance(event, ArtifactFinished)
                ]
            assert served == expected

            # A repeat of the same spec after completion is a pure
            # warm-cache replay: same payloads, zero evaluations.
            status, warm_body = await request(
                service.port, "POST", "/v1/artifacts",
                body={"artifacts": names},
            )
            assert status == 200
            warm = [
                event for event in ndjson(warm_body)
                if "event" not in event
            ]
            cold = [json.loads(line) for line in served]
            assert [w["payload"] for w in warm] == [
                c["payload"] for c in cold
            ]
            for event in warm:
                assert event["stats"]["evaluations"] == 0
            counts = service.broker.counts()
            assert counts["runs_started"] == 2
            assert counts["coalesced_requests"] == 0
        finally:
            await service.aclose()


class TestSweepStream:
    def test_grid_sweep_streams_and_memoizes(self):
        run_async(self._grid())

    async def _grid(self):
        spec = {
            "designs": ["TC", "HighLight"],
            "a_degrees": [0.5],
            "b_degrees": [0.5],
            "size": 32,
        }
        service = EvaluationService(EngineContext.create(), port=0)
        await service.start()
        try:
            status, body = await request(
                service.port, "POST", "/v1/sweep", body=spec
            )
            assert status == 200
            started, finished, summary = ndjson(body)
            assert started == {
                "event": "started", "artifact": "sweep",
                "index": 0, "total": 1,
            }
            assert finished["artifact"] == "sweep"
            assert finished["payload"]["rows"]
            assert finished["stats"]["evaluations"] > 0
            assert summary["event"] == "finished"
            assert summary["stats"] == finished["stats"]

            status, warm = await request(
                service.port, "POST", "/v1/sweep", body=spec
            )
            assert status == 200
            assert ndjson(warm)[1]["stats"]["evaluations"] == 0
        finally:
            await service.aclose()

    def test_inline_model_sweep(self):
        run_async(self._model())

    async def _model(self):
        service = EvaluationService(EngineContext.create(), port=0)
        await service.start()
        try:
            status, body = await request(
                service.port, "POST", "/v1/sweep",
                body={
                    "model": MODEL_TABLE,
                    "designs": ["TC"],
                    "degrees": [0.5],
                },
            )
            assert status == 200
            finished = ndjson(body)[1]
            assert finished["artifact"] == "sweep"
            assert finished["payload"]["model"] == "ServeNet"
            assert finished["stats"]["evaluations"] > 0
        finally:
            await service.aclose()


# ----------------------------------------------------------------------
# Coalescing (the tentpole invariant: identical concurrent specs
# evaluate exactly once, every subscriber gets the full stream)
# ----------------------------------------------------------------------


def _gated_registry(gate):
    """A registry with a 'gated' artifact that blocks on ``gate``
    before evaluating one tiny grid, plus an ungated 'quick' one."""
    registry = ArtifactRegistry()

    @artifact("gated", SweepResult, text=lambda r: "gated",
              registry=registry)
    def _gated(ctx):
        assert gate.wait(timeout=60), "test gate never released"
        return ctx.engine.sweep(
            designs=("TC",), a_degrees=(0.5,), b_degrees=(0.5,),
            m=32, k=32, n=32,
        )

    @artifact("quick", SweepResult, text=lambda r: "quick",
              registry=registry)
    def _quick(ctx):
        return ctx.engine.sweep(
            designs=("TC",), a_degrees=(0.25,), b_degrees=(0.25,),
            m=32, k=32, n=32,
        )

    return registry


class TestCoalescing:
    def test_identical_concurrent_posts_evaluate_once(self):
        run_async(self._coalesce())

    async def _coalesce(self):
        gate = threading.Event()
        ctx = EngineContext.create()
        service = EvaluationService(
            ctx, port=0, registry=_gated_registry(gate)
        )
        await service.start()
        try:
            spec = {"artifacts": ["gated"]}
            first = asyncio.ensure_future(
                request(service.port, "POST", "/v1/artifacts",
                        body=spec)
            )
            await poll(
                lambda: service.broker.counts()["active_runs"] == 1
            )
            second = asyncio.ensure_future(
                request(service.port, "POST", "/v1/artifacts",
                        body=spec)
            )
            await poll(
                lambda: service.broker.counts()[
                    "coalesced_requests"
                ] == 1
            )
            gate.set()
            (status_a, body_a), (status_b, body_b) = (
                await asyncio.gather(first, second)
            )
            assert status_a == status_b == 200
            # Both subscribers receive the run's exact stream.
            assert body_a == body_b
            counts = service.broker.counts()
            assert counts["runs_started"] == 1
            assert counts["completed_runs"] == 1
            assert counts["active_runs"] == 0
            evaluated = ctx.engine.checkpoint().evaluations
            assert evaluated > 0

            # A third identical request after completion starts a new
            # run but performs zero evaluations: the warm shared cache
            # serves it.
            status_c, body_c = await request(
                service.port, "POST", "/v1/artifacts", body=spec
            )
            assert status_c == 200
            finished = [
                event for event in ndjson(body_c)
                if "event" not in event
            ]
            assert finished[0]["stats"]["evaluations"] == 0
            assert ctx.engine.checkpoint().evaluations == evaluated
            counts = service.broker.counts()
            assert counts["runs_started"] == 2
            assert counts["coalesced_requests"] == 1
        finally:
            gate.set()
            await service.aclose()

    def test_different_specs_do_not_coalesce(self):
        run_async(self._distinct())

    async def _distinct(self):
        gate = threading.Event()
        service = EvaluationService(
            EngineContext.create(), port=0,
            registry=_gated_registry(gate),
        )
        await service.start()
        try:
            first = asyncio.ensure_future(
                request(service.port, "POST", "/v1/artifacts",
                        body={"artifacts": ["gated"]})
            )
            await poll(
                lambda: service.broker.counts()["active_runs"] == 1
            )
            # Different spec while the first is in flight: a second
            # run starts (queued behind max_concurrent=1), nothing
            # coalesces.
            second = asyncio.ensure_future(
                request(service.port, "POST", "/v1/artifacts",
                        body={"artifacts": ["quick"]})
            )
            await poll(
                lambda: service.broker.counts()["runs_started"] == 2
            )
            assert (
                service.broker.counts()["coalesced_requests"] == 0
            )
            gate.set()
            (status_a, body_a), (status_b, body_b) = (
                await asyncio.gather(first, second)
            )
            assert status_a == status_b == 200
            assert body_a != body_b
            assert service.broker.counts()["completed_runs"] == 2
        finally:
            gate.set()
            await service.aclose()


# ----------------------------------------------------------------------
# Lifecycle: in-process teardown and the real SIGTERM path
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_aclose_is_idempotent_and_engine_survives(self):
        run_async(self._run())

    async def _run(self):
        ctx = EngineContext.create()
        service = EvaluationService(ctx, port=0)
        await service.start()
        status, _ = await request(service.port, "GET", "/v1/health")
        assert status == 200
        await service.aclose()
        await service.aclose()  # second teardown is a no-op
        service.close()  # and so is a late sync close
        # The engine reopens lazily after close: a post-shutdown
        # caller holding the context can still evaluate.
        sweep = ctx.engine.sweep(
            designs=("TC",), a_degrees=(0.5,), b_degrees=(0.5,),
            m=32, k=32, n=32,
        )
        assert sweep.to_payload()["rows"]
        ctx.close()

    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM"), reason="needs POSIX signals"
    )
    def test_subprocess_sigterm_drains_and_flushes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        record_dir = tmp_path / "records"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", str(cache_dir),
                "--record", str(record_dir),
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stderr is not None
            line = proc.stderr.readline().strip()
            assert line.startswith("serving on http://127.0.0.1:")
            port = int(line.rsplit(":", 1)[1])

            conn = HTTPConnection("127.0.0.1", port, timeout=120)
            conn.request(
                "POST", "/v1/artifacts",
                body=json.dumps({"artifacts": ["fig16"]}),
            )
            response = conn.getresponse()
            stream = response.read()
            conn.close()
            assert response.status == 200
            events = [
                json.loads(l)
                for l in stream.decode("utf-8").splitlines()
            ]
            assert events[-1]["event"] == "finished"

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # Graceful shutdown left the shared cache flushed on disk and
        # wrote one schema-v4 record for the served run.
        stats = cache_mod.cache_stats(cache_dir)
        assert stats["total_entries"] > 0
        records = sorted(record_dir.glob("serve-*.json"))
        assert len(records) == 1
        record = json.loads(records[0].read_text())
        assert record["schema_version"] == 4
        assert record["command"] == "serve-artifacts"
        assert record["artifact_stats"]["fig16"]["evaluations"] > 0
