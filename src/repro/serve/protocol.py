"""Wire protocol for ``repro serve``: HTTP/1.1 plumbing + JSON specs.

The service speaks a deliberately minimal slice of HTTP/1.1 over
``asyncio`` streams — enough for ``curl``, ``http.client``, and any
load balancer's health probe, with no dependency beyond the standard
library:

* one request per connection (every response carries
  ``Connection: close``);
* bodies are ``Content-Length``-delimited (chunked uploads are
  rejected loudly — a spec is a small JSON object);
* NDJSON responses stream close-delimited, one event per line.

The spec parsers here adapt the library's: artifacts specs resolve
through :func:`repro.eval.artifacts.names_from_spec`, sweep specs
through :func:`repro.eval.sweeps.sweep_spec` (the parser ``repro
sweep`` uses too). Each spec carries a canonical digest, the
coalescing key: two requests coalesce exactly when their *normalized*
specs serialize identically (key order, ``"all"`` expansion, and
default grids never split runs). Validation failures raise
:class:`~repro.errors.ServeError` (400) with the library's message,
so clients see what the CLI prints.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import EvaluationError, ServeError, SweepSpecError
from repro.eval.artifacts import (
    ArtifactRegistry,
    ArtifactStarted,
    RunFinished,
    names_from_spec,
)
from repro.eval.engine import EngineStats
from repro.eval.sweeps import SweepSpec, spec_digest, sweep_spec

#: Request line + headers must fit in this many bytes.
MAX_HEADER_BYTES = 64 * 1024
#: Largest accepted request body (specs are small JSON objects).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a connection may take to deliver its request head + body.
REQUEST_READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


# ----------------------------------------------------------------------
# HTTP/1.1: request parsing and response framing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json_body(self) -> Any:
        """The body decoded as JSON, or a 400 :class:`ServeError`."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(f"request body is not valid JSON: {error}")


async def read_request(
    reader: asyncio.StreamReader,
    timeout_s: float = REQUEST_READ_TIMEOUT_S,
) -> Optional[Request]:
    """Parse one request off the stream.

    Returns ``None`` when the peer closed without sending anything (a
    port probe); raises :class:`ServeError` with the right 4xx status
    for everything malformed.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=timeout_s
        )
    except asyncio.TimeoutError:
        raise ServeError("timed out reading request head", status=408)
    except asyncio.LimitOverrunError:
        raise ServeError(
            f"request head exceeds {MAX_HEADER_BYTES} bytes",
            status=431,
        )
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean disconnect before any bytes
        raise ServeError("connection closed mid-request")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 total
        raise ServeError("undecodable request head")
    request_line, _, header_block = text.partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServeError(f"malformed request line: {request_line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ServeError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ServeError(
            "chunked request bodies are not supported; send "
            "Content-Length-delimited JSON", status=411,
        )
    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ServeError(f"bad Content-Length: {length_text!r}")
    if length < 0:
        raise ServeError(f"bad Content-Length: {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise ServeError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit", status=413,
        )
    if length:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=timeout_s
            )
        except asyncio.TimeoutError:
            raise ServeError(
                "timed out reading request body", status=408
            )
        except asyncio.IncompleteReadError:
            raise ServeError("connection closed mid-body")
    # Strip any query string: the API is purely path + JSON body.
    path = target.partition("?")[0]
    return Request(method=method, path=path, headers=headers, body=body)


def _head(status: int, content_type: str,
          content_length: Optional[int]) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(status: int, payload: Any) -> bytes:
    """A complete JSON response (head + body)."""
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )
    return _head(status, "application/json", len(body)) + body


def error_response(error: ServeError) -> bytes:
    """The JSON body every request-level failure gets."""
    return json_response(
        error.status,
        {
            "error": str(error),
            "status": error.status,
            "type": type(error).__name__,
        },
    )


def stream_head() -> bytes:
    """Response head for an NDJSON event stream (close-delimited)."""
    return _head(200, "application/x-ndjson", None)


# ----------------------------------------------------------------------
# NDJSON event lines
# ----------------------------------------------------------------------
#
# ``ArtifactFinished`` lines come from
# :func:`repro.eval.artifacts.finished_event_line` — the CLI's exact
# ``--stream --format json`` encoder — and therefore carry no "event"
# key. The service-only frames below all do, so clients (and the CI
# byte-diff) separate the two kinds with one membership test.


def started_line(event: ArtifactStarted) -> str:
    return json.dumps(
        {
            "event": "started",
            "artifact": event.name,
            "index": event.index,
            "total": event.total,
        }
    )


def run_finished_line(event: RunFinished) -> str:
    return json.dumps(
        {
            "event": "finished",
            "stats": event.stats.as_dict(),
            "wall_time_s": event.wall_time_s,
        }
    )


def sweep_started_line() -> str:
    return json.dumps(
        {"event": "started", "artifact": "sweep", "index": 0, "total": 1}
    )


def sweep_finished_line(payload: Dict[str, Any],
                        stats: EngineStats) -> str:
    return json.dumps(
        {"artifact": "sweep", "payload": payload,
         "stats": stats.as_dict()}
    )


def sweep_run_finished_line(stats: EngineStats,
                            wall_time_s: float) -> str:
    return json.dumps(
        {
            "event": "finished",
            "stats": stats.as_dict(),
            "wall_time_s": wall_time_s,
        }
    )


def error_line(error: BaseException) -> str:
    """A mid-stream failure: headers are long gone, so the error
    travels as a terminal event line instead of a status code."""
    return json.dumps(
        {
            "event": "error",
            "type": type(error).__name__,
            "error": str(error),
        }
    )


# ----------------------------------------------------------------------
# Specs: validation + canonical digests (the coalescing keys)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactsSpec:
    """A validated ``POST /v1/artifacts`` body."""

    names: Tuple[str, ...]
    digest: str


def parse_artifacts_spec(
    data: Any, registry: Optional[ArtifactRegistry] = None
) -> ArtifactsSpec:
    """Validate an artifacts spec and key it for coalescing.

    The digest is over the *resolved* name list, so
    ``{"artifacts": "all"}`` and the explicit full list in paper order
    coalesce into one run.
    """
    try:
        names = names_from_spec(data, registry=registry)
    except EvaluationError as error:
        raise ServeError(str(error))
    return ArtifactsSpec(
        names=names,
        digest=spec_digest("artifacts", {"artifacts": list(names)}),
    )


def parse_sweep_spec(data: Any) -> SweepSpec:
    """Validate a sweep spec and key it for coalescing: the service's
    adapter over :func:`repro.eval.sweeps.sweep_spec`, whose errors
    answer 400."""
    try:
        return sweep_spec(data)
    except SweepSpecError as error:
        raise ServeError(str(error))
