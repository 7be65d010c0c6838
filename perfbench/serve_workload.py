"""The ``serve_mix`` workload: one ``repro serve`` child, two clients.

The clients run a closed loop in lockstep rounds: each round both send
one request at once over a fresh connection, and the next round starts
when both replies are complete. Requests come from the seeded
:class:`inputs.ServeMix`. Latencies are reported in reference seconds
(:class:`common.HostClock`), scaled once per :data:`SEGMENT_ROUNDS`
rounds.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import inputs
import layers
from common import (
    ROOT, TRACE_ENTRY, BenchError, HostClock, Outcome, Tamper,
    another_cycle, compile_sources, median, percentile, repro, repro_env,
    run_command,
)

#: Timed lockstep rounds per server (two requests each).
ROUNDS = 200
#: Rounds that share one scale: two blocks of the mix, about 0.2 s.
SEGMENT_ROUNDS = 20
#: Seeded request mixes the cycles of a run take in turn. Several mixes
#: average out the cost of any one draw of sweep specs, and a fixed set
#: keeps what a run averages over independent of how many cycles it fits.
MIXES = 8
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
_ANNOUNCE = re.compile(r"serving on http://[^:\s]+:(\d+)")

#: Every server started and not yet reaped, for cleanup on any exit.
LIVE: Set["Server"] = set()


@dataclass
class Reply:
    request: inputs.Request
    status: int
    body: bytes
    latency_s: float
    #: Evaluations the reply's final stats report.
    evaluations: int = 0
    #: Reference seconds per host second, from the meter ticks.
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        return self.latency_s * self.scale


def http(port: int, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
    """One request on a fresh connection; the server closes it."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    chunks = []
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT_S) as conn:
        conn.sendall(head + data)
        while True:
            chunk = conn.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    parts = status_line.split(b" ", 2)
    return (int(parts[1]) if len(parts) > 1 else 0), payload


def send(port: int, request: inputs.Request) -> Reply:
    start = time.perf_counter()
    try:
        status, body = http(port, "POST", request.path, request.body)
    except OSError as error:
        status, body = 0, str(error).encode("utf-8")
    return Reply(request, status, body, time.perf_counter() - start)


class Server:
    """One ``repro serve --port 0`` child with an empty cache dir."""

    def __init__(self, workdir: Path, name: str,
                 trace: Optional[Path] = None) -> None:
        args = ["serve", "--port", "0",
                "--cache-dir", str(workdir / f"{name}-cache")]
        argv = (
            [sys.executable, "-m", "repro", *args] if trace is None
            else [sys.executable, str(TRACE_ENTRY), str(trace), "--", *args]
        )
        self.log = workdir / f"{name}.log"
        self._log_handle = open(self.log, "w", encoding="utf-8")
        self.port = 0
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=self._log_handle,
            env=repro_env(), cwd=ROOT,
        )
        LIVE.add(self)

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/v1/health`` answers 200."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            if not self.port:
                match = _ANNOUNCE.search(self.log.read_text())
                if match:
                    self.port = int(match.group(1))
            if self.port:
                try:
                    status, _ = http(self.port, "GET", "/v1/health")
                except OSError:
                    status = 0
                if status == 200:
                    return time.perf_counter() - self.started
            time.sleep(0.005)
        self.stop()
        raise BenchError(
            f"repro serve never became healthy: "
            f"{self.log.read_text()[-500:]}"
        )

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark so far (0 if gone)."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> int:
        """SIGTERM, wait for the drain; the exit code (0 when clean)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=READY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -9
        finally:
            self._log_handle.close()
            LIVE.discard(self)


def stop_all() -> None:
    for server in list(LIVE):
        server.stop()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _head(line: str) -> str:
    """The line without its trailing ``"stats"`` member, byte for byte
    (json.dumps keeps key order, and stats is the last key)."""
    return line.rpartition(', "stats": ')[0]


class Checker:
    """Checks each reply against the CLI stream and earlier replies."""

    def __init__(self, out: Outcome, cli_lines: List[str],
                 tamper: Tamper) -> None:
        self.out = out
        self.tamper = tamper
        self.cli_lines = cli_lines
        self.cli_by_name = {json.loads(l)["artifact"]: l for l in cli_lines}
        self.sweeps: Dict[str, str] = {}

    def check(self, reply: Reply, cold_all: bool = False) -> int:
        """Count the reply as one operation; the evaluations it reports."""
        request = reply.request
        body = reply.body.decode("utf-8", "replace")
        if self.tamper is not None:
            body = self.tamper(request.kind, body)
        if request.expect_status != 200:
            ok = reply.status == request.expect_status and '"error"' in body
            self.out.check(ok, f"{request.key}: status {reply.status}, "
                           f"wanted {request.expect_status}")
            return 0
        problem: Optional[str] = f"status {reply.status}: {body[:200]}"
        evaluations = 0
        if reply.status == 200:
            try:
                problem, evaluations = self._stream_problem(
                    request, body, cold_all
                )
            except (ValueError, KeyError, TypeError, AttributeError) as error:
                problem = f"malformed stream: {error!r}"
        self.out.check(problem is None, f"{request.key}: {problem}")
        return evaluations

    def _stream_problem(self, request: inputs.Request, body: str,
                        cold_all: bool) -> Tuple[Optional[str], int]:
        lines = body.splitlines()
        events = [json.loads(line) for line in lines]
        if not events or events[-1].get("event") != "finished":
            return "stream did not end with a finished event", 0
        if any(e.get("event") == "error" for e in events):
            return "stream carried an error event", 0
        results = [
            (line, e) for line, e in zip(lines, events) if "event" not in e
        ]
        evaluations = int(events[-1]["stats"]["evaluations"])
        if request.path == "/v1/artifacts":
            return self._artifacts_problem(request, results, cold_all), \
                evaluations
        if len(results) != 1 or results[0][1].get("artifact") != "sweep":
            return "sweep stream without exactly one sweep result", 0
        head = _head(results[0][0])
        first = self.sweeps.setdefault(request.key, head)
        if head != first:
            return "sweep payload differs from an earlier reply", 0
        return None, evaluations

    def _artifacts_problem(self, request: inputs.Request,
                           results: List[Tuple[str, Dict[str, Any]]],
                           cold_all: bool) -> Optional[str]:
        names = request.body["artifacts"]
        if names == "all":
            names = list(self.cli_by_name)
        if [e["artifact"] for _, e in results] != names:
            return f"artifacts {[e['artifact'] for _, e in results]}"
        if cold_all:
            if [line for line, _ in results] != self.cli_lines:
                return "cold stream differs from `repro all --stream " \
                       "--format json`"
            return None
        for line, event in results:
            if _head(line) != _head(self.cli_by_name[event["artifact"]]):
                return f"{event['artifact']} payload differs from the CLI"
            if event["stats"]["evaluations"] != 0:
                return f"warm {event['artifact']} evaluated something"
        return None


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """Replies of one cycle's timed rounds, with their time window."""

    replies: List[Reply] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0
    #: Time spent in the rounds: host and reference seconds.
    wall_s: float = 0.0
    ref_s: float = 0.0
    #: The server's peak resident set, read just before it stops.
    rss_mb: float = 0.0


class ServeMix:
    """Cycles of one fresh server each: spawn, warm-up, then the same
    :data:`ROUNDS` timed rounds. A fresh server per cycle keeps every
    cycle's cache growth, and so its latencies, alike."""

    name = "serve_mix"

    def __init__(self, out: Outcome, seed: int, tamper: Tamper) -> None:
        self.out = out
        self.seed = seed
        self.tamper = tamper

    def checker(self, workdir: Path) -> Checker:
        """Checks against ``repro all --stream --format json``, cold."""
        command = repro(["all", "--stream", "--format", "json",
                         "--cache-dir", str(workdir / "cli-cache")])
        if not self.out.check(command.ok,
                              f"CLI stream: {command.stderr[-300:]}"):
            raise BenchError("the CLI reference stream failed")
        return Checker(self.out, command.stdout.splitlines(), self.tamper)

    def drive(self, port: int, mix: inputs.ServeMix, checker: Checker,
              clock: HostClock) -> Phase:
        """The warm-up pass, then :data:`ROUNDS` timed lockstep rounds,
        scaled per :data:`SEGMENT_ROUNDS`."""
        for index, request in enumerate(mix.warmup()):
            checker.check(send(port, request), cold_all=index == 0)
        phase = Phase()
        schedule = mix.rounds()
        with ThreadPoolExecutor(max_workers=2) as pool:
            phase.start_ns = time.perf_counter_ns()
            for _ in range(ROUNDS // SEGMENT_ROUNDS):
                segment: List[Reply] = []
                began = time.perf_counter()
                for _ in range(SEGMENT_ROUNDS):
                    futures = [
                        pool.submit(send, port, request)
                        for request in next(schedule)
                    ]
                    for future in futures:
                        reply = future.result()
                        reply.evaluations = checker.check(reply)
                        segment.append(reply)
                took = time.perf_counter() - began
                scale = clock.scale(began, began + took)
                for reply in segment:
                    reply.scale = scale
                phase.replies += segment
                phase.wall_s += took
                phase.ref_s += took * scale
            phase.end_ns = time.perf_counter_ns()
        return phase

    def cycle(self, workdir: Path, index: int, checker: Checker,
              clock: HostClock,
              trace: Optional[Path] = None) -> Tuple[float, Phase]:
        """Reference seconds from spawn to healthy, and the timed phase,
        of cycle ``index``, which sends mix ``index %`` :data:`MIXES`."""
        server = Server(workdir, f"{index}-{'traced' if trace else 'plain'}",
                        trace)
        try:
            ready_s = server.wait_ready()
            ready_s *= clock.scale(server.started, server.started + ready_s)
            mix = inputs.ServeMix(f"{self.seed}/{index % MIXES}")
            phase = self.drive(server.port, mix, checker, clock)
            phase.rss_mb = server.peak_rss_mb()
        finally:
            code = server.stop()
            self.out.check(code == 0,
                           f"repro serve exited {code} on SIGTERM")
        return ready_s, phase

    def start(self, workdir: Path) -> Tuple[Checker, HostClock]:
        compile_sources()
        checker = self.checker(workdir)
        clock = HostClock(workdir)
        self.out.ticks = clock.ticks
        return checker, clock

    def run(self, seconds: float, workdir: Path) -> None:
        checker, clock = self.start(workdir)
        setups: List[float] = []
        phases: List[Phase] = []
        start = time.perf_counter()
        while another_cycle(start, len(phases), seconds):
            ready_s, phase = self.cycle(workdir, len(phases), checker, clock)
            setups.append(ready_s)
            phases.append(phase)
        self.report(setups, phases)

    def report(self, setups: List[float], phases: List[Phase]) -> None:
        out = self.out
        replies = [reply for phase in phases for reply in phase.replies]
        latencies = [r.ref_s for r in replies]
        cold = [r for r in replies if r.request.kind == "sweep_cold"]
        warm = [r.ref_s for r in replies if r.request.kind == "artifact"]
        # New specs come in several sizes (see inputs.ServeMix), in the
        # same numbers in every cycle; a per-cycle mean keeps cold_s off
        # the boundaries between those sizes, where a median would sit.
        cold_means = [
            statistics.fmean(r.ref_s for r in phase.replies
                             if r.request.kind == "sweep_cold")
            for phase in phases
        ]
        out.set("setup_s", median(setups), len(setups),
                "spawn until /v1/health is 200")
        out.set("cold_s", median(cold_means), len(cold),
                "new sweep spec; median of per-cycle means")
        out.set("warm_s", median(warm), len(warm),
                "warm artifact request")
        out.set("evals_per_s",
                sum(r.evaluations for r in cold)
                / sum(r.ref_s for r in cold), len(cold),
                "evaluations / latency of new sweep specs")
        out.set("req_p50_ms", median(latencies) * 1e3, len(replies),
                "every timed request")
        out.set("req_p90_ms", percentile(latencies, 90) * 1e3,
                len(replies), "every timed request")
        out.set("serve_rps",
                len(replies) / sum(phase.ref_s for phase in phases),
                len(replies), "completed requests per second")
        out.set("peak_rss_mb", median([phase.rss_mb for phase in phases]),
                len(phases), "server's peak RSS; median over cycles")

    def run_traced(self, seconds: float,
                   workdir: Path) -> Tuple[Dict[str, float], int]:
        """Per cycle: the import profile, an untraced and a traced
        server, each with the same warm-up and timed rounds."""
        checker, clock = self.start(workdir)
        rows: List[Dict[str, float]] = []
        start = time.perf_counter()
        while another_cycle(start, len(rows), seconds):
            index = len(rows)
            profile = run_command(
                [sys.executable, "-X", "importtime", "-m", "repro", "list"]
            )
            self.out.check(profile.ok, "import-time profile failed")
            _, untraced = self.cycle(workdir, index, checker, clock)
            trace = workdir / f"trace{index}.json"
            _, traced = self.cycle(workdir, index, checker, clock, trace)
            summary = layers.TraceSummary()
            if trace.is_file():
                summary.add_file(trace, (traced.start_ns, traced.end_ns))
            row = summary.metrics()
            row.update(layers.parse_importtime(profile.stderr))
            latency_ms = sum(r.latency_s for r in traced.replies) * 1e3
            row["serve.wait_ms"] = (
                latency_ms - summary.handler_ns / 1e6
            ) / len(traced.replies)
            row["other_ms"] = traced.wall_s * 1e3 - summary.covered_ms
            row["trace.overhead_ms"] = (traced.wall_s - untraced.wall_s) * 1e3
            rows.append(row)
        return layers.median_metrics(rows), len(rows)
