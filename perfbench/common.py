"""Process plumbing, sample statistics and the run outcome.

The benchmark drives the program only from outside: every command is a
fresh ``python -m repro`` process run from the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for cache dirs, records and traces (git-ignored).
WORK = ROOT / ".perfbench_work"
TRACE_ENTRY = HERE / "trace_entry.py"

#: The benchmark's definition: workloads, metric names and units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric names in the order BENCHMARK.json lists them.
END_TO_END: Tuple[str, ...] = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER: Tuple[str, ...] = tuple(m["name"] for m in SPEC["per_layer"])
UNITS: Dict[str, str] = {
    m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
}

#: Longest a single command may take before it counts as failed.
COMMAND_TIMEOUT_S = 120.0

#: One :func:`meter.tick` on the reference host, a 2-core VM with
#: Python 3.11, in its fast phase. Every reported time is in reference
#: seconds: see :class:`HostClock`.
REFERENCE_TICK_S = 0.00029
#: Fewest meter ticks a scale is taken from; shorter work borrows the
#: ticks nearest to it.
MIN_TICKS = 8
#: Ticks slower than this multiple of their window's median are left
#: out of its scale (the phases themselves are at most ~1.45x apart).
OUTLIER_TICK = 1.5

#: ``tamper(kind, output) -> output`` lets the self-test corrupt an
#: output just before it is checked; ``None`` in every real run.
Tamper = Optional[Callable[[str, str], str]]


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program to drive)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program to benchmark: {SRC / 'repro'} is missing"
        )


def repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def compile_sources() -> None:
    """Write bytecode once so no timed command pays for compiling."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        env=repro_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S,
    )


def run_dir(name: str) -> Path:
    """A fresh, empty directory for this process's scratch files."""
    path = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Command:
    """One finished fresh-process command."""

    args: List[str]
    #: ``time.perf_counter()`` at spawn.
    started: float
    wall_s: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def run_command(argv: Sequence[str]) -> Command:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            list(argv), capture_output=True, text=True, env=repro_env(),
            cwd=ROOT, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        return Command(list(argv), start, time.perf_counter() - start, -1,
                       "", f"timed out: {error}")
    return Command(list(argv), start, time.perf_counter() - start,
                   proc.returncode, proc.stdout, proc.stderr)


def repro(args: Sequence[str], trace: Optional[Path] = None) -> Command:
    """``python -m repro ARGS``, or the traced launcher writing ``trace``."""
    if trace is None:
        return run_command([sys.executable, "-m", "repro", *args])
    return run_command(
        [sys.executable, str(TRACE_ENTRY), str(trace), "--", *args]
    )


#: Every meter not yet stopped, for cleanup on any exit.
CLOCKS: Set["HostClock"] = set()


class HostClock:
    """Converts host seconds into reference seconds.

    The shared host's speed changes by up to ~45% within seconds, so a
    run's median depends on the phases it happened to meet. A meter
    child process (:mod:`meter`) times a fixed tick of pure Python every
    20 ms while the benchmark runs, and a tick slows by about the same
    share as the commands and requests measured here. So the host time
    of each piece of timed work is scaled by :data:`REFERENCE_TICK_S`
    over the mean tick during that work. The meter never loads the
    program under test, so no change to the program moves its ticks.
    """

    def __init__(self, workdir: Path) -> None:
        self.path = workdir / "meter.txt"
        self._handle = open(self.path, "w", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "meter.py")],
            stdin=subprocess.PIPE, stdout=self._handle,
            stderr=subprocess.DEVNULL,
        )
        CLOCKS.add(self)
        self._reader = open(self.path, encoding="utf-8")
        self._partial = ""
        #: (start, seconds) of every tick read so far, in time order.
        self.ticks: List[Tuple[float, float]] = []
        deadline = time.perf_counter() + 30.0
        while len(self._read()) < MIN_TICKS:
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise BenchError("the host speed meter did not start")
            time.sleep(0.02)

    def _read(self) -> List[Tuple[float, float]]:
        text = self._partial + self._reader.read()
        lines = text.split("\n")
        self._partial = lines.pop()
        for line in lines:
            start, took = line.split()
            self.ticks.append((float(start), float(took)))
        return self.ticks

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second for work from ``start`` to
        ``end`` (``time.perf_counter()`` seconds): the ticks that began
        inside it, or the :data:`MIN_TICKS` nearest when fewer did."""
        ticks = self._read()
        inside = [took for began, took in ticks if start <= began <= end]
        if len(inside) < MIN_TICKS:
            middle = (start + end) / 2
            nearest = sorted(ticks, key=lambda tick: abs(tick[0] - middle))
            inside = [took for _, took in nearest[:MIN_TICKS]]
        # A tick the meter's core was taken from mid-way reads up to ten
        # times too slow and says nothing about the host's speed.
        cut = OUTLIER_TICK * median(inside)
        return REFERENCE_TICK_S / statistics.fmean(
            took for took in inside if took <= cut
        )

    def close(self) -> None:
        """Stop the meter and wait for it."""
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        finally:
            self._handle.close()
            self._reader.close()
            CLOCKS.discard(self)


def stop_clocks() -> None:
    for clock in list(CLOCKS):
        clock.close()


def another_cycle(start: float, cycles: int, seconds: float) -> bool:
    """Whether a run started at ``start`` with ``cycles`` done should
    begin another: always the first, then only while one more cycle of
    the average length still ends within ``seconds``."""
    if cycles == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (cycles + 1) / cycles <= seconds


def peak_child_rss_mb() -> float:
    """Largest resident set of any child process reaped so far."""
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# The outcome of one run
# ----------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """Operations attempted and failed, plus the metrics of one run."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Meter ticks of the run, (start, seconds); their median is
    #: printed so reference seconds can be converted back into this
    #: host's seconds.
    ticks: List[Tuple[float, float]] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one operation; record ``problem`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def set(self, name: str, value: float, samples: int,
            note: str = "") -> None:
        """Record metric ``name`` with its unit from BENCHMARK.json."""
        self.metrics[name] = Metric(float(value), UNITS[name], samples, note)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
