"""The fresh-process workload, ``grid_sweep``.

Each timed cycle runs its commands one after another as fresh
``python -m repro`` processes against a new cache directory: first
cold (empty cache), then warm (the cache the cold commands filled).
Each command's time is reported in reference seconds
(:class:`common.HostClock`).
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import inputs
import layers
from common import (
    Command, HostClock, Outcome, Tamper, another_cycle, compile_sources,
    median, peak_child_rss_mb, percentile, repro, run_command, run_dir,
)

#: Fresh ``repro list`` processes run before the timed cycles.
SETUP_SAMPLES = 5

_TRAILER = re.compile(
    r"(\d+) workloads evaluated, (\d+) memory hits, (\d+) disk hits"
)


@dataclass
class Cycle:
    """The samples of one cold-then-warm cycle: command times in
    reference seconds, and ``ops_s`` in host seconds for the trace."""

    list_s: List[float] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    evaluations: int = 0
    ops_s: List[float] = field(default_factory=list)
    ref_ops_s: List[float] = field(default_factory=list)
    traces: List[Path] = field(default_factory=list)

    def add(self, command: Command, kind: str, scale: float) -> float:
        """Record a ``list``, ``cold`` or ``warm`` command; its time in
        reference seconds."""
        ref_s = command.wall_s * scale
        self.ops_s.append(command.wall_s)
        self.ref_ops_s.append(ref_s)
        getattr(self, f"{kind}_s").append(ref_s)
        return ref_s

    @property
    def wall_s(self) -> float:
        return sum(self.ops_s)


class GridSweep:
    """``repro list``, then ``repro sweep`` over all six designs and a
    seeded ~50x50 degree grid at two GEMM sizes, cold then warm.

    Both sizes share the cycle's cache directory, so the second cold
    sweep loads and rewrites the first one's entries and takes longer.
    Per-cycle means of the cold and of the warm commands are therefore
    the samples; a median pooled over single commands would sit on the
    boundary between the first and the second size.
    """

    name = "grid_sweep"

    def __init__(self, out: Outcome, seed: int, tamper: Tamper) -> None:
        self.out = out
        self.tamper = tamper
        self.list_reference: Optional[str] = None
        self.degrees = ",".join(str(d) for d in inputs.grid_degrees(seed))
        self.sizes = inputs.grid_sizes(seed)
        reference = inputs.REFERENCE.get("grid_sweep_sha256", "")
        self.reference = reference if seed == inputs.DEFAULT_SEED else ""
        #: Made by :meth:`start`, which every run calls first.
        self.clock: HostClock

    def start(self, workdir: Path) -> None:
        """Compile the sources and start the host speed meter."""
        compile_sources()
        self.clock = HostClock(workdir)
        self.out.ticks = self.clock.ticks

    def timed(self, command: Command, kind: str, cycle: Cycle) -> float:
        """Add ``command``, just finished, to ``cycle``; its reference
        seconds, from the meter ticks while it ran."""
        scale = self.clock.scale(command.started,
                                 command.started + command.wall_s)
        return cycle.add(command, kind, scale)

    def output(self, kind: str, command: Command) -> str:
        if self.tamper is None:
            return command.stdout
        return self.tamper(kind, command.stdout)

    def ran(self, command: Command) -> bool:
        return self.out.check(
            command.ok,
            f"{' '.join(command.args[-6:])}: exit {command.returncode}: "
            f"{command.stderr.strip()[-300:]}",
        )

    def check_list(self, command: Command) -> None:
        if command.ok:
            text = self.output("list", command)
            if self.list_reference is None:
                self.list_reference = text
            self.out.check(
                "Registered designs" in text and text == self.list_reference,
                "repro list output changed",
            )
        else:
            self.ran(command)

    def setup(self) -> Cycle:
        """:data:`SETUP_SAMPLES` fresh ``repro list`` commands."""
        samples = Cycle()
        for _ in range(SETUP_SAMPLES):
            command = repro(["list"])
            self.timed(command, "list", samples)
            self.check_list(command)
        return samples

    # ------------------------------------------------------------------

    def run(self, seconds: float, workdir: Path) -> None:
        """End-to-end metrics; each cycle makes its own directory."""
        self.start(workdir)
        setup = self.setup()
        cycles: List[Cycle] = []
        start = time.perf_counter()
        while another_cycle(start, len(cycles), seconds):
            cycles.append(self.cycle(len(cycles), None))
        # Every cycle starts with a fresh `repro list` too.
        listed = [s for c in [setup, *cycles] for s in c.list_s]
        ops = [s for c in cycles for s in c.ref_ops_s]
        out = self.out
        out.set("setup_s", median(listed), len(listed),
                "fresh `repro list`")
        out.set("cold_s", median([statistics.fmean(c.cold_s)
                                  for c in cycles]),
                len(cycles), "fresh command, empty cache; cycle means")
        out.set("warm_s", median([statistics.fmean(c.warm_s)
                                  for c in cycles]),
                len(cycles), "fresh command, filled cache; cycle means")
        out.set("evals_per_s", median([c.evaluations / sum(c.cold_s)
                                       for c in cycles]),
                len(cycles), "record evaluations / cold time")
        out.set("req_p50_ms", median(ops) * 1e3, len(ops),
                "every timed command")
        out.set("req_p90_ms", percentile(ops, 90) * 1e3, len(ops),
                "every timed command")
        out.set("serve_rps", len(ops) / sum(ops), len(ops),
                "timed commands per second")
        out.set("peak_rss_mb", peak_child_rss_mb(), len(ops) + 5,
                "largest child process")

    def run_traced(self, seconds: float,
                   workdir: Path) -> Tuple[Dict[str, float], int]:
        """Per-layer metrics: median over cycles of (import profile,
        untraced cycle, traced cycle) on identical inputs."""
        self.start(workdir)
        rows: List[Dict[str, float]] = []
        start = time.perf_counter()
        while another_cycle(start, len(rows), seconds):
            index = len(rows)
            profile = run_command(
                [sys.executable, "-X", "importtime", "-m", "repro", "list"]
            )
            self.ran(profile)
            untraced = self.cycle(2 * index, None)
            trace_dir = workdir / f"trace{index}"
            trace_dir.mkdir()
            traced = self.cycle(2 * index + 1, trace_dir)
            summary = layers.TraceSummary()
            for path in traced.traces:
                if path.is_file():
                    summary.add_file(path)
            row = summary.metrics()
            row.update(layers.parse_importtime(profile.stderr))
            row["other_ms"] = traced.wall_s * 1e3 - summary.covered_ms
            row["trace.overhead_ms"] = (traced.wall_s - untraced.wall_s) * 1e3
            rows.append(row)
        return layers.median_metrics(rows), len(rows)

    def command(self, args: List[str], trace_dir: Optional[Path],
                tag: str) -> Command:
        trace = trace_dir / f"{tag}.json" if trace_dir is not None else None
        return repro(args, trace=trace)

    def sweep_args(self, size: int, cache: Path) -> List[str]:
        return [
            "sweep", "--designs", ",".join(inputs.DESIGNS),
            "--a-degrees", self.degrees, "--b-degrees", self.degrees,
            "--size", str(size), "--cache-dir", str(cache),
        ]

    def sweep(self, kind: str, command: Command) -> Tuple[str, int]:
        """The rendered table and the trailer's evaluation count."""
        if not self.ran(command):
            return "", -1
        text = self.output(kind, command)
        table, _, trailer = text.rpartition("\n\n")
        match = _TRAILER.search(trailer)
        evaluations = int(match.group(1)) if match else -1
        return table, evaluations

    def cycle(self, index: int, trace: Optional[Path]) -> Cycle:
        cycle = Cycle()
        directory = run_dir(f"cycle{index}")
        cache = directory / "cache"
        listed = self.command(["list"], trace, f"list{index}")
        self.timed(listed, "list", cycle)
        self.check_list(listed)
        cold_tables = []
        for size in self.sizes:
            record = directory / f"record{size}.json"
            cold = self.command(
                self.sweep_args(size, cache) + ["--record", str(record)],
                trace, f"cold{size}-{index}",
            )
            self.timed(cold, "cold", cycle)
            table, evaluations = self.sweep("cold", cold)
            cold_tables.append(table)
            if not table:
                continue
            recorded = record_evaluations(self.out, record)
            if self.out.check(
                evaluations > 0 and evaluations == recorded,
                f"cold sweep @ {size}: trailer says {evaluations} "
                f"evaluations, record says {recorded}",
            ):
                cycle.evaluations += evaluations
        for size, cold_table in zip(self.sizes, cold_tables):
            warm = self.command(self.sweep_args(size, cache), trace,
                                f"warm{size}-{index}")
            self.timed(warm, "warm", cycle)
            table, evaluations = self.sweep("warm", warm)
            if table:
                self.out.check(
                    evaluations == 0 and table == cold_table,
                    f"warm sweep @ {size}: {evaluations} evaluations, "
                    f"table {'equal to' if table == cold_table else 'differs from'} cold",
                )
        digest = hashlib.sha256(
            "\n\0\n".join(cold_tables).encode("utf-8")
        ).hexdigest()
        if self.reference:
            self.out.check(
                digest == self.reference,
                f"grid tables sha256 {digest} != reference {self.reference}",
            )
        if trace is not None:
            cycle.traces = sorted(trace.glob("*.json"))
        return cycle


def record_evaluations(out: Outcome, record: Path) -> int:
    """Evaluations in a ``--record`` file's cache counters (-1 if bad)."""
    try:
        evaluations = int(json.loads(record.read_text())["cache"]["evaluations"])
    except (OSError, ValueError, KeyError, TypeError) as error:
        out.check(False, f"unreadable run record {record.name}: {error}")
        return -1
    return evaluations


WORKLOADS: Dict[str, Callable[[Outcome, int, Tamper], GridSweep]] = {
    GridSweep.name: GridSweep,
}
