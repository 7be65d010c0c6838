"""Per-layer metrics from a traced run and an import-time profile.

Self times come from the spans :mod:`tracing` records inside a traced
process; counts ride on the same spans. ``other_ms`` is the traced wall
time during which no span is open on any thread (interpreter start,
imports, glue, exit, idle), and ``trace.overhead_ms`` is the traced
wall time minus the untraced wall time of the same work.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from common import PER_LAYER, median

#: Span layer -> the metric holding its self time.
SELF_TIME = {
    "cli.parse": "cli.parse_ms",
    "artifacts.compute": "artifacts.compute_ms",
    "artifacts.render": "artifacts.render_ms",
    "harness.realize": "harness.realize_ms",
    "workload.key": "workload.key_ms",
    "engine.setup": "engine.setup_ms",
    "engine.evaluate": "engine.evaluate_ms",
    "accel.model": "accel.model_ms",
    "batch.stack": "batch.stack_ms",
    "cache.load": "cache.load_ms",
    "cache.get_many": "cache.get_many_ms",
    "cache.put_many": "cache.put_many_ms",
    "cache.flush": "cache.flush_ms",
    "codec.encode": "codec.encode_ms",
    "codec.decode": "codec.decode_ms",
    "reporting.render": "reporting.render_ms",
    "runs.record": "runs.record_ms",
    "protocol.parse_spec": "protocol.parse_spec_ms",
    "handlers.run": "handlers.run_ms",
}

#: Span layer -> the metric counting its outermost calls.
CALLS = {
    "harness.realize": "harness.realize_calls",
    "workload.key": "workload.key_calls",
    "cache.flush": "cache.flushes",
    "codec.encode": "codec.blobs",
    "codec.decode": "codec.blobs",
}

#: (span layer, count key) -> metric summing that count.
COUNTS = {
    ("engine.evaluate", "pairs"): "engine.pairs",
    ("engine.evaluate", "hits"): "engine.hits",
    ("engine.evaluate", "disk_hits"): "engine.disk_hits",
    ("engine.evaluate", "misses"): "engine.misses",
    ("accel.model", "rows"): "accel.batch_rows",
    ("accel.model", "scalar"): "accel.scalar_calls",
    ("cache.get_many", "keys"): "cache.get_many_keys",
    ("broker.join", "started"): "broker.started",
    ("broker.join", "joined"): "broker.joined",
    ("harness.realize", "hit"): "harness.realize_hits",
}


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


class TraceSummary:
    """Self time, outermost calls and counts per layer, over traces."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        self.handler_ns = 0
        #: (start, end) of every span without a parent on its thread.
        self.roots: List[Tuple[int, int]] = []

    def add_file(self, path: Path,
                 window: Optional[Tuple[int, int]] = None) -> None:
        """Fold in one trace; ``window`` keeps spans starting inside it
        (perf_counter_ns is CLOCK_MONOTONIC, shared by all processes)."""
        data = json.loads(path.read_text())
        layers: List[str] = data["layers"]
        for index, start, end, self_ns, nested, root, counts in data["spans"]:
            if window is not None and not window[0] <= start <= window[1]:
                continue
            layer = layers[index]
            self.self_ns[layer] += self_ns
            if root:
                self.roots.append(
                    (start, end if window is None else min(end, window[1]))
                )
            if not nested:
                self.calls[layer] += 1
                if layer == "handlers.run":
                    self.handler_ns += end - start
            for key, value in (counts or {}).items():
                self.counts[(layer, key)] += value

    @property
    def covered_ms(self) -> float:
        """Time during which a span is open on at least one thread.

        Threads overlap in a served process, so summing self times
        there could exceed the wall time; the union of root spans
        cannot. On one thread the two are equal.
        """
        covered = reach = 0
        for start, end in sorted(self.roots):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered / 1e6

    def metrics(self) -> Dict[str, float]:
        out = zero_metrics()
        for layer, metric in SELF_TIME.items():
            out[metric] += self.self_ns.get(layer, 0) / 1e6
        for layer, metric in CALLS.items():
            out[metric] += self.calls.get(layer, 0)
        counted: Dict[str, float] = defaultdict(float)
        for (layer, key), metric in COUNTS.items():
            counted[metric] += self.counts.get((layer, key), 0)
        for metric, value in counted.items():
            if metric in out:
                out[metric] = value
        realize_calls = self.calls.get("harness.realize", 0)
        if realize_calls:
            out["harness.realize_hit_ratio"] = (
                counted["harness.realize_hits"] / realize_calls
            )
        joins = out["broker.started"] + out["broker.joined"]
        if joins:
            out["broker.coalesce_ratio"] = out["broker.joined"] / joins
        return out


# ----------------------------------------------------------------------
# python -X importtime
# ----------------------------------------------------------------------

_IMPORT_LINE = re.compile(
    r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$"
)


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``startup.*`` metrics from ``-X importtime`` output.

    ``import_ms`` sums every module's self time; the package figures are
    the cumulative time of the package's first import (0 when the
    command never imports it); ``repro_ms`` sums the self time of the
    program's own modules.
    """
    total_us = repro_us = 0
    first: Dict[str, int] = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        self_us, cumulative_us = int(match.group(1)), int(match.group(2))
        name = match.group(4)
        total_us += self_us
        if name == "repro" or name.startswith("repro."):
            repro_us += self_us
        first.setdefault(name, cumulative_us)
    return {
        "startup.import_ms": total_us / 1000.0,
        "startup.numpy_ms": first.get("numpy", 0) / 1000.0,
        "startup.asyncio_ms": first.get("asyncio", 0) / 1000.0,
        "startup.sqlite3_ms": first.get("sqlite3", 0) / 1000.0,
        "startup.repro_ms": repro_us / 1000.0,
    }


def median_metrics(cycles: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Per metric, the median over traced cycles."""
    rows = list(cycles)
    return {
        name: median([row[name] for row in rows]) for name in PER_LAYER
    }
