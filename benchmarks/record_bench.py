"""Record the in-process sweep baselines into ``BENCH_sweep.json``.

Measures, in-process, the wall times of the evaluation stack:

* the Fig. 15-style deit_small network sweep (`bench_network_sweep.py`
  shape) — cold (empty persistent cache) and warm (populated cache);
* the Fig. 13 synthetic grid (`bench_fig13.py` shape) — cold and warm;
* ``repro all --jobs 1`` end to end — cold and warm;
* the job queue (`repro queue` / `repro worker`) on a small grid —
  fill time, bookkeeping-only claim+complete drain, and the 1-vs-2
  worker drain wall times (recorded for the trajectory, not gated:
  two in-process workers contend on the GIL, so the honest
  multi-machine story is the CI queue smoke job's separate processes).

Every measurement reports the *min* across rounds (scheduling noise
only ever adds time; the ``*_ms`` keys are mins and are the tracked
baselines) and the *mean* (``*_mean_ms``, a dispersion hint: a mean
far above its min means the rounds were noisy and the record is worth
re-taking).

Writes a JSON record (default ``BENCH_sweep.json`` at the repo root;
CI uploads it as an artifact and gates with ``--compare`` against the
committed baseline). Run from the repo root::

    PYTHONPATH=src python benchmarks/record_bench.py

``--compare BASELINE`` fails (exit 1) if any cold or warm measurement
regressed more than ``--tolerance`` (default 0.25 = 25%) over the
baseline record's value, or if the baseline lacks a gated measurement
the new record has (a renamed field must not switch the gate off). ``--profile OUT`` additionally
writes a cProfile dump of one cold ``repro all --jobs 1`` run — open
it with ``python -m pstats OUT``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import platform
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from repro import cli
from repro.dnn.models import deit_small
from repro.energy import Estimator
from repro.eval import experiments as E
from repro.eval.cache import PersistentCache
from repro.eval.engine import SweepEngine

#: The measurement keys ``--compare`` gates on in every section: the
#: cold (empty cache) and warm (cache-served) times.
GATED_MEASUREMENTS = ("cold_ms", "warm_ms")


def _measure_ms(fn, rounds: int):
    """(min, mean) wall time over ``rounds`` calls, in milliseconds.

    The min is the tracked number (noise only ever adds time); the
    mean rides along so a record taken on a noisy box is recognizable
    as such.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1000.0, sum(times) / len(times) * 1000.0


def _engine_with_cache(cache_dir: Path) -> SweepEngine:
    estimator = Estimator()
    engine = SweepEngine(estimator)
    engine.attach_cache(
        PersistentCache.for_estimator(cache_dir, estimator)
    )
    return engine


def _network_sweep(cache_dir: Path) -> None:
    engine = _engine_with_cache(cache_dir)
    E.sweep_model(
        deit_small(), designs=tuple(E.DESIGN_LADDERS), ctx=engine
    )
    engine.close()


def _fig13(cache_dir: Path) -> None:
    engine = _engine_with_cache(cache_dir)
    E.fig13(engine)
    engine.close()


def _cold(fn, cache_dir: Path, rounds: int):
    def run():
        shutil.rmtree(cache_dir, ignore_errors=True)
        fn()

    return _measure_ms(run, rounds)


def _repro_all(cache_dir: Path) -> None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(
            ["all", "--jobs", "1", "--cache-dir", str(cache_dir)]
        )
    if status not in (0, None):
        raise SystemExit(f"repro all failed with status {status}")


def _queue_section(rounds: int) -> dict:
    """Queue bookkeeping + worker drain timings on a small grid."""
    import threading

    from repro.eval.cache import estimator_fingerprint
    from repro.eval.queue import (
        JobStore,
        grid_fill_pairs,
        queue_db_path,
    )

    designs = ("TC", "DSTC", "HighLight")
    degrees = (0.0, 0.25, 0.5, 0.75)
    pairs = grid_fill_pairs(
        designs, degrees, degrees, m=128, k=128, n=128
    )
    estimator = Estimator()
    fingerprint = estimator_fingerprint(estimator)
    cells = 0

    def timed(body):
        """Best/mean ms of ``body(directory)`` over fresh scratch
        dirs; ``body`` returns the seconds of just the measured op."""
        times = []
        for _ in range(rounds):
            directory = Path(tempfile.mkdtemp(prefix="repro-bench-q-"))
            try:
                times.append(body(directory))
            finally:
                shutil.rmtree(directory, ignore_errors=True)
        return (
            min(times) * 1000.0,
            sum(times) / len(times) * 1000.0,
        )

    def filled_store(directory):
        store = JobStore(queue_db_path(directory, fingerprint))
        store.fill(pairs)
        return store

    def fill_body(directory):
        nonlocal cells
        store = JobStore(queue_db_path(directory, fingerprint))
        start = time.perf_counter()
        store.fill(pairs)
        elapsed = time.perf_counter() - start
        cells = store.stats().pending
        store.close()
        return elapsed

    def bookkeeping_body(directory):
        store = filled_store(directory)
        start = time.perf_counter()
        while True:
            jobs = store.claim_batch("bench", limit=16)
            if not jobs:
                break
            store.complete("bench", [job.digest for job in jobs])
        elapsed = time.perf_counter() - start
        store.close()
        return elapsed

    def drain(directory, store, worker_id):
        engine = SweepEngine(
            estimator,
            cache=PersistentCache.for_estimator(directory, estimator),
        )
        list(engine.run_queue(
            store, worker_id=worker_id, batch_size=16, poll_s=0.01
        ))
        engine.close()

    def one_worker_body(directory):
        store = filled_store(directory)
        start = time.perf_counter()
        drain(directory, store, "solo")
        elapsed = time.perf_counter() - start
        store.close()
        return elapsed

    def two_worker_body(directory):
        filled_store(directory).close()

        def run(worker_id):
            store = JobStore(queue_db_path(directory, fingerprint))
            drain(directory, store, worker_id)
            store.close()

        threads = [
            threading.Thread(target=run, args=(f"w{i}",))
            for i in range(2)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    fill_ms, fill_mean = timed(fill_body)
    book_ms, book_mean = timed(bookkeeping_body)
    solo_ms, solo_mean = timed(one_worker_body)
    duo_ms, duo_mean = timed(two_worker_body)
    return {
        "cells": cells,
        "fill_ms": round(fill_ms, 3),
        "fill_mean_ms": round(fill_mean, 3),
        "claim_complete_ms": round(book_ms, 3),
        "claim_complete_mean_ms": round(book_mean, 3),
        "one_worker_drain_ms": round(solo_ms, 3),
        "one_worker_drain_mean_ms": round(solo_mean, 3),
        "two_worker_drain_ms": round(duo_ms, 3),
        "two_worker_drain_mean_ms": round(duo_mean, 3),
    }


def record(rounds: int) -> dict:
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    sweep_dir = scratch / "sweep-cache"
    fig13_dir = scratch / "fig13-cache"
    all_dir = scratch / "all-cache"
    try:
        sweep = lambda: _network_sweep(sweep_dir)  # noqa: E731
        fig13 = lambda: _fig13(fig13_dir)  # noqa: E731
        repro_all = lambda: _repro_all(all_dir)  # noqa: E731

        sweep_cold = _cold(sweep, sweep_dir, rounds)
        sweep_warm = _measure_ms(sweep, rounds)  # cache left populated
        fig13_cold = _cold(fig13, fig13_dir, rounds)
        fig13_warm = _measure_ms(fig13, rounds)
        all_cold = _cold(repro_all, all_dir, rounds)
        all_warm = _measure_ms(repro_all, rounds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def section(cold, warm):
        (cold_ms, cold_mean), (warm_ms, warm_mean) = cold, warm
        return {
            "cold_ms": round(cold_ms, 3),
            "cold_mean_ms": round(cold_mean, 3),
            "warm_ms": round(warm_ms, 3),
            "warm_mean_ms": round(warm_mean, 3),
        }

    return {
        # v4: one cold time per section (cold_ms/cold_mean_ms) in
        # place of v3's scalar/batch pair and speedup ratio.
        "schema_version": 4,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "rounds": rounds,
        "network_sweep_deit_small": section(sweep_cold, sweep_warm),
        "fig13_grid": section(fig13_cold, fig13_warm),
        "repro_all_jobs1": section(all_cold, all_warm),
        "queue_small_grid": _queue_section(rounds),
    }


def profile_cold_all(out: Path) -> None:
    """cProfile one cold ``repro all --jobs 1`` into ``out``."""
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-prof-"))
    try:
        _repro_all(scratch / "cache")  # warm imports outside the profile
        shutil.rmtree(scratch / "cache", ignore_errors=True)
        profiler = cProfile.Profile()
        profiler.enable()
        _repro_all(scratch / "cache")
        profiler.disable()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    profiler.dump_stats(str(out))


def compare(payload: dict, baseline: dict, tolerance: float):
    """Failures of the gated measurements, as (path, old_ms, new_ms)
    rows: a regression beyond ``tolerance``, or ``old_ms`` None when
    the new record has a gated key the baseline lacks (silently
    skipping it would let a renamed field switch the gate off)."""
    failures = []
    for section, record in payload.items():
        if not isinstance(record, dict):
            continue
        base = baseline.get(section)
        if not isinstance(base, dict):
            base = {}
        for key in GATED_MEASUREMENTS:
            if key not in record:
                continue
            new = record[key]
            old = base.get(key)
            if old is None or new > old * (1.0 + tolerance):
                failures.append((f"{section}.{key}", old, new))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_sweep.json",
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="timing rounds per measurement; the min is the tracked "
        "number, the mean is recorded alongside (default: %(default)s)",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE",
        help="exit non-zero if a cold or warm measurement regressed "
        "more than --tolerance over this baseline record, or is "
        "missing from it",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression for --compare "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--profile", metavar="OUT",
        help="also write a cProfile dump of one cold "
        "'repro all --jobs 1' run to OUT",
    )
    args = parser.parse_args(argv)
    payload = record(args.rounds)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if args.profile:
        profile_cold_all(Path(args.profile))
        print(f"profile written to {args.profile}")
    status = 0
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        failures = compare(payload, baseline, args.tolerance)
        if failures:
            for path, old, new in failures:
                if old is None:
                    print(
                        f"FAIL: {path} ({new}ms) is missing from the "
                        f"baseline {args.compare}",
                        file=sys.stderr,
                    )
                else:
                    print(
                        f"FAIL: {path} regressed {old}ms -> {new}ms "
                        f"(> {args.tolerance:.0%} over baseline)",
                        file=sys.stderr,
                    )
            status = 1
        else:
            print(
                f"OK: no gated measurement regressed more than "
                f"{args.tolerance:.0%} over {args.compare}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
