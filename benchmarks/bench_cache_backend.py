"""Persistent-cache flush cost at production scale, and codec speed.

The SQLite store upserts only the dirty entries (``INSERT OR
REPLACE``), so flush cost is O(dirty): these benchmarks populate a
10k-entry cache, dirty 100 entries, and time ``flush()``. The scaling
test asserts that growing the cache does not grow the flush with it,
so a regression that drags flush back to O(total) fails loudly rather
than just drifting in the trajectory.
"""

import time

import pytest
from conftest import emit

from repro.eval.cache import PersistentCache
from repro.eval.engine import SweepEngine
from repro.model.workload import synthetic_workload

#: A fixed, well-formed fingerprint (entries are synthetic; no
#: estimator needs to resolve it).
FINGERPRINT = "beefcafe" * 2

#: Steady-state cache size.
N_TOTAL = 10_000

#: New entries per flush (one engine batch's worth of evaluations).
N_DIRTY = 100


@pytest.fixture(scope="session")
def metrics(estimator):
    """One real serialized payload, reused for every synthetic entry."""
    engine = SweepEngine(estimator)
    (result,) = engine.evaluate_workloads(
        [("HighLight", synthetic_workload(0.5, 0.25, size=128))]
    )
    return result


def _populate(directory, metrics, total=N_TOTAL):
    cache = PersistentCache(directory, FINGERPRINT)
    for i in range(total):
        cache.put("TC", ("bench", i), metrics)
    cache.flush()
    cache.close()


def _timed_dirty_flush(directory, metrics, tag):
    """Open the populated cache, dirty N_DIRTY fresh entries, and time
    the flush alone."""
    cache = PersistentCache(directory, FINGERPRINT)
    for i in range(N_DIRTY):
        cache.put("TC", ("dirty", tag, i), metrics)
    start = time.perf_counter()
    cache.flush()
    elapsed = time.perf_counter() - start
    cache.close()
    return elapsed


def test_flush_100_dirty_of_10k(benchmark, tmp_path, metrics):
    _populate(tmp_path, metrics)
    tags = iter(range(10 ** 9))

    def setup():
        cache = PersistentCache(tmp_path, FINGERPRINT)
        tag = next(tags)
        for i in range(N_DIRTY):
            cache.put("TC", ("dirty", tag, i), metrics)
        return (cache,), {}

    benchmark.pedantic(
        lambda cache: cache.flush(), setup=setup, rounds=3, iterations=1
    )


def test_sqlite_flush_time_tracks_dirty_not_total(tmp_path, metrics):
    """Growing the cache 8x should not grow SQLite's dirty-flush time
    with it (a generous 4x guard band absorbs timer noise)."""
    timings = {}
    for total in (2_000, 16_000):
        directory = tmp_path / str(total)
        _populate(directory, metrics, total=total)
        timings[total] = min(
            _timed_dirty_flush(directory, metrics, tag)
            for tag in range(3)
        )
    emit(
        "SQLite dirty-flush vs cache size",
        "  ".join(
            f"{total} entries: {elapsed * 1e3:.1f} ms"
            for total, elapsed in timings.items()
        ),
    )
    assert timings[16_000] < timings[2_000] * 4


# --- metrics codec -------------------------------------------------------
#
# The packed v2 codec replaced per-entry `json.dumps(metrics_to_dict)`
# payloads. These cases time both directions of both codecs over a
# realistic entry population and assert the v2 wins outright — on time
# and on wire size — so a change that quietly falls back to the JSON
# path fails here instead of drifting in the trajectory.

N_CODEC_ENTRIES = 1_000


def _codec_population(metrics):
    import dataclasses

    return [
        dataclasses.replace(
            metrics, workload=f"{metrics.workload} #{i}"
        )
        for i in range(N_CODEC_ENTRIES)
    ]


def test_codec_encode_1k(benchmark, metrics):
    from repro.eval import codec

    population = _codec_population(metrics)
    benchmark(lambda: [codec.encode_metrics(m) for m in population])


def test_codec_decode_1k(benchmark, metrics):
    from repro.eval import codec

    blobs = [
        codec.encode_metrics(m) for m in _codec_population(metrics)
    ]
    benchmark(lambda: [codec.decode_blob(b) for b in blobs])


def test_codec_beats_json_round_trip(metrics):
    """The acceptance claim: packed blobs encode+decode faster than
    the v1 JSON text round trip and take fewer bytes on the wire."""
    import json

    from repro.eval import codec
    from repro.serialization import metrics_from_dict, metrics_to_dict

    population = _codec_population(metrics)

    def best(fn):
        return min(
            _timed(lambda: [fn(m) for m in population])
            for _ in range(3)
        )

    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    blob_encode = best(codec.encode_metrics)
    json_encode = best(lambda m: json.dumps(metrics_to_dict(m)))
    blobs = [codec.encode_metrics(m) for m in population]
    texts = [json.dumps(metrics_to_dict(m)) for m in population]
    blob_decode = min(
        _timed(lambda: [codec.decode_blob(b) for b in blobs])
        for _ in range(3)
    )
    json_decode = min(
        _timed(
            lambda: [metrics_from_dict(json.loads(t)) for t in texts]
        )
        for _ in range(3)
    )
    blob_bytes = sum(len(b) for b in blobs)
    json_bytes = sum(len(t) for t in texts)
    emit(
        f"Metrics codec, {N_CODEC_ENTRIES} entries (best of 3)",
        f"encode v2={blob_encode * 1e3:.1f} ms vs "
        f"json={json_encode * 1e3:.1f} ms; "
        f"decode v2={blob_decode * 1e3:.1f} ms vs "
        f"json={json_decode * 1e3:.1f} ms; "
        f"wire {blob_bytes / 1e3:.0f} kB vs {json_bytes / 1e3:.0f} kB",
    )
    assert blob_encode < json_encode
    assert blob_decode < json_decode
    assert blob_bytes < json_bytes
