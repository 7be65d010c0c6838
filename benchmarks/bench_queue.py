"""Job-queue overhead: claim/complete throughput, 1-vs-2 workers.

The queue's value proposition is that its bookkeeping is cheap next to
evaluation: claiming and completing a cell are single-transaction
SQLite updates in the cache database, so a fleet of workers spends its
time in the cost models, not in the queue. These cases measure the
bookkeeping alone (fill + claim/complete drain of a real grid, no
evaluation) and the end-to-end drain wall time with one worker versus
two concurrent in-process workers sharing one database — the
exactly-once assertion rides along, so a claim race would fail here
loudly, not just slowly.
"""

import threading
import time

from conftest import emit

from repro.eval.cache import PersistentCache, estimator_fingerprint
from repro.eval.engine import SweepEngine
from repro.eval.queue import JobStore, grid_fill_pairs, queue_db_path

DESIGNS = ("TC", "DSTC", "HighLight")
A_DEGREES = (0.0, 0.25, 0.5, 0.75)
B_DEGREES = (0.0, 0.25, 0.5, 0.75)
SIZE = 128
BATCH = 16


def _pairs():
    return grid_fill_pairs(
        DESIGNS, A_DEGREES, B_DEGREES, m=SIZE, k=SIZE, n=SIZE
    )


def _filled_store(directory, estimator):
    path = queue_db_path(directory, estimator_fingerprint(estimator))
    store = JobStore(path)
    store.fill(_pairs())
    return store


def _drain_bookkeeping(store):
    """Claim + complete every cell without evaluating anything."""
    while True:
        jobs = store.claim_batch("bench", limit=BATCH)
        if not jobs:
            break
        store.complete("bench", [job.digest for job in jobs])


def _drain_evaluating(directory, store, estimator, worker_id):
    engine = SweepEngine(
        estimator,
        cache=PersistentCache.for_estimator(directory, estimator),
    )
    batches = list(engine.run_queue(
        store, worker_id=worker_id, batch_size=BATCH, poll_s=0.01
    ))
    engine.close()
    return sum(batch.stats.evaluations for batch in batches)


def test_claim_complete_throughput(benchmark, tmp_path, estimator):
    """Bookkeeping-only drain: cells/second through claim+complete."""
    rounds = iter(range(10 ** 9))

    def setup():
        directory = tmp_path / f"round-{next(rounds)}"
        directory.mkdir()
        return (_filled_store(directory, estimator),), {}

    benchmark.pedantic(
        _drain_bookkeeping, setup=setup, rounds=3, iterations=1
    )


def test_bookkeeping_is_cheap_next_to_evaluation(tmp_path, estimator):
    """The overhead claim: claiming and completing a grid costs less
    wall time than evaluating it (else the queue is the bottleneck)."""
    book_dir = tmp_path / "bookkeeping"
    book_dir.mkdir()
    store = _filled_store(book_dir, estimator)
    cells = store.stats().pending
    start = time.perf_counter()
    _drain_bookkeeping(store)
    bookkeeping_s = time.perf_counter() - start
    store.close()

    eval_dir = tmp_path / "evaluating"
    eval_dir.mkdir()
    store = _filled_store(eval_dir, estimator)
    start = time.perf_counter()
    evaluated = _drain_evaluating(eval_dir, store, estimator, "w")
    evaluating_s = time.perf_counter() - start
    store.close()

    emit(
        f"Queue bookkeeping vs evaluation, {cells} cells "
        f"(batch={BATCH})",
        f"claim+complete only: {bookkeeping_s * 1e3:.1f} ms "
        f"({cells / bookkeeping_s:.0f} cells/s); claim+evaluate+"
        f"complete: {evaluating_s * 1e3:.1f} ms",
    )
    assert evaluated == cells
    assert bookkeeping_s < evaluating_s


def test_two_workers_drain_exactly_once(tmp_path, estimator):
    """1-vs-2-worker wall time on one grid, with the exactly-once
    property asserted: summed evaluations equal the cell count. The
    wall-time ratio is reported, not asserted — two in-process workers
    contend on the GIL and one shared database, so the honest
    multi-machine speedup story lives in the CI smoke job's separate
    processes; this case guards correctness under concurrency."""
    solo_dir = tmp_path / "solo"
    solo_dir.mkdir()
    store = _filled_store(solo_dir, estimator)
    cells = store.stats().pending
    start = time.perf_counter()
    solo_evals = _drain_evaluating(solo_dir, store, estimator, "solo")
    solo_s = time.perf_counter() - start
    assert solo_evals == cells
    store.close()

    duo_dir = tmp_path / "duo"
    duo_dir.mkdir()
    fill_store = _filled_store(duo_dir, estimator)
    assert fill_store.stats().pending == cells
    fill_store.close()
    evals = []

    def worker(worker_id):
        store = JobStore(
            queue_db_path(duo_dir, estimator_fingerprint(estimator))
        )
        evals.append(
            _drain_evaluating(duo_dir, store, estimator, worker_id)
        )
        store.close()

    threads = [
        threading.Thread(target=worker, args=(f"w{i}",))
        for i in range(2)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duo_s = time.perf_counter() - start

    emit(
        f"Queue drain wall time, {cells} cells",
        f"1 worker: {solo_s * 1e3:.1f} ms; 2 workers (threads, one "
        f"DB): {duo_s * 1e3:.1f} ms; per-worker evaluations: {evals}",
    )
    assert sum(evals) == cells
    final = JobStore(
        queue_db_path(duo_dir, estimator_fingerprint(estimator))
    )
    stats = final.stats()
    final.close()
    assert stats.done == cells
    assert stats.remaining == 0
