"""Tests for the memoizing/parallel sweep engine."""

import json
import sqlite3
import threading
from contextlib import closing

import pytest

from repro.energy import Estimator
from repro.errors import EvaluationError
from repro.eval.cache import MISS, PersistentCache
from repro.eval.engine import (
    Cell,
    SweepEngine,
    grid_cells,
)
from repro.model.workload import synthetic_workload


@pytest.fixture
def engine(estimator):
    return SweepEngine(estimator)


SMALL = dict(m=128, k=128, n=128)


class TestCellRealization:
    def test_degree_noise_shares_workload_keys(self):
        """Cells carry no cache key of their own; quantization inside
        the workload keys absorbs grid-arithmetic float noise."""
        exact = [w.key() for w in Cell("HighLight", 0.5, 0.25).realize()]
        noisy = [
            w.key()
            for w in Cell("HighLight", 0.5 + 1e-12, 0.25).realize()
        ]
        assert exact == noisy

    def test_shape_distinguishes_workloads(self):
        assert (
            Cell("TC", 0.5, 0.0, m=256).realize()[0].key()
            != Cell("TC", 0.5, 0.0).realize()[0].key()
        )


class TestMemoization:
    def test_cache_hit_counting(self, engine):
        # TC realizes one dense workload; HighLight(0.5, 0.0) realizes
        # its primary orientation plus the swap (B's 0% is canonical).
        cells = [Cell("TC", 0.0, 0.0, **SMALL),
                 Cell("HighLight", 0.5, 0.0, **SMALL)]
        first = engine.evaluate_cells(cells)
        assert engine.stats.misses == 3
        assert engine.stats.hits == 0
        second = engine.evaluate_cells(cells)
        assert engine.stats.misses == 3
        assert engine.stats.hits == 3
        assert first == second

    def test_duplicates_within_one_batch_evaluated_once(self, engine):
        cell = Cell("TC", 0.0, 0.0, **SMALL)
        results = engine.evaluate_cells([cell, cell, cell])
        assert engine.stats.misses == 1
        assert engine.stats.hits == 2
        assert results[0] == results[1] == results[2]

    def test_unsupported_cells_are_cached_too(self, engine):
        # Both square-cell orientations share one workload key, so the
        # first batch is 1 miss + 1 hit, the second pure hits.
        cell = Cell("S2TA", 0.0, 0.0, **SMALL)  # dense-dense: None
        assert engine.evaluate_cells([cell]) == [None]
        assert engine.evaluate_cells([cell]) == [None]
        assert engine.stats.misses == 1
        assert engine.stats.hits == 3

    def test_workloads_deduplicate_across_labels(self, engine):
        """The memoization key is workload *content*: two identically
        shaped/sparse workloads with different display names share one
        evaluation."""
        first = synthetic_workload(0.5, 0.25, size=128)
        relabeled = type(first)(
            m=first.m, k=first.k, n=first.n, a=first.a, b=first.b,
            name="a totally different label",
        )
        results = engine.evaluate_workloads(
            [("HighLight", first), ("HighLight", relabeled)]
        )
        assert engine.stats.misses == 1
        assert engine.stats.hits == 1
        assert results[0] == results[1]

    def test_dense_workload_shared_across_degree_cells(self, engine):
        """TC's realization is degree-independent, so a whole TC degree
        column costs exactly one evaluation."""
        cells = [
            Cell("TC", a, b, **SMALL)
            for a in (0.0, 0.5, 0.75)
            for b in (0.0, 0.25, 0.5)
        ]
        engine.evaluate_cells(cells)
        assert engine.stats.misses == 1
        assert engine.stats.hits == len(cells) - 1

    def test_repeated_pair_hits_the_same_metrics(self):
        engine = SweepEngine(Estimator())
        workload = synthetic_workload(0.5, 0.5, size=64)
        first = engine.evaluate_workloads([("HighLight", workload)])
        second = engine.evaluate_workloads([("HighLight", workload)])
        assert first[0] is second[0]
        assert engine.stats.misses == 1
        assert engine.stats.hits == 1

    def test_shared_engine_per_estimator(self):
        estimator = Estimator()
        assert SweepEngine.shared(estimator) is SweepEngine.shared(
            estimator
        )
        assert SweepEngine.shared(estimator) is not SweepEngine.shared(
            Estimator()
        )

    def test_shared_without_estimator_is_fresh(self):
        assert SweepEngine.shared() is not SweepEngine.shared()


class TestParallelism:
    def test_jobs_1_and_4_produce_identical_sweeps(self, estimator):
        serial = SweepEngine(estimator, jobs=1).sweep(**SMALL)
        parallel = SweepEngine(estimator, jobs=4).sweep(**SMALL)
        assert serial.design_order == parallel.design_order
        assert list(serial.cells) == list(parallel.cells)
        for cell in serial.cells:
            assert serial.cells[cell] == parallel.cells[cell]

    def test_deterministic_result_ordering(self, estimator):
        cells = grid_cells(("TC", "HighLight"), (0.0, 0.5), (0.0,),
                           **SMALL)
        a = SweepEngine(estimator, jobs=4).evaluate_cells(cells)
        b = SweepEngine(estimator, jobs=4).evaluate_cells(cells)
        assert a == b

    def test_invalid_jobs_rejected(self):
        with pytest.raises(EvaluationError):
            SweepEngine(jobs=0)

    def test_invalid_backend_rejected(self):
        with pytest.raises(EvaluationError, match="backend"):
            SweepEngine(backend="gpu")

    def test_process_backend_matches_serial(self, estimator):
        small = dict(m=64, k=64, n=64)
        serial = SweepEngine(estimator).sweep(
            designs=("TC", "HighLight"),
            a_degrees=(0.0, 0.5), b_degrees=(0.0,), **small,
        )
        engine = SweepEngine(jobs=2, backend="process")
        try:
            procs = engine.sweep(
                designs=("TC", "HighLight"),
                a_degrees=(0.0, 0.5), b_degrees=(0.0,), **small,
            )
        finally:
            engine.close()
        for cell in serial.cells:
            for design in ("TC", "HighLight"):
                ours = serial.cells[cell][design]
                theirs = procs.cells[cell][design]
                assert ours.edp == pytest.approx(theirs.edp)
                assert ours.cycles == pytest.approx(theirs.cycles)

    @staticmethod
    def _sweep_payload(tmp_path, jobs=1, backend="thread"):
        """A small cached sweep's payload floats and its persisted
        ``(digest, blob)`` rows."""
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(
            estimator, cache=cache, jobs=jobs, backend=backend
        )
        try:
            sweep = engine.sweep(
                designs=("TC", "STC", "HighLight"),
                a_degrees=(0.0, 0.5, 0.75),
                b_degrees=(0.0, 0.5),
                m=64, k=64, n=64,
            )
        finally:
            engine.close()
        payload = {
            str(key): {
                design: None if m is None else (
                    m.cycles, m.energy_pj, m.workload,
                    list(m.energy_breakdown_pj.items()),
                )
                for design, m in cell.items()
            }
            for key, cell in sweep.cells.items()
        }
        # Digest order: workers may record entries in any order, but
        # digest for digest the blobs must match.
        with closing(sqlite3.connect(cache.path)) as conn:
            rows = conn.execute(
                "SELECT digest, metrics FROM entries ORDER BY digest"
            ).fetchall()
        return payload, rows, engine.stats

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_parallel_backends_match_sequential(self, tmp_path, backend):
        """--jobs 4 over either worker backend gives the --jobs 1
        payload floats, and the persisted caches carry byte-identical
        blobs."""
        parallel_payload, parallel_rows, parallel_stats = (
            self._sweep_payload(tmp_path / backend, jobs=4,
                                backend=backend)
        )
        serial_payload, serial_rows, serial_stats = self._sweep_payload(
            tmp_path / "serial"
        )
        assert json.dumps(parallel_payload, sort_keys=True) == json.dumps(
            serial_payload, sort_keys=True
        )
        assert parallel_rows == serial_rows
        assert parallel_stats.misses == serial_stats.misses

    def test_process_pool_reused_across_batches(self):
        # Each sweep is one batch with >1 unique pair (STC/DSTC realize
        # several orientations), so both go through the pool.
        engine = SweepEngine(jobs=2, backend="process")
        try:
            engine.sweep(designs=("STC",), a_degrees=(0.0, 0.5),
                         b_degrees=(0.0,), m=64, k=64, n=64)
            pool = engine._process_pool
            assert pool is not None
            engine.sweep(designs=("DSTC",), a_degrees=(0.0, 0.5),
                         b_degrees=(0.0,), m=64, k=64, n=64)
            assert engine._process_pool is pool
        finally:
            engine.close()
        assert engine._process_pool is None

    def test_thread_pool_reused_across_batches(self):
        """The thread backend keeps one executor alive across batches
        (mirroring the cached process pool) instead of paying pool
        construction per ``_run_batch``."""
        engine = SweepEngine(jobs=2, backend="thread")
        try:
            engine.sweep(designs=("STC",), a_degrees=(0.0, 0.5),
                         b_degrees=(0.0,), m=64, k=64, n=64)
            pool = engine._thread_pool
            assert pool is not None
            engine.sweep(designs=("DSTC",), a_degrees=(0.0, 0.5),
                         b_degrees=(0.0,), m=64, k=64, n=64)
            assert engine._thread_pool is pool
        finally:
            engine.close()
        assert engine._thread_pool is None

    def test_thread_pool_rebuilt_when_jobs_change(self):
        engine = SweepEngine(jobs=2, backend="thread")
        try:
            engine.sweep(designs=("STC",), a_degrees=(0.0, 0.5),
                         b_degrees=(0.0,), m=64, k=64, n=64)
            pool = engine._thread_pool
            engine.jobs = 3
            engine.sweep(designs=("DSTC",), a_degrees=(0.0, 0.5),
                         b_degrees=(0.0,), m=64, k=64, n=64)
            assert engine._thread_pool is not pool
            assert engine._thread_pool_jobs == 3
        finally:
            engine.close()

    def test_process_initargs_stay_picklable_after_shared_use(self):
        """A used estimator carries the shared engine (locks/events)
        and cannot be pickled — which is why the process backend ships
        (table, plugins) instead of the estimator object. Guards the
        spawn/forkserver platforms where initargs really are pickled."""
        import pickle

        estimator = Estimator()
        SweepEngine.shared(estimator).evaluate_cells(
            [Cell("TC", 0.0, 0.0, m=64, k=64, n=64)]
        )
        with pytest.raises(TypeError):
            pickle.dumps(estimator)
        pickle.dumps((estimator.table, estimator._plugins))


class TestThreadSafety:
    def test_concurrent_batches_evaluate_each_pair_once(self, estimator):
        """Many threads hammering one engine with the same grid must
        agree on results and evaluate each unique pair exactly once
        (the in-flight registry makes concurrent misses collapse)."""
        engine = SweepEngine(estimator, jobs=4)
        cells = grid_cells(
            ("TC", "STC", "HighLight"), (0.0, 0.5), (0.0, 0.5), **SMALL
        )
        unique_pairs = {
            (cell.design, workload.key())
            for cell in cells
            for workload in cell.realize()
        }
        results = [None] * 8
        errors = []

        def hammer(index):
            try:
                results[index] = engine.evaluate_cells(cells)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(batch == results[0] for batch in results)
        assert engine.stats.misses == len(unique_pairs)
        requests = sum(len(cell.realize()) for cell in cells) * 8
        assert engine.stats.requests == requests


class TestSweep:
    def test_sweep_defaults_to_main_designs(self, engine):
        sweep = engine.sweep(a_degrees=(0.0,), b_degrees=(0.0,), **SMALL)
        assert sweep.design_order == (
            "TC", "STC", "DSTC", "S2TA", "HighLight",
        )
        assert sweep.baseline == "TC"

    def test_sweep_baseline_falls_back_to_first_design(self, engine):
        sweep = engine.sweep(
            designs=("HighLight", "DSSO"),
            a_degrees=(0.5,), b_degrees=(0.5,), **SMALL,
        )
        assert sweep.baseline == "HighLight"
        row = sweep.normalized("edp")[(0.5, 0.5)]
        assert row["HighLight"] == pytest.approx(1.0)

    def test_sweep_unknown_design_raises(self, engine):
        with pytest.raises(KeyError, match="NoSuchDesign"):
            engine.sweep(designs=("NoSuchDesign",), **SMALL)

    def test_grid_cells_order(self):
        cells = grid_cells(("TC", "STC"), (0.0, 0.5), (0.0,), **SMALL)
        assert [(c.design, c.sparsity_a) for c in cells] == [
            ("TC", 0.0), ("STC", 0.0), ("TC", 0.5), ("STC", 0.5),
        ]

    def test_design_instances_reused(self, engine):
        assert engine.design("TC") is engine.design("TC")


class TestClose:
    """``close()`` is the interrupt-safety valve: dirty persistent
    entries must reach disk even when a run stops mid-grid."""

    def test_close_flushes_dirty_persistent_entries(self, tmp_path):
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator, cache=cache)
        workload = synthetic_workload(0.5, 0.25, size=128)
        # Simulate an interrupt landing between put and flush (the
        # engine normally flushes at the end of each batch).
        cache.put("TC", workload.key(), None)
        assert not cache.path.exists()
        engine.close()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is not MISS

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_interrupt_mid_batch_keeps_completed_evaluations(
        self, tmp_path, jobs
    ):
        """The headline durability scenario: a whole grid is one batch,
        and Ctrl-C partway through must persist the evaluations that
        already completed (results are recorded incrementally, and the
        failure path flushes before propagating)."""
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator, jobs=jobs, cache=cache)
        workloads = [
            synthetic_workload(0.5, degree, size=128)
            for degree in (0.0, 0.25, 0.5, 0.75)
        ]
        real = engine._evaluate_pair
        calls = []

        def interrupting(pair):
            # >= so no pair submitted after the first interrupt can
            # still evaluate (its result would never be consumed).
            if len(calls) >= 2:
                raise KeyboardInterrupt
            result = real(pair)
            calls.append(pair)
            return result

        engine._evaluate_pair = interrupting
        with pytest.raises(KeyboardInterrupt):
            engine.evaluate_workloads(
                [("TC", w) for w in workloads]
            )
        engine.close()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        for _, workload in calls:
            assert reloaded.get("TC", workload.key()) is not MISS
        assert len(calls) >= 1

    def test_close_is_idempotent_and_engine_stays_usable(self, tmp_path):
        estimator = Estimator()
        engine = SweepEngine(
            estimator,
            cache=PersistentCache.for_estimator(tmp_path, estimator),
        )
        workload = synthetic_workload(0.5, 0.25, size=128)
        engine.close()
        engine.close()
        (metrics,) = engine.evaluate_workloads([("TC", workload)])
        assert metrics is not None
        engine.close()

    def test_pools_shut_down_even_when_cache_close_fails(self, tmp_path):
        """A failing flush (disk full, lock contention) must not leave
        worker pools lingering, and the original error propagates."""
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator, jobs=2, cache=cache)
        engine.sweep(designs=("STC",), a_degrees=(0.0, 0.5),
                     b_degrees=(0.0,), m=64, k=64, n=64)
        assert engine._thread_pool is not None

        def failing_close():
            raise OSError("disk full")

        cache.close = failing_close
        with pytest.raises(OSError, match="disk full"):
            engine.close()
        assert engine._thread_pool is None
        assert engine._process_pool is None


class TestContextClose:
    """``EngineContext.close()`` is the teardown hook signal-driven
    shutdown paths (``repro serve``) share with the CLI's ``finally:``
    blocks — both may fire for the same context, in any order, from
    different threads, and none of that may raise or lose entries."""

    def test_double_close_flushes_once_and_never_raises(self, tmp_path):
        from repro.eval.engine import EngineContext

        ctx = EngineContext.create(cache_dir=str(tmp_path))
        workload = synthetic_workload(0.5, 0.25, size=128)
        (metrics,) = ctx.engine.evaluate_workloads([("TC", workload)])
        assert metrics is not None
        ctx.close()
        ctx.close()  # the signal path racing the finally: path
        reloaded = PersistentCache.for_estimator(
            tmp_path, ctx.engine.estimator
        )
        assert reloaded.get("TC", workload.key()) is not MISS
        reloaded.close()

    def test_context_manager_closes_on_exit(self, tmp_path):
        from repro.eval.engine import EngineContext

        workload = synthetic_workload(0.5, 0.25, size=128)
        with EngineContext.create(cache_dir=str(tmp_path)) as ctx:
            ctx.engine.evaluate_workloads([("TC", workload)])
            estimator = ctx.engine.estimator
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is not MISS
        reloaded.close()
        ctx.close()  # close-after-with is still a no-op

    def test_concurrent_closes_from_threads(self, tmp_path):
        from repro.eval.engine import EngineContext

        ctx = EngineContext.create(cache_dir=str(tmp_path))
        ctx.engine.evaluate_workloads(
            [("TC", synthetic_workload(0.5, 0.25, size=128))]
        )
        errors = []

        def close():
            try:
                ctx.close()
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_close_then_reuse_then_close(self, tmp_path):
        """A context stays usable after close (pools and the cache
        store reopen lazily) and the later re-close flushes again."""
        from repro.eval.engine import EngineContext

        ctx = EngineContext.create(cache_dir=str(tmp_path))
        first = synthetic_workload(0.5, 0.25, size=128)
        ctx.engine.evaluate_workloads([("TC", first)])
        ctx.close()
        second = synthetic_workload(0.5, 0.75, size=128)
        ctx.engine.evaluate_workloads([("TC", second)])
        ctx.close()
        reloaded = PersistentCache.for_estimator(
            tmp_path, ctx.engine.estimator
        )
        assert reloaded.get("TC", first.key()) is not MISS
        assert reloaded.get("TC", second.key()) is not MISS
        reloaded.close()
