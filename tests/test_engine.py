"""Tests for the memoizing sweep engine."""

import threading

import pytest

from repro.accelerators import DSTC, TC, AcceleratorDesign
from repro.accelerators.registry import DesignRegistry, register_design
from repro.energy import Estimator
from repro.errors import EvaluationError, UnsupportedWorkloadError
from repro.eval.cache import MISS, PersistentCache
from repro.eval.engine import (
    Cell,
    SweepEngine,
    grid_cells,
)
from repro.model.metrics import GEOMEAN_METRICS
from repro.model.workload import (
    dense_operand,
    synthetic_workload,
    unstructured_operand,
)
from repro.utils import geomean


@pytest.fixture
def engine(estimator):
    return SweepEngine(estimator)


SMALL = dict(m=128, k=128, n=128)


class TestCellRealization:
    def test_degree_noise_shares_workload_keys(self, engine):
        """Cells carry no cache key of their own; quantization inside
        the workload keys absorbs grid-arithmetic float noise."""
        exact = engine.key_cells([Cell("HighLight", 0.5, 0.25)]).keys
        noisy = engine.key_cells([Cell("HighLight", 0.5 + 1e-12, 0.25)]).keys
        assert exact == noisy

    def test_shape_distinguishes_workloads(self, engine):
        assert (
            engine.key_cells([Cell("TC", 0.5, 0.0, m=256)]).keys
            != engine.key_cells([Cell("TC", 0.5, 0.0)]).keys
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


class TestDeterminism:
    def test_deterministic_result_ordering(self, estimator):
        cells = grid_cells(("TC", "HighLight"), (0.0, 0.5), (0.0,),
                           **SMALL)
        a = SweepEngine(estimator).evaluate_cells(cells)
        b = SweepEngine(estimator).evaluate_cells(cells)
        assert a == b


class TestThreadSafety:
    def test_concurrent_batches_evaluate_each_pair_once(self, estimator):
        """Many threads hammering one engine with the same grid must
        agree on results and evaluate each unique pair exactly once
        (the in-flight registry makes concurrent misses collapse)."""
        engine = SweepEngine(estimator)
        cells = grid_cells(
            ("TC", "STC", "HighLight"), (0.0, 0.5), (0.0, 0.5), **SMALL
        )
        keys = engine.key_cells(cells).keys
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
        assert engine.stats.misses == len(set(keys))
        assert engine.stats.requests == len(keys) * 8


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


def per_metric_geomeans(sweep, metric, unsupported_as_baseline):
    """The per-metric route ``SweepResult.geomeans`` replaced: one
    ``normalized()`` map per metric, then a geomean per design."""
    normalized = sweep.normalized(metric)
    out = {}
    for design in sweep.design_order:
        values = []
        for row in normalized.values():
            value = row[design]
            if value is None:
                if unsupported_as_baseline:
                    values.append(1.0)
                continue
            values.append(value)
        out[design] = geomean(values)
    return out


class TestGeomeans:
    """All geomeans come from one memoized pass over the cells."""

    @pytest.fixture(scope="class")
    def sweep(self):
        # S2TA cannot run the dense-dense cell, so the flag matters.
        return SweepEngine(Estimator()).sweep(
            designs=("TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO"),
            a_degrees=(0.0, 0.3, 0.5, 0.625, 0.75, 0.9),
            b_degrees=(0.0, 0.25, 0.5, 0.8),
            **SMALL,
        )

    @pytest.mark.parametrize("unsupported_as_baseline", (True, False))
    @pytest.mark.parametrize("metric", GEOMEAN_METRICS)
    def test_equal_to_the_per_metric_route(
        self, sweep, metric, unsupported_as_baseline
    ):
        assert sweep.cells[(0.0, 0.0)]["S2TA"] is None
        assert sweep.geomeans(metric, unsupported_as_baseline) == (
            per_metric_geomeans(sweep, metric, unsupported_as_baseline)
        )

    def test_flags_differ_where_a_design_is_unsupported(self, sweep):
        on = sweep.geomeans("edp", True)
        off = sweep.geomeans("edp", False)
        assert on["S2TA"] != off["S2TA"]
        assert on["STC"] == off["STC"]  # supports every cell

    def test_returned_maps_do_not_alias_the_memo(self, sweep):
        first = sweep.geomeans("edp")
        first["TC"] = 123.0
        assert sweep.geomeans("edp")["TC"] == 1.0

    def test_payload_carries_the_same_geomeans(self, sweep):
        payload = sweep.to_payload()
        assert list(payload["geomeans"]) == list(GEOMEAN_METRICS)
        for metric in GEOMEAN_METRICS:
            assert payload["geomeans"][metric] == sweep.geomeans(metric)

    def test_missing_baseline_cell_raises_and_payload_omits(
        self, estimator
    ):
        sweep = SweepEngine(estimator).sweep(
            designs=("S2TA", "TC"),
            a_degrees=(0.0, 0.5), b_degrees=(0.0,),
            **SMALL,
        )
        assert sweep.baseline == "TC"
        sweep.baseline = "S2TA"  # S2TA misses the dense-dense cell
        for metric in GEOMEAN_METRICS:
            with pytest.raises(EvaluationError, match="baseline missing"):
                sweep.geomeans(metric)
            with pytest.raises(EvaluationError, match="baseline missing"):
                sweep.geomeans(metric, unsupported_as_baseline=False)
        payload = sweep.to_payload()
        assert "geomeans" not in payload
        assert len(payload["rows"]) == 4


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

    def test_interrupt_mid_batch_keeps_completed_evaluations(
        self, tmp_path
    ):
        """The headline durability scenario: a whole grid is one batch,
        and Ctrl-C partway through must persist the evaluations that
        already completed (results are recorded incrementally, and the
        failure path flushes before propagating)."""
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator, cache=cache)
        workloads = [
            synthetic_workload(0.5, degree, size=128)
            for degree in (0.0, 0.25, 0.5, 0.75)
        ]
        real = engine._evaluate_pair
        calls = []

        def interrupting(pair):
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
        # Serial evaluation stops at the interrupt: exactly the two
        # completed pairs are durable, the rest never ran.
        assert len(calls) == 2
        evaluated = {workload.key() for _, workload in calls}
        for workload in workloads:
            persisted = reloaded.get("TC", workload.key()) is not MISS
            assert persisted == (workload.key() in evaluated)

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

    def test_cache_close_error_propagates(self, tmp_path):
        """A failing flush (disk full, lock contention) is not
        swallowed: the original error reaches the caller of close()."""
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator, cache=cache)
        engine.sweep(designs=("STC",), a_degrees=(0.0, 0.5),
                     b_degrees=(0.0,), m=64, k=64, n=64)

        def failing_close():
            raise OSError("disk full")

        cache.close = failing_close
        with pytest.raises(OSError, match="disk full"):
            engine.close()


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


class ToyDesign(DSTC):
    """A design known only to a test registry: DSTC hardware that
    tries each degree as unstructured A against a dense B, in both
    orientations."""

    name = "Toy"

    def realize(self, sparsity_a, sparsity_b):
        return (
            (unstructured_operand(sparsity_a), dense_operand(), False),
            (unstructured_operand(sparsity_b), dense_operand(), True),
        )


class TestDesignOwnsRealization:
    """Realization lives on the design class: a new design needs a
    registration and a ``realize``, and no edit to the engine."""

    @staticmethod
    def _registry():
        registry = DesignRegistry()
        registry.register("TC", TC)
        register_design("Toy", ToyDesign, registry=registry)
        return registry

    def test_registry_only_design_sweeps_a_grid(self, estimator):
        engine = SweepEngine(estimator, registry=self._registry())
        degrees = (0.0, 0.25, 0.5)
        sweep = engine.sweep(
            designs=("TC", "Toy"), a_degrees=degrees, b_degrees=degrees,
            **SMALL,
        )
        assert len(sweep.cells) == 9
        assert all(row["Toy"] is not None for row in sweep.cells.values())
        # 9 TC cells share one dense workload; on a square shape both
        # of Toy's orientations of a degree share one key, so its 18
        # candidates name 3 workloads.
        assert engine.stats.misses == 1 + 3
        assert engine.stats.requests == 9 + 18
        swapped = sweep.cells[(0.0, 0.5)]["Toy"]
        assert swapped.workload == "128x128x128: A=unstructured(50%), B=dense"

    def test_unknown_design_is_unsupported(self, estimator):
        engine = SweepEngine(estimator, registry=self._registry())
        with pytest.raises(UnsupportedWorkloadError, match="unknown design"):
            engine.evaluate_cells([Cell("HighLight", 0.5, 0.5, **SMALL)])

    def test_base_realize_is_unsupported(self):
        with pytest.raises(UnsupportedWorkloadError, match="'TC'"):
            AcceleratorDesign.realize(TC(), 0.5, 0.5)

    #: ``key_cells``' workload keys on the ``TestDigestContract``
    #: cells at (64, 128, 256), in candidate order.
    PARENT = {
        ("DSSO", 0.75, 0.0): [
            (64, 128, 256, ("hss", 0.25, ((2, 4), (4, 8))),
             ("dense", 1.0, ())),
            (256, 128, 64, ("dense", 1.0, ()),
             ("unstructured", 0.25, ())),
        ],
        ("DSTC", 0.5, 0.3): [
            (64, 128, 256, ("unstructured", 0.5, ()),
             ("unstructured", 0.7, ())),
        ],
        ("HighLight", 0.625, 0.75): [
            (64, 128, 256, ("hss", 0.375, ((2, 4), (3, 4))),
             ("unstructured", 0.25, ())),
            (256, 128, 64, ("hss", 0.25, ((2, 4), (4, 8))),
             ("unstructured", 0.375, ())),
        ],
        ("S2TA", 0.5, 0.3): [
            (64, 128, 256, ("hss", 0.5, ((4, 8),)),
             ("hss", 0.75, ((6, 8),))),
            (256, 128, 64, ("hss", 0.75, ((6, 8),)),
             ("hss", 0.5, ((4, 8),))),
        ],
        ("STC", 0.5, 0.3): [
            (64, 128, 256, ("hss", 0.5, ((2, 4), (4, 4))),
             ("unstructured", 0.7, ())),
            (256, 128, 64, ("unstructured", 0.7, ()),
             ("unstructured", 0.5, ())),
        ],
        ("TC", 0.5, 0.3): [
            (64, 128, 256, ("dense", 1.0, ()), ("dense", 1.0, ())),
        ],
    }

    @pytest.mark.parametrize("cell", sorted(PARENT), ids=lambda c: c[0])
    def test_labeled_view_matches_the_name_switch(self, cell, estimator):
        """``key_cells`` labels each candidate key with its design name
        and realizes it through that design's ``realize``: the pinned
        keys, in candidate order."""
        design, degree_a, degree_b = cell
        keyed = SweepEngine(estimator).key_cells(
            [Cell(design, degree_a, degree_b, 64, 128, 256)]
        )
        assert keyed.keys == [(design, key) for key in self.PARENT[cell]]
        assert keyed.spans == [len(self.PARENT[cell])]

    def test_engine_keys_match_the_labeled_view(self, estimator):
        """``evaluate_cells`` evaluates exactly the keys ``key_cells``
        gives: the pinned ones, nothing else."""
        engine = SweepEngine(estimator)
        cells = [
            Cell(design, degree_a, degree_b, 64, 128, 256)
            for design, degree_a, degree_b in sorted(self.PARENT)
        ]
        engine.evaluate_cells(cells)
        assert set(engine._cache) == {
            (design, key)
            for (design, _, _), keys in self.PARENT.items()
            for key in keys
        }
