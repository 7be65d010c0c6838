"""Tests for the persistent (design, workload) evaluation cache."""

import sqlite3
from contextlib import closing

import pytest

from repro.accelerators import REGISTRY
from repro.energy import Estimator
from repro.energy.tables import EnergyAreaTable
from repro.errors import CacheError
from repro.eval import cache as cache_mod
from repro.eval.cache import (
    CACHE_SCHEMA_VERSION,
    MISS,
    PersistentCache,
    cache_stats,
    clear_cache,
    estimator_fingerprint,
    merge_cache_dirs,
    pair_digest,
)
from repro.eval.engine import Cell, SweepEngine
from repro.model.workload import synthetic_workload


@pytest.fixture
def workload():
    return synthetic_workload(0.5, 0.25, size=128)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert estimator_fingerprint(Estimator()) == (
            estimator_fingerprint(Estimator())
        )

    def test_sensitive_to_table_changes(self):
        default = estimator_fingerprint(Estimator())
        tweaked = estimator_fingerprint(
            Estimator(table=EnergyAreaTable(mac_pj=9.9))
        )
        assert default != tweaked

    def test_pair_digest_is_content_based(self, workload):
        relabeled = type(workload)(
            m=workload.m, k=workload.k, n=workload.n,
            a=workload.a, b=workload.b, name="other label",
        )
        assert pair_digest("TC", workload.key()) == pair_digest(
            "TC", relabeled.key()
        )
        assert pair_digest("TC", workload.key()) != pair_digest(
            "STC", workload.key()
        )


class TestDigestContract:
    """Pinned storage keys of realized workloads. A change to any of
    these digests (a workload key's format, its quantization, or how a
    design realizes a cell) silently colds every existing cache dir."""

    # (design, degree A, degree B) -> pair_digest hex of each candidate
    # realization at (m, k, n) = (64, 128, 256), in candidate order.
    PINNED = {
        ("TC", 0.5, 0.3): [
            "e8e5a197927c562b58c79a3fe4d8d04f"
            "c0b5c92c1d0dba16f70384475e6dbaf7",
        ],
        ("STC", 0.5, 0.3): [
            "7042e6a4853ceb5b829b003907560a8b"
            "2946439fddaae08604faab733d8d5848",
            "95b6d6a2bd27b296dc6a003e3afc6167"
            "c9528ee18fce1dffb9bf4d21c60287e7",
        ],
        ("S2TA", 0.5, 0.3): [
            "6b0f568740a71d3897b3bafeac3a12c5"
            "8bf7977a611999fb172cf93380f9553a",
            "8679dc8fc4100d8c04a8321c9aff8f15"
            "78ba8bd29620be0af2e20bcf93e4c378",
        ],
        ("DSTC", 0.5, 0.3): [
            "1855a2043a05bb702f41d562a406ae56"
            "0430cfe8805314ed68e698b33bc4f27f",
        ],
        ("HighLight", 0.625, 0.75): [
            "1f95885ac880394052a2d94ac37d9c7a"
            "54ad16a2b7b0b0ed4d8fe7c15a1a17fe",
            "1673050bd10970dd1f2f91ba815d5825"
            "837b55d143ea8dbc1e376575cfbd006f",
        ],
        ("DSSO", 0.75, 0.0): [
            "cc88a11a4aab46844f2865c5a1bef3e5"
            "c03c43065cc160c7fd8cf3f53b07af69",
            "4a3e58ce7f67a963e9e8216189698ac6"
            "b0233341bd87a412b525e67733961f2b",
        ],
    }

    @pytest.mark.parametrize("cell", sorted(PINNED), ids=lambda c: c[0])
    def test_realized_digests_are_pinned(self, cell, estimator):
        design, degree_a, degree_b = cell
        keyed = SweepEngine(estimator).key_cells(
            [Cell(design, degree_a, degree_b, 64, 128, 256)]
        )
        assert [
            pair_digest(name, key) for name, key in keyed.keys
        ] == self.PINNED[cell]

    def test_pins_cover_every_design(self):
        assert {design for design, _, _ in self.PINNED} == set(
            REGISTRY.names()
        )


class TestPersistentCache:
    def test_round_trip(self, tmp_path, estimator, workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator)
        (metrics,) = engine.evaluate_workloads([("HighLight", workload)])
        cache.put("HighLight", workload.key(), metrics)
        cache.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(reloaded) == 1
        cached = reloaded.get("HighLight", workload.key())
        assert cached is not MISS
        assert cached.edp == pytest.approx(metrics.edp)
        assert cached.cycles == pytest.approx(metrics.cycles)

    def test_none_is_a_first_class_entry(self, tmp_path, estimator,
                                         workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("S2TA", workload.key(), None)
        cache.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("S2TA", workload.key()) is None
        assert reloaded.get("S2TA", ("other",)) is MISS

    def test_flush_merges_with_concurrent_writer(self, tmp_path,
                                                 estimator, workload):
        first = PersistentCache.for_estimator(tmp_path, estimator)
        second = PersistentCache.for_estimator(tmp_path, estimator)
        first.put("TC", workload.key(), None)
        first.flush()
        second.put("STC", workload.key(), None)
        second.flush()
        first.close()
        second.close()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is None
        assert reloaded.get("STC", workload.key()) is None

    def test_corrupt_file_treated_as_empty(self, tmp_path, estimator):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache.path.write_text("not a database")
        assert len(PersistentCache.for_estimator(tmp_path,
                                                 estimator)) == 0

    def test_malformed_entries_treated_as_empty(self, tmp_path,
                                                estimator):
        """A valid database with a broken entry must not crash every
        subsequent run — the cache is best-effort."""
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", ("key",), None)
        cache.close()
        with sqlite3.connect(cache.path) as conn:
            conn.execute(
                "INSERT INTO entries VALUES (?, ?)",
                ("a" * 64, b"\x02truncated"),
            )
        conn.close()
        assert len(PersistentCache.for_estimator(tmp_path,
                                                 estimator)) == 0

    def test_different_fingerprints_are_isolated(self, tmp_path,
                                                 workload):
        default = Estimator()
        tweaked = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        cache = PersistentCache.for_estimator(tmp_path, default)
        cache.put("TC", workload.key(), None)
        cache.flush()
        other = PersistentCache.for_estimator(tmp_path, tweaked)
        assert other.get("TC", workload.key()) is MISS


class TestEngineIntegration:
    def test_second_engine_served_entirely_from_disk(self, tmp_path):
        grid = dict(
            designs=("TC", "HighLight"),
            a_degrees=(0.0, 0.5), b_degrees=(0.0,),
            m=128, k=128, n=128,
        )
        cold_estimator = Estimator()
        cold = SweepEngine(
            cold_estimator,
            cache=PersistentCache.for_estimator(tmp_path, cold_estimator),
        )
        cold_sweep = cold.sweep(**grid)
        cold.flush()  # in-batch flushes are debounced
        assert cold.stats.misses > 0
        warm_estimator = Estimator()
        warm = SweepEngine(
            warm_estimator,
            cache=PersistentCache.for_estimator(tmp_path, warm_estimator),
        )
        warm_sweep = warm.sweep(**grid)
        assert warm.stats.misses == 0
        assert warm.stats.disk_hits > 0
        for cell in cold_sweep.cells:
            for design in grid["designs"]:
                ours = cold_sweep.cells[cell][design]
                theirs = warm_sweep.cells[cell][design]
                assert ours.edp == pytest.approx(theirs.edp)

    def test_cache_file_is_a_valid_database(self, tmp_path, workload):
        estimator = Estimator()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        engine = SweepEngine(estimator, cache=cache)
        engine.evaluate_workloads([("HighLight", workload)])
        engine.close()
        assert cache.path.name == f"{cache.fingerprint}.db"
        with sqlite3.connect(cache.path) as conn:
            meta = dict(conn.execute("SELECT key, value FROM meta"))
            rows = conn.execute("SELECT metrics FROM entries").fetchall()
        conn.close()
        assert meta == {
            "fingerprint": cache.fingerprint,
            "schema_version": str(CACHE_SCHEMA_VERSION),
        }
        assert len(rows) == 1 and isinstance(rows[0][0], bytes)


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path, estimator, workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 1
        assert len(stats["files"]) == 1
        assert clear_cache(tmp_path) == 1
        assert cache_stats(tmp_path)["total_entries"] == 0

    def test_clear_leaves_foreign_json_alone(self, tmp_path, estimator,
                                             workload):
        """Only <fingerprint>.db files are cache files; run records
        or other JSON sharing the directory must survive a clear."""
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        record = tmp_path / "run-record.json"
        record.write_text("{}")
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 1
        assert len(stats["files"]) == 1
        assert clear_cache(tmp_path) == 1
        assert record.exists()

    def test_stats_on_missing_directory(self, tmp_path):
        stats = cache_stats(tmp_path / "nope")
        assert stats["files"] == []
        assert stats["total_entries"] == 0


class TestMergeCacheDirs:
    def _shard(self, directory, estimator, pairs):
        cache = PersistentCache.for_estimator(directory, estimator)
        engine = SweepEngine(estimator, cache=cache)
        engine.evaluate_workloads(pairs)
        return cache

    def test_union_of_shards(self, tmp_path, estimator):
        a = synthetic_workload(0.5, 0.0, size=128)
        b = synthetic_workload(0.75, 0.0, size=128)
        self._shard(tmp_path / "s1", estimator, [("HighLight", a)])
        self._shard(tmp_path / "s2", estimator, [("HighLight", b)])
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
        )
        assert summary["total_entries"] == 2
        assert summary["new_entries"] == 2
        assert summary["fingerprint"] == estimator_fingerprint(estimator)
        merged = PersistentCache.for_estimator(
            tmp_path / "out", estimator
        )
        assert merged.get("HighLight", a.key()) is not MISS
        assert merged.get("HighLight", b.key()) is not MISS

    def test_merge_is_idempotent(self, tmp_path, estimator, workload):
        self._shard(tmp_path / "s1", estimator, [("TC", workload)])
        merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        again = merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        assert again["new_entries"] == 0
        assert again["total_entries"] == 1

    def test_overlapping_shards_deduplicate(self, tmp_path, estimator,
                                            workload):
        self._shard(tmp_path / "s1", estimator, [("TC", workload)])
        self._shard(tmp_path / "s2", estimator, [("TC", workload)])
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
        )
        assert summary["total_entries"] == 1

    def test_mismatched_fingerprints_refused(self, tmp_path, workload):
        self._shard(tmp_path / "s1", Estimator(), [("TC", workload)])
        other = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        self._shard(tmp_path / "s2", other, [("TC", workload)])
        with pytest.raises(CacheError, match="mismatched"):
            merge_cache_dirs(
                [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
            )

    def test_empty_source_refused(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CacheError, match="no cache files"):
            merge_cache_dirs([tmp_path / "empty"], tmp_path / "out")

    def test_corrupt_source_is_loud(self, tmp_path, estimator):
        shard = tmp_path / "s1"
        shard.mkdir()
        path = shard / f"{estimator_fingerprint(estimator)}.db"
        path.write_text("not a database")
        with pytest.raises(CacheError, match="cannot read"):
            merge_cache_dirs([shard], tmp_path / "out")


def _entry_rows(directory, fingerprint):
    """A cache directory's ``entries`` table, in digest order."""
    path = directory / f"{fingerprint}.db"
    with closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT digest, metrics FROM entries ORDER BY digest"
        ).fetchall()


class TestShardedFill:
    """Sharded sweeps plus a merge are the multi-process way to fill a
    grid: the merged cache must be the single-process fill, entry for
    entry."""

    DESIGNS = ("TC", "DSTC", "HighLight")
    A_DEGREES = (0.0, 0.25, 0.5, 0.75)
    B_DEGREES = (0.0, 0.5)
    SIZE = 64

    def _fill(self, directory, estimator, a_degrees):
        engine = SweepEngine(
            estimator,
            cache=PersistentCache.for_estimator(directory, estimator),
        )
        try:
            engine.sweep(
                self.DESIGNS, a_degrees, self.B_DEGREES,
                m=self.SIZE, k=self.SIZE, n=self.SIZE,
            )
        finally:
            engine.close()

    def test_merged_shards_equal_single_process_fill(self, tmp_path,
                                                     estimator):
        fingerprint = estimator_fingerprint(estimator)
        half = len(self.A_DEGREES) // 2
        self._fill(tmp_path / "s1", estimator, self.A_DEGREES[:half])
        self._fill(tmp_path / "s2", estimator, self.A_DEGREES[half:])
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "merged"
        )
        self._fill(tmp_path / "local", estimator, self.A_DEGREES)

        local = _entry_rows(tmp_path / "local", fingerprint)
        assert summary["total_entries"] == len(local)
        # The shards evaluated the grid in a different order but must
        # store identical blobs under identical digests.
        assert _entry_rows(tmp_path / "merged", fingerprint) == local


class TestBusyRetry:
    def test_retry_gives_up_after_bounded_attempts(self):
        attempts = []

        def always_locked():
            attempts.append(1)
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            cache_mod._retry_locked(always_locked)
        assert len(attempts) == cache_mod.SQLITE_BUSY_RETRIES + 1

    def test_retry_recovers_from_transient_contention(self):
        state = {"left": 2}

        def flaky():
            if state["left"]:
                state["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert cache_mod._retry_locked(flaky) == "ok"

    def test_non_busy_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: meta")

        with pytest.raises(sqlite3.OperationalError):
            cache_mod._retry_locked(broken)
        assert len(attempts) == 1
