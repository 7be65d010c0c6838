"""SQLite cache store suite.

Covers the store's on-disk semantics (round trip, cached ``None``,
concurrent writers, fingerprint isolation, merge), its own recovery
paths (WAL sidecars, corrupt, transient, stale-schema and poisoned-row
recovery), the loud merge reader, bulk probes, debounced flushes, the
leftover-file error for caches written by older versions, and the
acceptance shape (``repro all`` twice performs zero evaluations on the
warm run).
"""

import dataclasses
import json
import sqlite3

import pytest

from repro.energy import Estimator
from repro.energy.tables import EnergyAreaTable
from repro.errors import CacheError
from repro.eval import cache as cache_mod
from repro.eval.artifacts import ARTIFACTS, compute_artifacts
from repro.eval.cache import (
    CACHE_SCHEMA_VERSION,
    MISS,
    CacheStore,
    PersistentCache,
    SqliteCacheStore,
    cache_stats,
    clear_cache,
    estimator_fingerprint,
    merge_cache_dirs,
)
from repro.eval.engine import EngineContext, SweepEngine
from repro.model.workload import synthetic_workload


@pytest.fixture
def workload():
    return synthetic_workload(0.5, 0.25, size=128)


@pytest.fixture
def metrics(estimator, workload):
    engine = SweepEngine(estimator)
    (result,) = engine.evaluate_workloads([("HighLight", workload)])
    return result


def _shard(directory, estimator, pairs):
    cache = PersistentCache.for_estimator(directory, estimator)
    engine = SweepEngine(estimator, cache=cache)
    engine.evaluate_workloads(pairs)
    engine.close()
    return cache


class TestStoreSemantics:
    def test_suffix_resolved(self, tmp_path, estimator):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        fingerprint = estimator_fingerprint(estimator)
        assert cache.path == tmp_path / f"{fingerprint}.db"

    def test_round_trip(self, tmp_path, estimator, workload, metrics):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
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

    def test_two_concurrent_writers_union_on_disk(self, tmp_path,
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

    def test_different_fingerprints_are_isolated(self, tmp_path,
                                                 workload):
        default = Estimator()
        tweaked = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        cache = PersistentCache.for_estimator(tmp_path, default)
        cache.put("TC", workload.key(), None)
        cache.flush()
        other = PersistentCache.for_estimator(tmp_path, tweaked)
        assert other.get("TC", workload.key()) is MISS

    def test_flush_without_dirty_entries_writes_nothing(self, tmp_path,
                                                        estimator):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.flush()
        assert not cache.path.exists()

    def test_closed_cache_stays_usable(self, tmp_path, estimator,
                                       workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.close()
        cache.put("STC", workload.key(), None)
        cache.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(reloaded) == 2


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path, estimator, workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 1
        assert len(stats["files"]) == 1
        assert stats["files"][0]["backend"] == "sqlite"
        assert clear_cache(tmp_path) == 1
        assert cache_stats(tmp_path)["total_entries"] == 0

    def test_stats_and_clear_cover_rotated_databases(self, tmp_path,
                                                     estimator,
                                                     workload):
        """Databases set aside by flush recovery occupy real space:
        stats must show them and clear must reclaim them."""
        fingerprint = estimator_fingerprint(estimator)
        (tmp_path / f"{fingerprint}.db").write_text("garbage")
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        rotated = tmp_path / f"{fingerprint}.db.corrupt"
        assert rotated.exists()
        stats = cache_stats(tmp_path)
        assert rotated.name in [f["file"] for f in stats["files"]]
        by_name = {f["file"]: f for f in stats["files"]}
        assert by_name[rotated.name]["backend"] == "rotated"
        assert stats["total_entries"] == 1  # usable entries only
        assert clear_cache(tmp_path) == 1
        assert not rotated.exists()
        assert not any(tmp_path.iterdir())

    def test_clear_removes_wal_sidecars(self, tmp_path, estimator,
                                        workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        # The connection is still open, so the WAL sidecars exist.
        wal = cache.path.with_name(cache.path.name + "-wal")
        assert wal.exists()
        assert clear_cache(tmp_path) == 1
        assert not wal.exists()
        assert not any(tmp_path.iterdir())

    def test_special_characters_in_cache_dir(self, tmp_path, estimator,
                                             workload):
        """Read-only SQLite opens go through a percent-encoded URI, so
        cache directories containing '#', '%', or spaces still work
        for stats/merge (the write path uses plain connects)."""
        directory = tmp_path / "run #1, 50% sparse"
        _shard(directory, estimator, [("TC", workload)])
        stats = cache_stats(directory)
        assert stats["total_entries"] == 1
        summary = merge_cache_dirs([directory], tmp_path / "out")
        assert summary["total_entries"] == 1

    def test_stats_mixed_directory(self, tmp_path, workload):
        """Two fingerprints in one directory: one database each, both
        counted."""
        default = Estimator()
        tweaked = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        for est in (default, tweaked):
            cache = PersistentCache.for_estimator(tmp_path, est)
            cache.put("TC", workload.key(), None)
            cache.close()
        stats = cache_stats(tmp_path)
        assert stats["total_entries"] == 2
        assert [f["backend"] for f in stats["files"]] == [
            "sqlite", "sqlite"
        ]


class TestMerge:
    def test_union_of_shards(self, tmp_path, estimator):
        a = synthetic_workload(0.5, 0.0, size=128)
        b = synthetic_workload(0.75, 0.0, size=128)
        _shard(tmp_path / "s1", estimator, [("HighLight", a)])
        _shard(tmp_path / "s2", estimator, [("HighLight", b)])
        summary = merge_cache_dirs(
            [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
        )
        assert summary["total_entries"] == 2
        fingerprint = estimator_fingerprint(estimator)
        assert summary["path"] == str(tmp_path / "out" / f"{fingerprint}.db")
        merged = PersistentCache.for_estimator(
            tmp_path / "out", estimator
        )
        assert merged.get("HighLight", a.key()) is not MISS
        assert merged.get("HighLight", b.key()) is not MISS

    def test_merge_is_idempotent(self, tmp_path, estimator, workload):
        _shard(tmp_path / "s1", estimator, [("TC", workload)])
        merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        again = merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        assert again["new_entries"] == 0
        assert again["total_entries"] == 1

    def test_mismatched_fingerprints_refused(self, tmp_path, workload):
        _shard(tmp_path / "s1", Estimator(), [("TC", workload)])
        other = Estimator(table=EnergyAreaTable(mac_pj=9.9))
        _shard(tmp_path / "s2", other, [("TC", workload)])
        with pytest.raises(CacheError, match="mismatched"):
            merge_cache_dirs(
                [tmp_path / "s1", tmp_path / "s2"], tmp_path / "out"
            )


class TestLegacyCaches:
    """Caches written by older versions are refused, not read."""

    def _legacy_json(self, directory, estimator):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{estimator_fingerprint(estimator)}.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "fingerprint": path.stem,
            "entries": {},
        }))
        return path

    def test_leftover_json_refused_at_open(self, tmp_path, estimator):
        path = self._legacy_json(tmp_path, estimator)
        with pytest.raises(CacheError, match="older version") as error:
            PersistentCache.for_estimator(tmp_path, estimator)
        assert str(path) in str(error.value)
        assert "repro cache clear" in str(error.value)

    def test_leftover_json_refused_in_merge(self, tmp_path, estimator,
                                            workload):
        _shard(tmp_path / "s1", estimator, [("TC", workload)])
        path = self._legacy_json(tmp_path / "s1", estimator)
        with pytest.raises(CacheError, match="older version") as error:
            merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")
        assert str(path) in str(error.value)
        assert not (tmp_path / "out").exists()

    def test_stats_and_clear_cover_leftover_json(self, tmp_path,
                                                 estimator):
        path = self._legacy_json(tmp_path, estimator)
        (per_file,) = cache_stats(tmp_path)["files"]
        assert per_file["file"] == path.name
        assert per_file["backend"] == "rotated"
        clear_cache(tmp_path)
        assert not path.exists()
        # The refill the error message asks for now works.
        PersistentCache.for_estimator(tmp_path, estimator).close()

    def test_v1_text_row_refused_in_merge(self, tmp_path, estimator,
                                          workload, metrics):
        cache = PersistentCache.for_estimator(tmp_path / "s1", estimator)
        cache.put("HighLight", workload.key(), metrics)
        cache.close()
        digest = cache_mod.pair_digest("HighLight", workload.key())
        with sqlite3.connect(cache.path) as conn:
            conn.execute(
                "UPDATE entries SET metrics = ? WHERE digest = ?",
                (json.dumps(dataclasses.asdict(metrics)), digest),
            )
        conn.close()
        with pytest.raises(CacheError, match="v1 format"):
            merge_cache_dirs([tmp_path / "s1"], tmp_path / "out")


class TestRawValidation:
    """The loud merge reader must refuse unidentified files (a missing
    fingerprint field used to pass the mismatch check)."""

    def _bare_db(self, path, meta):
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        conn.execute(
            "CREATE TABLE entries (digest TEXT PRIMARY KEY, "
            "metrics TEXT)"
        )
        conn.executemany("INSERT INTO meta VALUES (?, ?)", meta.items())
        conn.commit()
        conn.close()

    def test_sqlite_missing_fingerprint_field_refused(self, tmp_path):
        shard = tmp_path / "s1"
        shard.mkdir()
        self._bare_db(
            shard / f"{'0' * 16}.db",
            {"schema_version": str(CACHE_SCHEMA_VERSION)},
        )
        with pytest.raises(CacheError, match="missing the fingerprint"):
            merge_cache_dirs([shard], tmp_path / "out")

    def test_wrong_fingerprint_still_refused(self, tmp_path):
        shard = tmp_path / "s1"
        shard.mkdir()
        self._bare_db(
            shard / f"{'0' * 16}.db",
            {
                "schema_version": str(CACHE_SCHEMA_VERSION),
                "fingerprint": "f" * 16,
            },
        )
        with pytest.raises(CacheError, match="records fingerprint"):
            merge_cache_dirs([shard], tmp_path / "out")

    def test_corrupt_sqlite_source_is_loud(self, tmp_path):
        shard = tmp_path / "s1"
        shard.mkdir()
        (shard / f"{'0' * 16}.db").write_text("not a database")
        with pytest.raises(CacheError, match="cannot read"):
            merge_cache_dirs([shard], tmp_path / "out")


class TestCorruptionRecovery:
    def test_corrupt_db_reads_as_empty(self, tmp_path, estimator):
        fingerprint = estimator_fingerprint(estimator)
        (tmp_path / f"{fingerprint}.db").write_text("garbage")
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(cache) == 0

    def test_flush_recovers_from_corrupt_db(self, tmp_path, estimator,
                                            workload):
        """A corrupt database is set aside and rebuilt rather than
        crashing the run."""
        fingerprint = estimator_fingerprint(estimator)
        (tmp_path / f"{fingerprint}.db").write_text("garbage")
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is None
        assert (tmp_path / f"{fingerprint}.db.corrupt").exists()

    def test_transient_errors_never_rotate_the_db(self, tmp_path,
                                                  estimator, workload,
                                                  monkeypatch):
        """Lock contention or a full disk is not corruption: the
        database (possibly held by a concurrent writer) must stay in
        place and the error must propagate."""
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        db_path = cache.path

        def locked(self, dirty):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(SqliteCacheStore, "_upsert", locked)
        writer = PersistentCache.for_estimator(tmp_path, estimator)
        writer.put("STC", workload.key(), None)
        with pytest.raises(sqlite3.OperationalError):
            writer.flush()
        assert db_path.exists()
        assert not list(tmp_path.glob("*.corrupt"))

    def test_stale_schema_db_rebuilt_on_flush(self, tmp_path,
                                              estimator, workload):
        """A database from a different schema version reads as empty
        (best-effort) and is rotated aside and rebuilt at the current
        schema on flush — never silently mixed into."""
        fingerprint = estimator_fingerprint(estimator)
        path = tmp_path / f"{fingerprint}.db"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, "
            "value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE entries (digest TEXT PRIMARY KEY, "
            "metrics TEXT)"
        )
        conn.execute(
            "INSERT INTO meta VALUES ('schema_version', '9999'), "
            "('fingerprint', ?)", (fingerprint,),
        )
        conn.execute("INSERT INTO entries VALUES ('future', 'null')")
        conn.commit()
        conn.close()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(cache) == 0
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        assert (tmp_path / f"{fingerprint}.db.stale").exists()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is None
        assert len(reloaded) == 1

    def test_poisoned_row_triggers_rebuild_on_flush(self, tmp_path,
                                                    estimator,
                                                    workload):
        """One undecodable row — here a v1 JSON TEXT row — must not
        leave a permanently cold, never-healing cache: load reads empty
        (best-effort) and the next flush rotates and rebuilds, like any
        other corruption."""
        fingerprint = estimator_fingerprint(estimator)
        path = tmp_path / f"{fingerprint}.db"
        from repro.eval.cache import _sqlite_connect_rw

        conn = _sqlite_connect_rw(path, fingerprint)
        conn.execute(
            "INSERT INTO entries VALUES ('aaaaaaaa', '{\"bad\": 1}')"
        )
        conn.commit()
        conn.close()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(cache) == 0
        cache.put("TC", workload.key(), None)
        cache.flush()
        cache.close()
        assert (tmp_path / f"{fingerprint}.db.corrupt").exists()
        assert cache_stats(tmp_path)["files"][-1]["backend"] == "rotated"
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(reloaded) == 1
        assert reloaded.get("TC", workload.key()) is None

    def test_cache_close_releases_store_when_flush_fails(self, tmp_path,
                                                         estimator,
                                                         workload):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        cache.flush()
        assert cache.store._conn is not None
        cache.put("STC", workload.key(), None)

        def failing_flush(entries, dirty):
            raise sqlite3.OperationalError("disk I/O error")

        cache.store.flush = failing_flush
        with pytest.raises(sqlite3.OperationalError):
            cache.close()
        assert cache.store._conn is None


class TestEngineIntegration:
    def test_warm_engine_served_entirely_from_disk(self, tmp_path):
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
        assert cold.stats.misses > 0
        cold.close()
        warm_estimator = Estimator()
        warm = SweepEngine(
            warm_estimator,
            cache=PersistentCache.for_estimator(tmp_path, warm_estimator),
        )
        warm_sweep = warm.sweep(**grid)
        assert warm.stats.misses == 0
        assert warm.stats.disk_hits > 0
        warm.close()
        for cell in cold_sweep.cells:
            for design in grid["designs"]:
                ours = cold_sweep.cells[cell][design]
                theirs = warm_sweep.cells[cell][design]
                assert ours.edp == pytest.approx(theirs.edp)

    def test_repro_all_sqlite_warm_cache_evaluates_nothing(
        self, tmp_path
    ):
        """The acceptance shape: ``repro all --cache-dir D`` run twice
        performs zero evaluations the second time, with identical
        payloads."""
        cache_dir = str(tmp_path / "cache")
        cold = EngineContext.create(cache_dir=cache_dir)
        cold_results = compute_artifacts(list(ARTIFACTS), cold)
        assert cold.engine.stats.evaluations > 0
        cold.engine.close()

        warm = EngineContext.create(cache_dir=cache_dir)
        warm_results = compute_artifacts(list(ARTIFACTS), warm)
        assert warm.engine.stats.evaluations == 0
        assert warm.engine.stats.misses == 0
        assert warm.engine.stats.disk_hits > 0
        warm.engine.close()
        for name in ARTIFACTS:
            assert (
                warm_results[name].to_payload()
                == cold_results[name].to_payload()
            )


class TestStoreClasses:
    def test_store_classes_exported(self):
        assert SqliteCacheStore.suffix == ".db"
        # The former base-class name stays importable for tracers.
        assert CacheStore is SqliteCacheStore


class TestBulkAccess:
    """get_many/put_many: the engine's bulk cache interface."""

    def test_get_many_mixes_hits_and_misses_in_order(
        self, tmp_path, estimator, workload, metrics
    ):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("HighLight", workload.key(), metrics)
        cache.put("S2TA", workload.key(), None)
        results = cache.get_many(
            [
                ("HighLight", workload.key()),
                ("TC", workload.key()),
                ("S2TA", workload.key()),
            ]
        )
        assert results[0] is metrics
        assert results[1] is MISS
        assert results[2] is None

    def test_get_many_probes_store_for_unknown_digests(
        self, tmp_path, estimator, workload, metrics
    ):
        """Entries another process flushed after our load must be
        found by the bulk probe (and not re-marked dirty)."""
        writer = PersistentCache.for_estimator(tmp_path, estimator)
        reader = PersistentCache.for_estimator(tmp_path, estimator)
        writer.put("HighLight", workload.key(), metrics)
        writer.flush()
        (result,) = reader.get_many([("HighLight", workload.key())])
        assert result is not MISS
        assert result.cycles == metrics.cycles
        # The probed entry is already on disk: closing the reader must
        # not rewrite it.
        reader.close()

    def test_probe_finds_a_row_committed_after_loading_a_database(
        self, tmp_path, estimator, workload, metrics
    ):
        """A reader that loaded an existing database still sees a row
        another connection commits later: the commit moves the
        reader's data_version, so the probe runs."""
        seed = PersistentCache.for_estimator(tmp_path, estimator)
        seed.put("S2TA", workload.key(), None)
        seed.close()
        reader = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(reader) == 1
        writer = PersistentCache.for_estimator(tmp_path, estimator)
        writer.put("HighLight", workload.key(), metrics)
        writer.close()
        # A probe for another key must not hide the committed row
        # from the next probe.
        assert reader.get_many([("TC", workload.key())]) == [MISS]
        (result,) = reader.get_many([("HighLight", workload.key())])
        assert result is not MISS
        assert result.cycles == metrics.cycles
        reader.close()

    def test_lone_reader_skips_the_probe(
        self, tmp_path, estimator, workload, metrics
    ):
        """No other connection committed since the load, so a cold
        get_many cannot find anything on disk and sends no
        ``WHERE digest IN`` query."""
        seed = PersistentCache.for_estimator(tmp_path, estimator)
        seed.put("S2TA", workload.key(), None)
        seed.close()
        reader = PersistentCache.for_estimator(tmp_path, estimator)
        statements = []
        reader.store._connect().set_trace_callback(statements.append)
        results = reader.get_many(
            [("HighLight", workload.key()), ("TC", workload.key())]
        )
        assert results == [MISS, MISS]
        assert not [s for s in statements if "WHERE digest IN" in s]
        # Our own flush commits on the same connection: still no probe.
        reader.put("HighLight", workload.key(), metrics)
        reader.flush()
        reader.get_many([("TC", workload.key())])
        assert not [s for s in statements if "WHERE digest IN" in s]
        reader.close()

    def test_put_many_equals_repeated_put(
        self, tmp_path, estimator, workload, metrics
    ):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put_many(
            [
                ("HighLight", workload.key(), metrics),
                ("S2TA", workload.key(), None),
            ]
        )
        cache.flush()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(reloaded) == 2
        assert reloaded.get("S2TA", workload.key()) is None


class TestDebouncedFlush:
    def test_maybe_flush_defers_within_interval(
        self, tmp_path, estimator, workload
    ):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        assert cache.maybe_flush(3600.0) is False
        assert not cache.path.exists()
        assert cache.maybe_flush(0.0) is True
        assert cache.path.exists()
        # Nothing dirty anymore: even an expired interval is a no-op.
        assert cache.maybe_flush(0.0) is False

    def test_close_persists_what_maybe_flush_deferred(
        self, tmp_path, estimator, workload
    ):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.put("TC", workload.key(), None)
        assert cache.maybe_flush(3600.0) is False
        cache.close()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", workload.key()) is None
