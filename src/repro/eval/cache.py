"""Persistent on-disk memoization of (design, workload) evaluations.

The analytical cost models are pure functions of (design, workload,
technology table), so their results can be reused across *processes and
runs*, not just within one engine. A :class:`PersistentCache` stores
one SQLite database per estimator fingerprint under a cache
directory::

    <cache_dir>/<fingerprint>.db      # WAL mode

Keys are SHA-256 digests of the canonical (design name, workload key)
content tuple; values are packed :mod:`repro.eval.codec` blobs of
:class:`~repro.model.metrics.Metrics` (or ``NULL`` for unsupported
pairs — negative results are worth caching too). The fingerprint covers
the energy/area table, the plug-in stack, and a model-version constant,
so any change to the cost models invalidates old entries automatically
by landing in a new file.

Loaded rows stay encoded after a cheap structural check
(:func:`~repro.eval.codec.well_formed`) and decode the first time a
command reads them, so a warm command pays only for the entries it
uses. A flush upserts only the dirty entries (``INSERT OR REPLACE``),
so its cost is O(dirty), and concurrent writers are serialized by
SQLite's own locking. Caches written by older versions are not read:
a leftover ``<fingerprint>.json`` raises
:class:`~repro.errors.CacheError` when the cache opens (delete it with
``repro cache clear`` and refill), and a v1 JSON ``TEXT`` row fails
the load-time check, so the database reads as empty and is rotated
aside by the next flush.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import sqlite3
import threading
import time
from functools import lru_cache
from pathlib import Path
from urllib.parse import quote
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.energy.estimator import Estimator
from repro.errors import CacheError
from repro.eval import codec
from repro.model.metrics import Metrics
from repro.model.workload import MEMO_SIZE, OperandKey, WorkloadKey

#: Bumped whenever the analytical cost models change in a way that
#: invalidates previously cached metrics.
MODEL_FINGERPRINT_VERSION = 1

#: Cache database schema version (recorded in the ``meta`` table).
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Sentinel distinguishing "no cached entry" from a cached ``None``
#: (an unsupported pair).
MISS = object()

#: SQLite busy-handler timeout (seconds) for cache connections —
#: how long SQLite itself blocks on a locked database before raising
#: ``SQLITE_BUSY``.
SQLITE_BUSY_TIMEOUT_S = 30.0

#: Bounded Python-level retries layered on top of the busy timeout.
#: Under WAL a writer can still see ``SQLITE_BUSY`` without the busy
#: handler running (e.g. a snapshot-upgrade conflict), so contended
#: writes retry a few times with backoff and only then fail loudly.
SQLITE_BUSY_RETRIES = 5
SQLITE_BUSY_BACKOFF_S = 0.05


def _is_busy_error(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _retry_locked(operation, retries: int = SQLITE_BUSY_RETRIES):
    """Run ``operation`` with bounded retries on ``SQLITE_BUSY``.

    Each retry backs off a little longer (50ms, 100ms, ...). Anything
    but a lock/busy condition — and a lock that persists past the last
    retry — propagates: contention is expected when several processes
    share a cache, but a flush that *stays* stuck must fail loudly, not
    silently drop work.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not _is_busy_error(error) or attempt >= retries:
                raise
            time.sleep(SQLITE_BUSY_BACKOFF_S * (attempt + 1))
            attempt += 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-highlight``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-highlight"


def _plugin_signature(plugin: object) -> Any:
    """A plugin's contribution to the fingerprint: its class plus any
    dataclass configuration it carries (the default plug-ins hold the
    :class:`EnergyAreaTable` they were built from as ``_table``, which
    may differ from the estimator's own table). Custom plug-ins with
    non-dataclass state should subclass with a distinct class name or
    bump :data:`MODEL_FINGERPRINT_VERSION`."""
    signature: Dict[str, Any] = {"class": type(plugin).__name__}
    for name, value in sorted(vars(plugin).items()):
        if dataclasses.is_dataclass(value):
            signature[name] = dataclasses.asdict(value)
        elif isinstance(value, (str, int, float, bool, type(None))):
            signature[name] = value
    return signature


#: Memoized fingerprints, keyed by the *identity* of the table and
#: plug-in objects that feed them. Every default-constructed Estimator
#: shares one table/plug-in set (see ``_default_setup``), so repeated
#: cache attachments skip the asdict/json/sha work entirely. The memo
#: value pins strong references to the keyed objects, so their ids
#: cannot be recycled. Assumes fingerprint inputs are not mutated in
#: place — the same assumption the cache itself already makes.
_fingerprint_memo: Dict[
    Tuple[int, Tuple[int, ...]], Tuple[Any, Tuple[Any, ...], str]
] = {}


def estimator_fingerprint(estimator: Estimator) -> str:
    """A stable hex digest of everything that determines an
    estimator's numbers: the technology table, the plug-in stack
    (classes plus their configuration), and the library's cost-model
    version."""
    memo_key = (
        id(estimator.table),
        tuple(id(p) for p in estimator._plugins),
    )
    hit = _fingerprint_memo.get(memo_key)
    if hit is not None:
        return hit[2]
    table = dataclasses.asdict(estimator.table)
    payload = {
        "model_version": MODEL_FINGERPRINT_VERSION,
        "table": {key: table[key] for key in sorted(table)},
        "plugins": [
            _plugin_signature(p) for p in estimator._plugins
        ],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]
    _fingerprint_memo[memo_key] = (
        estimator.table, tuple(estimator._plugins), digest
    )
    return digest


@lru_cache(maxsize=MEMO_SIZE)
def _operand_repr(operand_key: OperandKey) -> str:
    """``repr`` of one operand key: a sweep names a few dozen distinct
    operands, so each nested tuple is formatted once, not per pair."""
    return repr(operand_key)


@lru_cache(maxsize=65536)
def pair_digest(design: str, workload_key: WorkloadKey) -> str:
    """The storage key for one (design, workload) pair: the SHA-256 of
    ``repr((design, workload_key))``.

    Workload keys are nested tuples of strings/ints/floats whose
    ``repr`` is deterministic across processes and Python versions. A
    5-tuple (m, k, n, A key, B key) has its text composed from memoized
    per-operand ``repr`` strings, byte-identical to the plain ``repr``;
    any other key takes the plain path. Memoized: a sweep digests each
    miss once on probe and once on put, and repeated sweeps in one
    process re-digest them all.
    """
    if workload_key.__class__ is tuple and len(workload_key) == 5:
        m, k, n, a, b = workload_key
        text = (
            f"({design!r}, ({m!r}, {k!r}, {n!r}, "
            f"{_operand_repr(a)}, {_operand_repr(b)}))"
        )
    else:
        text = repr((design, workload_key))
    return hashlib.sha256(text.encode()).hexdigest()


# --- storage -------------------------------------------------------------


#: The database's table layout. ``meta`` pins the schema version and
#: fingerprint (the loud merge path requires both); ``entries`` holds
#: one row per pair digest, with a NULL ``metrics`` column for cached
#: "unsupported" verdicts.
_SQLITE_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS entries ("
    " digest TEXT PRIMARY KEY, metrics TEXT)",
)


def _require_directory(directory: Path) -> None:
    """Refuse a cache directory that cannot be created because it, or
    one of its parents, is not a directory — when the cache opens,
    before any work, rather than as a traceback from the first flush."""
    for path in (directory, *directory.parents):
        if path.is_dir():
            return
        if path.exists():
            raise CacheError(
                f"cannot use {directory} as a cache directory: {path} "
                f"is not a directory"
            )


def _legacy_error(path: Path) -> CacheError:
    return CacheError(
        f"{path} is a cache file from an older version, which this "
        f"version does not read; delete it (repro cache clear "
        f"--cache-dir {path.parent}) and refill"
    )


def _sqlite_connect_rw(path: Path, fingerprint: str) -> sqlite3.Connection:
    """A writable connection with the schema ensured and WAL enabled.

    WAL keeps readers unblocked during a writer's transaction, and
    SQLite's own locking (with a generous busy timeout) keeps
    concurrent writers safe.
    """
    _require_directory(path.parent)
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(
        path, timeout=SQLITE_BUSY_TIMEOUT_S, check_same_thread=False
    )
    try:
        conn.execute(
            f"PRAGMA busy_timeout={int(SQLITE_BUSY_TIMEOUT_S * 1000)}"
        )
        _retry_locked(lambda: conn.execute("PRAGMA journal_mode=WAL"))
        # synchronous=OFF: an OS crash mid-commit may corrupt the file,
        # but this cache is a reconstructible accelerator — a corrupt
        # database reads as empty and the next flush rotates + rebuilds
        # it — and skipping the fsyncs roughly halves flush latency on
        # the sweep hot path (a plain process crash loses nothing:
        # committed data is in the OS page cache/WAL either way).
        conn.execute("PRAGMA synchronous=OFF")
        def ensure_schema() -> None:
            for statement in _SQLITE_SCHEMA:
                conn.execute(statement)
            conn.executemany(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                [
                    ("schema_version", str(CACHE_SCHEMA_VERSION)),
                    ("fingerprint", fingerprint),
                ],
            )
            conn.commit()

        _retry_locked(ensure_schema)
    except BaseException:
        conn.close()
        raise
    return conn


def _sqlite_meta(conn: sqlite3.Connection) -> Dict[str, str]:
    return dict(conn.execute("SELECT key, value FROM meta"))


def _sqlite_connect_ro(path: Path) -> sqlite3.Connection:
    """A read-only connection (never creates the file). The path is
    percent-encoded: a raw f-string URI would mangle directories
    containing ``#``, ``?``, or ``%``."""
    uri = f"file:{quote(str(path))}?mode=ro"
    return sqlite3.connect(uri, uri=True, timeout=SQLITE_BUSY_TIMEOUT_S)


#: Entry upsert as a fixed literal statement (REP002: SQL is never
#: assembled from runtime strings).
_UPSERT = "INSERT OR REPLACE INTO entries (digest, metrics) VALUES (?, ?)"


#: One ``entries.metrics`` value as held in memory: a blob not yet
#: read (still encoded), decoded Metrics, or ``None`` (a cached
#: unsupported verdict).
Entry = Union[bytes, Metrics, None]


def _encoded(value: Entry) -> Optional[bytes]:
    """An entry's column value; still-encoded blobs pass through byte
    for byte."""
    if value is None or isinstance(value, bytes):
        return value
    return codec.encode_metrics(value)


class _SchemaMismatch(Exception):
    """A database whose recorded schema version this code cannot use
    (internal control flow for the store's flush recovery)."""


class SqliteCacheStore:
    """One fingerprint's SQLite database, the storage half of
    :class:`PersistentCache`; flush upserts only the dirty entries
    (O(dirty), not O(total)).

    The store is *not* locked — the owning :class:`PersistentCache`
    serializes access. Opening it refuses a cache directory that is a
    file and a leftover ``<fingerprint>.json`` from an older version
    with :class:`~repro.errors.CacheError`.
    """

    suffix = ".db"

    def __init__(self, directory: "str | Path", fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.path = self.directory / f"{fingerprint}{self.suffix}"
        _require_directory(self.directory)
        legacy = self.path.with_suffix(".json")
        if legacy.exists():
            raise _legacy_error(legacy)
        self._conn: Optional[sqlite3.Connection] = None
        #: Set when load() found the database undecodable for reasons
        #: flush's except clauses cannot see again (e.g. one poisoned
        #: row): the next flush must rebuild, not upsert into a file
        #: every load reads as empty.
        self._unreadable = False

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = _sqlite_connect_rw(self.path, self.fingerprint)
        return self._conn

    def load(self) -> Dict[str, Optional[bytes]]:
        """All on-disk entries, still encoded (best-effort: problems
        read empty). Every row must pass :func:`codec.well_formed`;
        decoding waits for the first read
        (:meth:`PersistentCache.get`)."""
        if not self.path.exists():
            return {}
        try:
            conn = self._connect()
            meta = _sqlite_meta(conn)
            if meta.get("schema_version") != str(CACHE_SCHEMA_VERSION):
                return {}
            rows: Dict[str, Optional[bytes]] = dict(
                conn.execute("SELECT digest, metrics FROM entries")
            )
            well_formed = codec.well_formed
            for value in rows.values():
                if value is not None and not well_formed(value):
                    raise CacheError("malformed cache row")
            return rows
        except sqlite3.OperationalError:
            # Transient (locked, I/O): read as empty this run but
            # leave the file alone — it may be healthy.
            return {}
        except Exception:
            # A corrupt database reads as empty, never as a crash.
            # Flag it so the next flush rotates and rebuilds even when
            # the damage (e.g. one malformed row) would not resurface
            # as a sqlite3.DatabaseError there.
            self.mark_unreadable()
            return {}

    def mark_unreadable(self) -> None:
        """Make the next flush rotate the database aside and rebuild it
        from memory (a row failed to decode)."""
        self._unreadable = True

    def get_many(
        self, digests: List[str]
    ) -> Dict[str, Optional[bytes]]:
        """Probe the database for ``digests`` in one query per ~500
        keys — picks up rows a concurrent writer committed since our
        load. Rows come back still encoded, like :meth:`load`'s.
        Best-effort like every runtime read: any database problem, a
        malformed row included, reports "nothing found" rather than
        raising."""
        if not digests or not self.path.exists():
            return {}
        found: Dict[str, Optional[bytes]] = {}
        try:
            conn = self._connect()
            if _sqlite_meta(conn).get("schema_version") != str(
                CACHE_SCHEMA_VERSION
            ):
                return {}
            for start in range(0, len(digests), 500):
                chunk = digests[start:start + 500]
                placeholders = ",".join("?" * len(chunk))
                for digest, value in conn.execute(
                    f"SELECT digest, metrics FROM entries "
                    f"WHERE digest IN ({placeholders})",
                    chunk,
                ):
                    if value is not None and not codec.well_formed(value):
                        return {}
                    found[digest] = value
        except Exception:
            return {}
        return found

    def _upsert(self, dirty: Dict[str, Entry]) -> None:
        conn = self._connect()
        rows = [
            (digest, _encoded(value)) for digest, value in dirty.items()
        ]

        def upsert() -> None:
            conn.executemany(_UPSERT, rows)
            conn.commit()

        # Contended multi-process flushes retry a few times before the
        # OperationalError escapes (the flush path treats it as
        # transient and never rotates the file away).
        _retry_locked(upsert)

    def _check_schema(self) -> None:
        if not self.path.exists():
            return
        meta = _sqlite_meta(self._connect())
        if meta.get("schema_version") != str(CACHE_SCHEMA_VERSION):
            raise _SchemaMismatch(meta.get("schema_version"))

    def _rotate_aside(self, suffix: str) -> None:
        self.close()
        self.path.replace(self.path.with_name(self.path.name + suffix))
        for sidecar in _sidecar_files(self.path):
            sidecar.unlink(missing_ok=True)

    def flush(
        self,
        entries: Dict[str, Entry],
        dirty: Dict[str, Optional[Metrics]],
    ) -> Dict[str, Entry]:
        """Persist ``dirty``; returns the post-flush in-memory view."""
        try:
            if self._unreadable:
                self._unreadable = False
                raise sqlite3.DatabaseError(
                    "database was undecodable at load"
                )
            self._check_schema()
            self._upsert(dirty)
        except sqlite3.OperationalError:
            # Transient conditions — lock contention past the busy
            # timeout, disk full, I/O errors — are not corruption; a
            # concurrent writer may hold the file, so never rotate it
            # away. (After _connect the meta/entries tables exist, so
            # "no such table" cannot reach here.)
            raise
        except (sqlite3.DatabaseError, _SchemaMismatch) as error:
            # A file this version cannot use (torn, stale schema, a
            # malformed or undecodable row): set it aside and rebuild
            # it from memory at the current schema.
            stale = isinstance(error, _SchemaMismatch)
            self._rotate_aside(".stale" if stale else ".corrupt")
            self._upsert(entries)
        return entries

    def close(self) -> None:
        """Release the connection (reopened lazily if used again)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


#: The store's former base-class name, kept as an alias because
#: tracing tools (``perfbench/tracing.py``) wrap ``CacheStore.load``
#: and ``CacheStore.flush``.
CacheStore = SqliteCacheStore


class PersistentCache:
    """A dict-like store of evaluated pairs, backed by one
    :class:`SqliteCacheStore` database.

    Entries live in memory after load, still encoded until first read;
    :meth:`flush` upserts the entries added since the last flush.
    ``None`` values are first-class (cached "unsupported" verdicts).
    All operations are guarded by an internal lock, so an engine can
    perform lookups while another thread flushes.
    """

    #: Fields that must only be touched under ``self._lock`` (REP001).
    #: Helpers that assume the caller already holds the lock carry a
    #: ``*_locked`` suffix instead.
    _lock_guarded = frozenset({"_entries", "_dirty", "_last_flush"})

    def __init__(self, directory: "str | Path", fingerprint: str) -> None:
        self.store = SqliteCacheStore(directory, fingerprint)
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self._entries: Dict[str, Entry] = {}
        self._dirty: Dict[str, Optional[Metrics]] = {}
        self._lock = threading.Lock()
        # Debounce clock for maybe_flush: "the file is never more than
        # `min_interval` behind" holds from construction, so a cache
        # that lives shorter than the interval persists once, at close.
        self._last_flush = time.monotonic()
        self._entries.update(self.store.load())

    @classmethod
    def for_estimator(
        cls, directory: "str | Path", estimator: Estimator
    ) -> "PersistentCache":
        return cls(directory, estimator_fingerprint(estimator))

    @property
    def path(self) -> Path:
        """The backing database file."""
        return self.store.path

    def get(self, design: str, workload_key: WorkloadKey) -> Any:
        """The cached metrics (possibly ``None``), or :data:`MISS`."""
        digest = pair_digest(design, workload_key)
        with self._lock:
            return self._read_locked(digest)

    def _read_locked(self, digest: str) -> Any:
        """One entry, decoded on its first read and stored back, so
        each blob decodes at most once. A blob that fails to decode is
        a :data:`MISS` (the caller re-evaluates the pair) and flags the
        database for a rebuild at the next flush. Caller holds the
        lock."""
        value = self._entries.get(digest, MISS)
        if value.__class__ is not bytes:
            return value
        try:
            metrics = codec.decode_blob(value)
        except CacheError:
            del self._entries[digest]
            self.store.mark_unreadable()
            return MISS
        self._entries[digest] = metrics
        return metrics

    def get_many(
        self, pairs: "List[Tuple[str, WorkloadKey]]"
    ) -> List[Any]:
        """Cached metrics for each (design, workload key) pair, in
        order, with :data:`MISS` for absent entries.

        One lock acquisition serves the whole batch from memory; keys
        still missing are then probed against the database in one bulk
        query (it sees rows concurrent processes committed after our
        load). Store finds are folded into the
        in-memory view but *not* marked dirty — they are already on
        disk. Every entry decodes on its first read (see
        :meth:`get`)."""
        digests = [
            pair_digest(design, workload_key)
            for design, workload_key in pairs
        ]
        with self._lock:
            read = self._read_locked
            results = [read(d) for d in digests]
            missing = [
                digest
                for digest, value in zip(digests, results)
                if value is MISS
            ]
            if missing:
                found = self.store.get_many(missing)
                if found:
                    for digest, blob in found.items():
                        self._entries.setdefault(digest, blob)
                    results = [
                        read(d) if value is MISS else value
                        for d, value in zip(digests, results)
                    ]
        return results

    def put(
        self,
        design: str,
        workload_key: WorkloadKey,
        metrics: Optional[Metrics],
    ) -> None:
        digest = pair_digest(design, workload_key)
        with self._lock:
            self._entries[digest] = metrics
            self._dirty[digest] = metrics

    def put_many(
        self,
        entries: "List[Tuple[str, WorkloadKey, Optional[Metrics]]]",
    ) -> None:
        """Record a batch of entries under one lock acquisition.

        Equivalent to :meth:`put` per entry."""
        staged = [
            (pair_digest(design, workload_key), metrics)
            for design, workload_key, metrics in entries
        ]
        with self._lock:
            for digest, metrics in staged:
                self._entries[digest] = metrics
                self._dirty[digest] = metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def flush(self) -> None:
        """Persist entries added since the last flush."""
        with self._lock:
            self._flush_locked()

    def maybe_flush(self, min_interval: float) -> bool:
        """Flush, unless a flush already ran within the last
        ``min_interval`` seconds; returns whether a flush happened.

        The engine calls this after every evaluation batch: a run of
        many small batches (a network sweep is one batch per layer
        group) pays for one commit per interval instead of one per
        batch, while a crash still loses at most ``min_interval``
        of completed work — and only on hard kills, since every
        Python-level exit path funnels through :meth:`close`, which
        flushes unconditionally."""
        with self._lock:
            if not self._dirty:
                return False
            if time.monotonic() - self._last_flush < min_interval:
                return False
            self._flush_locked()
            return True

    def _flush_locked(self) -> None:
        if not self._dirty:
            return
        # No snapshot copies: the lock is held for the duration, and
        # the store reads ``entries`` only on corruption recovery, so
        # the flush stays O(dirty).
        self._entries = self.store.flush(self._entries, self._dirty)
        self._dirty.clear()
        self._last_flush = time.monotonic()

    def close(self) -> None:
        """Flush pending entries and release the database connection
        (the store reopens lazily, so a closed cache stays usable). The
        store is closed even when the final flush fails — a full disk
        must not leak the SQLite connection."""
        try:
            self.flush()
        finally:
            with self._lock:
                self.store.close()


# --- directory-level maintenance (stats / clear / merge) -----------------

#: Cache databases are named <16-hex-digit fingerprint>.db — the strict
#: pattern keeps ``cache clear``/``stats`` away from unrelated files
#: (run records, benchmark output) a user may keep in the same
#: directory.
_CACHE_FILE_RE = re.compile(r"^[0-9a-f]{16}\.db$")

#: Cache files left by older versions (the retired JSON store).
_LEGACY_FILE_RE = re.compile(r"^[0-9a-f]{16}\.json$")

#: Files that hold no usable entries but occupy space: databases set
#: aside by flush recovery and leftover JSON cache files. ``stats``
#: reports them as ``rotated`` and ``clear`` deletes them.
_ROTATED_FILE_RE = re.compile(
    r"^[0-9a-f]{16}\.(db\.(corrupt|stale)|json)$"
)


def _matching_files(
    directory: "str | Path", pattern: "re.Pattern[str]"
) -> Tuple[Path, ...]:
    root = Path(directory)
    if not root.is_dir():
        return ()
    return tuple(
        sorted(path for path in root.iterdir() if pattern.match(path.name))
    )


def cache_files(directory: "str | Path") -> Tuple[Path, ...]:
    """All cache databases under a directory."""
    return _matching_files(directory, _CACHE_FILE_RE)


def _count_entries(path: Path) -> int:
    """Best-effort entry count of one database (0 on corruption)."""
    try:
        conn = _sqlite_connect_ro(path)
        try:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()
            return int(count)
        finally:
            conn.close()
    except sqlite3.Error:
        return 0


def cache_stats(directory: "str | Path") -> Dict[str, Any]:
    """Aggregate statistics for ``repro cache stats``. A missing
    directory is an empty cache; a regular file in its place raises
    :class:`~repro.errors.CacheError`."""
    _require_directory(Path(directory))
    per_file = []
    total_entries = 0
    for path in cache_files(directory):
        entries = _count_entries(path)
        total_entries += entries
        per_file.append(
            {
                "file": path.name,
                "backend": "sqlite",
                "entries": entries,
                "bytes": path.stat().st_size,
            }
        )
    for path in _matching_files(directory, _ROTATED_FILE_RE):
        # No usable entries, but their bytes are real and ``clear``
        # reclaims them.
        per_file.append(
            {
                "file": path.name,
                "backend": "rotated",
                "entries": 0,
                "bytes": path.stat().st_size,
            }
        )
    return {
        "directory": str(directory),
        "files": per_file,
        "total_entries": total_entries,
    }


def _sidecar_files(path: Path) -> Tuple[Path, ...]:
    """A database's WAL/shared-memory companions (may not exist)."""
    return (
        path.with_name(path.name + "-wal"),
        path.with_name(path.name + "-shm"),
    )


def clear_cache(directory: "str | Path") -> int:
    """Delete all cache databases under ``directory``; returns the
    count (WAL sidecars, rotated ``.corrupt``/``.stale`` databases and
    leftover JSON cache files are removed but not counted). A regular
    file in the directory's place raises
    :class:`~repro.errors.CacheError`."""
    _require_directory(Path(directory))
    files = cache_files(directory)
    for path in files:
        path.unlink()
        for sidecar in _sidecar_files(path):
            sidecar.unlink(missing_ok=True)
    for path in _matching_files(directory, _ROTATED_FILE_RE):
        path.unlink()
    return len(files)


def _read_raw_entries(path: Path) -> Dict[str, Optional[bytes]]:
    """One database's entries as raw v2 blobs (``None`` for cached
    unsupported verdicts) — loud, unlike the best-effort runtime reads:
    merging should never silently drop a shard. The schema must be
    current, the fingerprint field is *required* and must match the
    file name, and a v1 JSON ``TEXT`` row is refused rather than copied
    forward.
    """
    try:
        conn = _sqlite_connect_ro(path)
    except sqlite3.Error as error:
        raise CacheError(f"cannot read cache file {path}: {error}")
    try:
        meta = _sqlite_meta(conn)
        rows = conn.execute("SELECT digest, metrics FROM entries").fetchall()
    except sqlite3.Error as error:
        raise CacheError(f"cannot read cache file {path}: {error}")
    finally:
        conn.close()
    schema = meta.get("schema_version")
    if schema != str(CACHE_SCHEMA_VERSION):
        raise CacheError(
            f"{path} has cache schema {schema!r}; this version "
            f"reads schema {CACHE_SCHEMA_VERSION}"
        )
    _require_fingerprint(path, meta.get("fingerprint"))
    for digest, value in rows:
        if value is not None and not isinstance(value, bytes):
            raise CacheError(
                f"{path} holds entry {digest} in the v1 format, which "
                f"this version does not read; delete the file and refill"
            )
    return dict(rows)


def _require_fingerprint(path: Path, fingerprint: Any) -> None:
    if fingerprint is None:
        raise CacheError(
            f"{path} is missing the fingerprint field; refusing to "
            f"treat an unidentified file as cache shard {path.stem!r}"
        )
    if fingerprint != path.stem:
        raise CacheError(
            f"{path} records fingerprint {fingerprint!r} "
            f"but is named {path.stem!r}"
        )


def _refuse_legacy_files(directory: "str | Path") -> None:
    legacy = _matching_files(directory, _LEGACY_FILE_RE)
    if legacy:
        raise _legacy_error(legacy[0])


def merge_cache_dirs(
    sources: "Tuple[str | Path, ...] | list",
    dest: "str | Path",
) -> Dict[str, Any]:
    """Merge the cache databases of ``sources`` into ``dest`` (one
    database).

    This is the fan-in step of a sharded grid fill: N ``repro sweep``
    processes each run a slice of the grid with their own
    ``--cache-dir`` against the *same* estimator, then
    their directories are merged into one warm cache. All source
    directories must therefore hold exactly one, identical estimator
    fingerprint — mixing fingerprints would silently interleave
    incompatible cost models, so it raises
    :class:`~repro.errors.CacheError` instead, as does any unreadable,
    stale-schema or misnamed database, a v1 row, and a leftover JSON
    cache file from an older version. Entries are content-keyed, so
    overlapping shards merge idempotently; existing ``dest`` entries of
    the same fingerprint are merged under the sources.

    Returns a summary dict (``fingerprint``, ``path``, per-source and
    total entry counts, how many were new to ``dest``).
    """
    per_dir: Dict[str, Tuple[Path, ...]] = {}
    for source in sources:
        _refuse_legacy_files(source)
        files = cache_files(source)
        if not files:
            raise CacheError(
                f"no cache files under {source} (expected "
                f"<fingerprint>.db; is this a --cache-dir?)"
            )
        per_dir[str(source)] = files
    fingerprints = {
        path.stem for files in per_dir.values() for path in files
    }
    if len(fingerprints) != 1:
        detail = "; ".join(
            f"{source}: {', '.join(path.stem for path in files)}"
            for source, files in per_dir.items()
        )
        raise CacheError(
            f"refusing to merge caches with mismatched estimator "
            f"fingerprints ({detail}); merge shards produced by the "
            f"same estimator, one fingerprint per directory"
        )
    fingerprint = fingerprints.pop()
    _refuse_legacy_files(dest)
    merged: Dict[str, Optional[bytes]] = {}
    source_counts: Dict[str, int] = {}
    for source, (path,) in per_dir.items():
        entries = _read_raw_entries(path)
        source_counts[source] = len(entries)
        merged.update(entries)
    dest_db = Path(dest) / f"{fingerprint}.db"
    existing = _read_raw_entries(dest_db) if dest_db.is_file() else {}
    for digest, entry in existing.items():
        merged.setdefault(digest, entry)
    conn = _sqlite_connect_rw(dest_db, fingerprint)
    try:
        conn.executemany(_UPSERT, list(merged.items()))
        conn.commit()
    finally:
        conn.close()
    return {
        "fingerprint": fingerprint,
        "path": str(dest_db),
        "sources": source_counts,
        "total_entries": len(merged),
        "new_entries": len(merged) - len(existing),
    }
