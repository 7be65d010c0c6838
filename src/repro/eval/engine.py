"""The batched sweep engine: declarative work, memoized workloads,
optional parallel execution, optional persistent caching.

Experiments declare *what* to evaluate and the :class:`SweepEngine`
decides *how*. The unit of memoization is a **(design, workload) pair**
keyed by the workload's canonical content key
(:meth:`~repro.model.workload.MatmulWorkload.key`): the synthetic
Fig. 13/14/16 degree grids, the Fig. 2/15 network sweeps, and arbitrary
user workloads all deduplicate against one cache. A degree-grid
:class:`Cell` is a thin adapter on top — the engine realizes each cell
into its candidate workloads (Sec. 7.1 rules) and picks the best, so
repeated shapes deduplicate *across* cells, degrees, and labels (every
dense layer of a network sweep is evaluated once, not once per
weight-sparsity point).

Every cache miss is costed by its design's
:meth:`~repro.accelerators.base.AcceleratorDesign.evaluate` (through
the harness's support/orientation rule), one pair at a time. Engines
are shared per estimator (see :meth:`SweepEngine.shared`), the
in-memory cache is thread-safe with exactly-once evaluation even under
concurrent batches, and a :class:`~repro.eval.cache.PersistentCache`
extends memoization across runs. Workers can be threads (default) or
processes (``backend="process"`` — the cost models are pure and
pickleable). The models are pure Python, so threads overlap little of
the model work (they hold the GIL); processes run it in parallel but
pay spawn and pickling costs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.accelerators import REGISTRY, main_design_names
from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.registry import DesignRegistry
from repro.energy.estimator import Estimator
from repro.errors import EvaluationError
from repro.eval import cache as cache_mod
from repro.eval.harness import (
    best_metrics,
    evaluate_workload,
    realize_workloads,
)
from repro.model.metrics import Metrics
from repro.model.workload import MatmulWorkload, WorkloadKey
from repro.utils import geomean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eval.queue import JobStore

#: The paper's synthetic Fig. 13 sparsity grid.
DEFAULT_A_DEGREES: Tuple[float, ...] = (0.0, 0.5, 0.75)
DEFAULT_B_DEGREES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)

#: The geomean-able sweep metrics (Fig. 14's bars, run-record
#: geomeans, payloads, and the CLI's --metric choices).
GEOMEAN_METRICS: Tuple[str, ...] = ("edp", "energy_pj", "cycles", "ed2")

#: (design name, workload content key) — the memoization key.
PairKey = Tuple[str, WorkloadKey]

#: One unit of engine work: a design name on one concrete workload.
Pair = Tuple[str, MatmulWorkload]

#: Supported worker backends.
BACKENDS = ("thread", "process")

#: Pairs per task the process backend pickles to a worker, so a large
#: miss set does not pay one round trip per pair.
PROCESS_CHUNKSIZE = 256


@dataclass(frozen=True)
class Cell:
    """One degree-grid sweep point: a design name on one
    (sparsity_A, sparsity_B, shape) workload point. Memoization happens
    at the realized-workload level (degree noise is absorbed by
    :func:`~repro.model.workload.quantize_degree` inside the workload
    keys), so cells carry no cache key of their own."""

    design: str
    sparsity_a: float
    sparsity_b: float
    m: int = 1024
    k: int = 1024
    n: int = 1024

    def realize(self) -> List[MatmulWorkload]:
        """The cell's candidate workload realizations (Sec. 7.1)."""
        return realize_workloads(
            self.design, self.sparsity_a, self.sparsity_b,
            self.m, self.k, self.n,
        )


@dataclass
class EngineStats:
    """Cache behavior counters, cumulative over an engine's lifetime.

    One *request* is one (design, workload) evaluation ask. ``hits``
    are served from the in-memory cache (including duplicates within a
    batch), ``disk_hits`` from the persistent cache, and ``misses``
    cost one actual model evaluation each.

    Counters are scoped with the checkpoint/delta API rather than by
    resetting: :meth:`snapshot` freezes a point-in-time copy and
    :meth:`delta_since` subtracts one — so any span of work (one
    artifact of a ``repro all`` run, say) gets its own counters while
    the cumulative totals stay intact for everyone else reading them.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def evaluations(self) -> int:
        """Actual cost-model evaluations performed (= misses)."""
        return self.misses

    def snapshot(self) -> "EngineStats":
        """A frozen point-in-time copy (a checkpoint to delta against)."""
        return EngineStats(
            hits=self.hits, misses=self.misses, disk_hits=self.disk_hits
        )

    def delta_since(self, checkpoint: "EngineStats") -> "EngineStats":
        """The counters accumulated since ``checkpoint`` was taken."""
        return EngineStats(
            hits=self.hits - checkpoint.hits,
            misses=self.misses - checkpoint.misses,
            disk_hits=self.disk_hits - checkpoint.disk_hits,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evaluations": self.evaluations,
            "requests": self.requests,
        }


@dataclass(frozen=True)
class WorkerBatch:
    """One completed claim→evaluate→complete cycle of
    :meth:`SweepEngine.run_queue`.

    ``stats`` is the engine's counter delta scoped to this batch:
    ``stats.evaluations`` counts the actual model evaluations the batch
    cost (cells whose results were reclaimed after a crash show up as
    ``disk_hits`` instead — that sum staying equal to the cell count is
    the exactly-once property).
    """

    index: int
    worker_id: str
    digests: Tuple[str, ...]
    #: Rows that transitioned to done; fewer than ``claimed`` means
    #: another worker stole some leases mid-batch (their results still
    #: landed in the cache, so the thief completes them as disk hits).
    completed: int
    stats: EngineStats

    @property
    def claimed(self) -> int:
        return len(self.digests)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "completed": self.completed,
            "stats": self.stats.as_dict(),
        }


@dataclass
class SweepResult:
    """Per-cell metrics for every design over a sparsity sweep."""

    cells: Dict[Tuple[float, float], Dict[str, Optional[Metrics]]]
    design_order: Tuple[str, ...]
    baseline: str = "TC"

    def normalized(self, metric: str) -> Dict[
        Tuple[float, float], Dict[str, Optional[float]]
    ]:
        """Per-cell design/baseline ratios for ``metric``."""
        out: Dict[Tuple[float, float], Dict[str, Optional[float]]] = {}
        for cell, per_design in self.cells.items():
            base = per_design[self.baseline]
            if base is None:
                raise EvaluationError(f"baseline missing for cell {cell}")
            row: Dict[str, Optional[float]] = {}
            for design, metrics in per_design.items():
                row[design] = (
                    None
                    if metrics is None
                    else getattr(metrics, metric) / getattr(base, metric)
                )
            out[cell] = row
        return out

    def geomeans(
        self, metric: str, unsupported_as_baseline: bool = True
    ) -> Dict[str, float]:
        """Geomean of normalized ``metric`` per design (Fig. 14).

        Cells a design cannot process (S2TA on dense-dense) count at
        baseline parity by default — otherwise a design would improve
        its geomean by *failing* on its worst workloads.
        """
        normalized = self.normalized(metric)
        out: Dict[str, float] = {}
        for design in self.design_order:
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

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-ready structured view of this sweep: one row per
        (cell, design) with raw metrics, plus per-design geomeans when
        the baseline covers the whole grid."""
        rows: List[Dict[str, Any]] = []
        for (sparsity_a, sparsity_b), per_design in sorted(
            self.cells.items()
        ):
            for design in self.design_order:
                metrics = per_design[design]
                row: Dict[str, Any] = {
                    "design": design,
                    "sparsity_a": sparsity_a,
                    "sparsity_b": sparsity_b,
                }
                if metrics is None:
                    row.update(
                        cycles=None, energy_pj=None, edp=None,
                        utilization=None, supported=False, swapped=None,
                    )
                else:
                    row.update(
                        cycles=metrics.cycles,
                        energy_pj=metrics.energy_pj,
                        edp=metrics.edp,
                        utilization=metrics.utilization,
                        supported=metrics.supported,
                        swapped=metrics.swapped,
                    )
                rows.append(row)
        payload: Dict[str, Any] = {
            "designs": list(self.design_order),
            "baseline": self.baseline,
            "rows": rows,
        }
        try:
            payload["geomeans"] = {
                metric: self.geomeans(metric)
                for metric in GEOMEAN_METRICS
            }
        except EvaluationError:
            pass  # baseline absent from a cell: raw metrics only
        return payload

    def gain_over(
        self, other_design: str, metric: str = "edp",
        target: str = "HighLight",
    ) -> Tuple[float, float]:
        """(geomean, max) of other/target ratios over shared cells."""
        normalized = self.normalized(metric)
        ratios = []
        for row in normalized.values():
            ours = row[target]
            theirs = row[other_design]
            if ours is None or theirs is None:
                continue
            ratios.append(theirs / ours)
        if not ratios:
            raise EvaluationError(
                f"no shared cells between {target} and {other_design}"
            )
        return geomean(ratios), max(ratios)


def grid_cells(
    designs: Sequence[str],
    a_degrees: Sequence[float],
    b_degrees: Sequence[float],
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
) -> List[Cell]:
    """The dense cell grid, A-major then B then design (sweep order)."""
    return [
        Cell(design, sparsity_a, sparsity_b, m, k, n)
        for sparsity_a in a_degrees
        for sparsity_b in b_degrees
        for design in designs
    ]


# --- process-backend worker side ---------------------------------------
#
# Workers receive (design name, workload) pairs; designs are
# instantiated per process from the global registry. The estimator is
# *rebuilt* in each worker from its table + plug-ins (plain, picklable
# data) rather than pickled whole — a used estimator carries the shared
# engine (locks, events) as an attribute, which spawn-based platforms
# cannot pickle.

_WORKER_STATE: Dict[str, object] = {}


def _init_worker(table, plugins) -> None:
    _WORKER_STATE["estimator"] = Estimator(table=table, plugins=plugins)
    _WORKER_STATE["designs"] = {}


def _evaluate_pair_in_worker(pair: Pair) -> Optional[Metrics]:
    design_name, workload = pair
    designs: Dict[str, AcceleratorDesign] = _WORKER_STATE["designs"]
    if design_name not in designs:
        designs[design_name] = REGISTRY.create(design_name)
    return evaluate_workload(
        designs[design_name], workload, _WORKER_STATE["estimator"]
    )


class SweepEngine:
    """Memoizing, optionally parallel executor for (design, workload)
    pairs.

    One engine owns one :class:`Estimator` (so every workload is costed
    from identical technology assumptions), one in-memory pair cache,
    and optionally one persistent on-disk cache. Results are
    deterministic and independent of ``jobs``/``backend``: pairs are
    evaluated by pure analytical models and returned in request order.
    All shared state is lock-guarded; a pair requested by several
    threads concurrently is still evaluated exactly once.
    """

    #: Attribute under which the shared engine rides on its estimator,
    #: so engine + cache lifetimes are exactly the estimator's.
    _SHARED_ATTR = "_shared_sweep_engine"

    #: Fields shared across threads, touched only under ``self._lock``
    #: — machine-checked by ``repro lint`` (REP001 lock-discipline);
    #: methods named ``*_locked`` are called with the lock already
    #: held. Add any new shared field here, not just to __init__.
    _lock_guarded = frozenset({
        "stats",
        "_cache",
        "_inflight",
        "_instances",
        "_process_pool",
        "_thread_pool",
        "_thread_pool_jobs",
    })

    def __init__(
        self,
        estimator: Optional[Estimator] = None,
        jobs: int = 1,
        registry: Optional[DesignRegistry] = None,
        backend: str = "thread",
        cache: Optional[cache_mod.PersistentCache] = None,
    ) -> None:
        if jobs < 1:
            raise EvaluationError(f"jobs must be >= 1, got {jobs}")
        if backend not in BACKENDS:
            raise EvaluationError(
                f"unknown backend {backend!r}; supported: "
                f"{', '.join(BACKENDS)}"
            )
        self.estimator = estimator if estimator is not None else Estimator()
        self.jobs = jobs
        self.registry = registry if registry is not None else REGISTRY
        if backend == "process" and self.registry is not REGISTRY:
            raise EvaluationError(
                "the process backend reconstructs designs from the "
                "global registry; custom registries need backend='thread'"
            )
        self.backend = backend
        self.persistent = cache
        #: Minimum seconds between end-of-batch persistent-cache
        #: flushes (``close()`` and the failure path always flush).
        #: 0 restores the old flush-every-batch behavior.
        self.flush_interval = 5.0
        self.stats = EngineStats()
        self._cache: Dict[PairKey, Optional[Metrics]] = {}
        # A claimed-but-unfinished key maps to None until some
        # other caller actually needs to wait on it; the Event is
        # materialized lazily (most sweep misses never get a
        # concurrent waiter, and Event construction is pure cost).
        self._inflight: Dict[PairKey, Optional[threading.Event]] = {}
        self._lock = threading.Lock()
        self._instances: Dict[str, AcceleratorDesign] = {}
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._thread_pool_jobs = 0

    @classmethod
    def shared(cls, estimator: Optional[Estimator] = None) -> "SweepEngine":
        """The engine bound to ``estimator`` (created on first use).

        With no estimator a fresh, unshared engine is returned —
        matching the old "each call builds its own Estimator" behavior.
        """
        if estimator is None:
            return cls()
        engine = getattr(estimator, cls._SHARED_ATTR, None)
        if engine is None:
            engine = cls(estimator)
            setattr(estimator, cls._SHARED_ATTR, engine)
        return engine

    def attach_cache(self, cache: cache_mod.PersistentCache) -> None:
        """Back this engine with a persistent on-disk cache."""
        self.persistent = cache

    def checkpoint(self) -> EngineStats:
        """A consistent point-in-time copy of the cumulative stats.

        Counters mutate under the engine lock, so the copy is taken
        under it too — a checkpoint never observes a half-recorded
        batch from a concurrent caller.
        """
        with self._lock:
            return self.stats.snapshot()

    def stats_since(self, checkpoint: EngineStats) -> EngineStats:
        """The cache counters accumulated since ``checkpoint``."""
        with self._lock:
            return self.stats.delta_since(checkpoint)

    def design(self, name: str) -> AcceleratorDesign:
        """The engine's instance of a registered design (one per name;
        designs are stateless so instances are shared process-wide via
        the registry — rebuilding arch specs per engine was measurable
        in sweep setup)."""
        with self._lock:
            if name not in self._instances:
                self._instances[name] = self.registry.shared(name)
            return self._instances[name]

    def _evaluate_pair(self, pair: Pair) -> Optional[Metrics]:
        design_name, workload = pair
        return evaluate_workload(
            self.design(design_name), workload, self.estimator
        )

    def _worker_pool(self) -> ProcessPoolExecutor:
        """The engine's lazily created process pool, reused across
        batches so worker spawn + estimator transfer are paid once.
        Creation is lock-guarded: concurrent cold callers must share
        one pool, not leak one."""
        with self._lock:
            if self._process_pool is None:
                self._process_pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=(
                        self.estimator.table, self.estimator._plugins
                    ),
                )
            return self._process_pool

    def _thread_worker_pool(self) -> ThreadPoolExecutor:
        """The engine's lazily created thread pool, reused across
        batches (mirroring the cached process pool) and rebuilt only
        when ``jobs`` changes. A stale pool is shut down without
        waiting, outside the lock: its already-submitted work still
        runs to completion (so a concurrent caller iterating its map
        is unaffected), and waiting under the lock could deadlock
        against workers calling :meth:`design`."""
        stale: Optional[ThreadPoolExecutor] = None
        with self._lock:
            if (
                self._thread_pool is not None
                and self._thread_pool_jobs != self.jobs
            ):
                stale, self._thread_pool = self._thread_pool, None
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.jobs
                )
                self._thread_pool_jobs = self.jobs
            pool = self._thread_pool
        if stale is not None:
            stale.shutdown(wait=False)
        return pool

    def flush(self) -> None:
        """Flush the persistent cache (if any) unconditionally.

        In-batch flushes are debounced (:attr:`flush_interval`);
        callers that just finished a logical unit of work — an
        artifact run, a CLI command — call this to make it durable
        without tearing down worker pools like :meth:`close` does.
        """
        if self.persistent is not None:
            self.persistent.flush()

    def close(self) -> None:
        """Flush the persistent cache and release worker pools.

        Safe to call repeatedly, and the engine stays usable afterwards
        (pools and the cache's backing store reopen lazily). The CLI
        calls this on every exit path so an interrupt mid-grid still
        persists every completed evaluation (results are recorded
        incrementally in :meth:`evaluate_workloads` and flushed there
        at most every :attr:`flush_interval` seconds; this close — and
        the in-batch failure path — flush unconditionally; queued
        work that never started is cancelled, not drained).
        """
        try:
            if self.persistent is not None:
                self.persistent.close()
        finally:
            # Pools must come down even when the flush fails (disk
            # full, lock contention) — and on Ctrl-C, a flush error
            # must not bury the KeyboardInterrupt with lingering
            # worker processes.
            with self._lock:
                process, self._process_pool = self._process_pool, None
                thread, self._thread_pool = self._thread_pool, None
            if process is not None:
                process.shutdown(cancel_futures=True)
            if thread is not None:
                thread.shutdown(cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter exit
        try:
            self.close()
        except Exception:
            pass

    def _run_batch(self, pending: List[Pair]):
        """Results for ``pending``, yielded lazily in order as they
        complete (``Executor.map`` streams in submission order), so the
        caller can record and persist each one before the next — an
        interrupt mid-batch keeps everything already evaluated (on the
        process backend, every completed chunk of
        :data:`PROCESS_CHUNKSIZE` pairs)."""
        if self.jobs > 1 and len(pending) > 1:
            if self.backend == "process":
                return self._worker_pool().map(
                    _evaluate_pair_in_worker, pending,
                    chunksize=PROCESS_CHUNKSIZE,
                )
            return self._thread_worker_pool().map(
                self._evaluate_pair, pending
            )
        return (self._evaluate_pair(pair) for pair in pending)

    def _wait_event_locked(self, key: "PairKey") -> threading.Event:
        """The Event a caller must wait on for an in-flight key,
        materializing it on first demand. Caller holds the lock."""
        event = self._inflight[key]
        if event is None:
            event = threading.Event()
            self._inflight[key] = event
        return event

    def _claim_unknown_locked(
        self,
        unknown: Dict[PairKey, Pair],
        probed: List[Any],
        own: Dict[PairKey, Pair],
        waits: Dict[PairKey, threading.Event],
    ) -> None:
        """Resolve keys absent from the in-memory cache at phase 1:
        fill disk hits, adopt concurrent fills, claim true misses.
        Caller holds the engine lock (it was *released* around the
        disk probe, so another thread may have resolved a key since)."""
        for (key, pair), cached in zip(unknown.items(), probed):
            if key in self._cache:
                self.stats.hits += 1
            elif key in self._inflight:
                waits[key] = self._wait_event_locked(key)
                self.stats.hits += 1
            elif cached is not cache_mod.MISS:
                self._cache[key] = cached
                self.stats.disk_hits += 1
            else:
                # Evaluate the stripped (label-free) workload so the
                # cached Metrics (whose `workload` string comes from
                # describe()) are content-derived, not named after
                # whichever caller asked first.
                design, workload = pair
                own[key] = (design, workload.stripped)
                self._inflight[key] = None
                self.stats.misses += 1

    def evaluate_workloads(
        self, pairs: Sequence[Pair]
    ) -> List[Optional[Metrics]]:
        """Metrics for each (design name, workload) pair, in order.

        Repeats — within the batch, across batches, across concurrent
        callers, and (with a persistent cache) across runs — are served
        from cache; each unique pair is evaluated exactly once. The
        persistent cache is probed in one bulk :meth:`~repro.eval.cache
        .PersistentCache.get_many` *outside* the engine lock, so a
        large cold batch never stalls concurrent callers on disk I/O.
        """
        keys: List[PairKey] = [
            (design, workload.key()) for design, workload in pairs
        ]
        own: Dict[PairKey, Pair] = {}
        waits: Dict[PairKey, threading.Event] = {}
        unknown: Dict[PairKey, Pair] = {}
        with self._lock:
            for key, pair in zip(keys, pairs):
                if key in unknown:
                    # Duplicate within the batch: resolved whichever
                    # way its first occurrence goes.
                    self.stats.hits += 1
                elif key in self._cache:
                    self.stats.hits += 1
                elif key in self._inflight:
                    waits[key] = self._wait_event_locked(key)
                    self.stats.hits += 1
                else:
                    unknown[key] = pair
            if unknown and self.persistent is None:
                self._claim_unknown_locked(
                    unknown, [cache_mod.MISS] * len(unknown), own, waits
                )
                unknown = {}
        if unknown:
            probed = self.persistent.get_many(list(unknown))
            with self._lock:
                self._claim_unknown_locked(unknown, probed, own, waits)
        if own:
            try:
                # Record each pair as it completes rather than after
                # the whole batch: a Ctrl-C at 90% of a grid must keep
                # the 90%, and a whole grid is typically one batch.
                for key, metrics in zip(
                    own, self._run_batch(list(own.values()))
                ):
                    with self._lock:
                        self._cache[key] = metrics
                        if self.persistent is not None:
                            self.persistent.put_many(
                                [(key[0], key[1], metrics)]
                            )
                        event = self._inflight.pop(key)
                        if event is not None:
                            event.set()
            except BaseException:
                with self._lock:
                    for key in own:
                        event = self._inflight.pop(key, None)
                        if event is not None:
                            event.set()
                # Persist everything that did complete before
                # propagating — the interrupt-durability path.
                if self.persistent is not None:
                    try:
                        self.persistent.flush()
                    except Exception:
                        pass
                raise
            # Disk I/O stays outside the engine lock (the cache has its
            # own); other threads keep hitting the in-memory cache
            # while it flushes. Debounced: a sweep of many quick
            # batches persists once per flush_interval (and
            # unconditionally at close / on the failure path above)
            # instead of committing per batch.
            if self.persistent is not None:
                self.persistent.maybe_flush(self.flush_interval)
        for event in waits.values():
            event.wait()
        with self._lock:
            try:
                return [self._cache[key] for key in keys]
            except KeyError:
                raise EvaluationError(
                    "a concurrent evaluation of a shared workload failed"
                )

    def evaluate_cells(
        self, cells: Sequence[Cell]
    ) -> List[Optional[Metrics]]:
        """Best-candidate metrics for each degree-grid cell, in order.

        Each cell is realized into its per-design candidate workloads
        (both orientations where the Sec. 7.1 rules allow a swap) and
        every candidate is routed through the workload-level cache, so
        equal realizations are shared across cells and designs.
        """
        pairs: List[Pair] = []
        spans: List[int] = []
        for cell in cells:
            candidates = cell.realize()
            spans.append(len(candidates))
            pairs.extend((cell.design, wl) for wl in candidates)
        flat = iter(self.evaluate_workloads(pairs))
        return [
            best_metrics([next(flat) for _ in range(span)])
            for span in spans
        ]

    def sweep(
        self,
        designs: Optional[Sequence[str]] = None,
        a_degrees: Sequence[float] = DEFAULT_A_DEGREES,
        b_degrees: Sequence[float] = DEFAULT_B_DEGREES,
        m: int = 1024,
        k: int = 1024,
        n: int = 1024,
        baseline: Optional[str] = None,
    ) -> SweepResult:
        """Run a full design x degree grid and structure the result.

        ``designs`` defaults to the main-evaluation five; ``baseline``
        defaults to ``"TC"`` when present, else the first design.
        """
        names = tuple(designs) if designs else main_design_names()
        for name in names:
            if name not in self.registry:
                raise KeyError(
                    f"unknown design {name!r}; registered: "
                    f"{', '.join(self.registry.names())}"
                )
        cells = grid_cells(names, a_degrees, b_degrees, m, k, n)
        results = iter(self.evaluate_cells(cells))
        table: Dict[Tuple[float, float], Dict[str, Optional[Metrics]]] = {}
        for sparsity_a in a_degrees:
            for sparsity_b in b_degrees:
                table[(sparsity_a, sparsity_b)] = {
                    name: next(results) for name in names
                }
        if baseline is None:
            baseline = "TC" if "TC" in names else names[0]
        return SweepResult(
            cells=table, design_order=names, baseline=baseline
        )

    def run_queue(
        self,
        store: "JobStore",
        worker_id: Optional[str] = None,
        batch_size: Optional[int] = None,
        lease_s: Optional[float] = None,
        poll_s: float = 1.0,
        max_batches: Optional[int] = None,
        heartbeat: bool = True,
    ) -> Iterator[WorkerBatch]:
        """Drain a :class:`~repro.eval.queue.JobStore`: the worker loop.

        The claim-driven sibling of :meth:`evaluate_workloads` — instead
        of being handed pairs, the engine claims batches of cells from
        ``store`` until the queue drains, routing each batch through the
        normal memoized evaluation path and yielding a
        :class:`WorkerBatch` (with per-batch stats) as each completes.

        Per batch: claim → start lease heartbeat → evaluate → stop
        heartbeat → **flush the persistent cache → mark done**, in that
        order. The flush-before-complete ordering is the crash-recovery
        contract: a worker that dies between the two leaves cells
        claimed-but-durable, and whoever reclaims them after lease
        expiry gets disk hits, not re-evaluations. On an evaluation
        error the batch is marked failed (with the error text) and the
        exception propagates; on ``KeyboardInterrupt`` the exception
        propagates with the cells still claimed — callers that want an
        immediate handback (the CLI does) call ``store.release()``,
        otherwise the lease expires and recovery proceeds as for a
        crash.

        An empty claim with other workers' live claims outstanding
        sleeps ``poll_s`` and retries (those cells may yet fail or go
        stale); the loop exits when nothing is pending or claimed.
        ``max_batches`` bounds the loop for tests and bounded shifts.
        """
        from repro.eval import queue as queue_mod

        if self.persistent is None:
            raise EvaluationError(
                "run_queue needs a persistent cache attached to the "
                "engine: queue results must be durable before cells "
                "are marked done"
            )
        if worker_id is None:
            worker_id = queue_mod.default_worker_id()
        if batch_size is None:
            batch_size = queue_mod.DEFAULT_BATCH_SIZE
        if lease_s is None:
            lease_s = queue_mod.DEFAULT_LEASE_S
        beat = (
            queue_mod.LeaseHeartbeat(store, worker_id, lease_s)
            if heartbeat
            else None
        )
        batches = 0
        try:
            while max_batches is None or batches < max_batches:
                jobs = store.claim_batch(
                    worker_id, limit=batch_size, lease_s=lease_s
                )
                if not jobs:
                    if store.stats().remaining == 0:
                        break
                    # Another worker holds live claims; they may still
                    # fail or go stale, so poll rather than exit.
                    time.sleep(poll_s)
                    continue
                digests = [job.digest for job in jobs]
                mark = self.checkpoint()
                if beat is not None:
                    beat.start(digests)
                try:
                    self.evaluate_workloads([job.pair for job in jobs])
                except Exception as error:
                    if beat is not None:
                        beat.stop()
                    try:
                        self.flush()
                    except Exception:
                        pass
                    store.fail(
                        worker_id,
                        digests,
                        f"{type(error).__name__}: {error}",
                    )
                    raise
                if beat is not None:
                    beat.stop()
                self.flush()
                completed = store.complete(worker_id, digests)
                batches += 1
                yield WorkerBatch(
                    index=batches,
                    worker_id=worker_id,
                    digests=tuple(digests),
                    completed=completed,
                    stats=self.stats_since(mark),
                )
        finally:
            if beat is not None:
                beat.stop()


@dataclass
class EngineContext:
    """Everything an experiment needs to evaluate workloads.

    One context wraps one :class:`SweepEngine` (which owns the
    estimator, the jobs/backend execution policy, and any attached
    persistent cache) plus invocation-level settings such as the run
    record destination. The CLI constructs a context once per
    invocation and threads it through every experiment, so all
    artifacts/sweeps of a run share a single memoization domain.

    Experiments accept looser inputs for convenience — ``None``, a bare
    :class:`~repro.energy.estimator.Estimator`, or a
    :class:`SweepEngine` — and normalize them via :meth:`coerce`.
    """

    engine: SweepEngine
    #: Where the CLI writes this invocation's run record (``--record``).
    record_path: Optional[str] = None

    @property
    def estimator(self) -> Estimator:
        return self.engine.estimator

    @property
    def jobs(self) -> int:
        return self.engine.jobs

    @property
    def backend(self) -> str:
        return self.engine.backend

    @property
    def cache_dir(self) -> Optional[str]:
        """The persistent cache directory, when one is attached."""
        if self.engine.persistent is None:
            return None
        return str(self.engine.persistent.directory)

    @classmethod
    def create(
        cls,
        estimator: Optional[Estimator] = None,
        jobs: int = 1,
        backend: str = "thread",
        cache_dir: "Optional[str]" = None,
        record: Optional[str] = None,
    ) -> "EngineContext":
        """Build a context from invocation settings (the CLI path).

        A cache that cannot open (``cache_dir`` is a file, or holds a
        leftover cache from an older version) raises
        :class:`~repro.errors.CacheError` before any work."""
        engine = SweepEngine(estimator, jobs=jobs, backend=backend)
        if cache_dir is not None:
            engine.attach_cache(
                cache_mod.PersistentCache.for_estimator(
                    cache_dir, engine.estimator
                )
            )
        return cls(engine=engine, record_path=record)

    @classmethod
    def coerce(cls, ctx: "ContextLike") -> "EngineContext":
        """Normalize any accepted context-like value.

        ``None`` yields a fresh single-use context; an ``Estimator``
        yields the context of its shared engine (so repeated calls on
        one estimator keep deduplicating); engines and contexts pass
        through.
        """
        if ctx is None:
            return cls(engine=SweepEngine())
        if isinstance(ctx, EngineContext):
            return ctx
        if isinstance(ctx, SweepEngine):
            return cls(engine=ctx)
        if isinstance(ctx, Estimator):
            return cls(engine=SweepEngine.shared(ctx))
        raise EvaluationError(
            f"cannot build an EngineContext from {type(ctx).__name__}; "
            f"pass an EngineContext, SweepEngine, Estimator, or None"
        )

    def close(self) -> None:
        """Flush and close the wrapped engine.

        Idempotent and reentrant-friendly, like
        :meth:`SweepEngine.close`: double-close (a ``finally:`` block
        racing a signal-driven shutdown hook both tearing down the same
        context) is a no-op the second time, never an error, and the
        engine stays usable afterwards (pools and the cache store
        reopen lazily).
        """
        self.engine.close()

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: What experiments accept where a context is expected.
ContextLike = Union[None, EngineContext, SweepEngine, Estimator]
