"""The batched sweep engine: declarative work, memoized workloads,
optional persistent caching.

Experiments declare *what* to evaluate and the :class:`SweepEngine`
decides *how*. The unit of memoization is a **(design, workload) pair**
keyed by the workload's canonical content key
(:meth:`~repro.model.workload.MatmulWorkload.key`): the synthetic
Fig. 13/14/16 degree grids, the Fig. 2/15 network sweeps, and arbitrary
user workloads all deduplicate against one cache.

Degree-grid points and network layers are both :class:`Cell` objects
and take one route (Sec. 7.1.1): :meth:`SweepEngine.key_cells` has
each cell's design realize it into candidates and keys them without
building workloads, and :meth:`SweepEngine.evaluate_keyed` evaluates
the keys and keeps each cell's lowest-EDP candidate
(:func:`best_metrics`).
Repeated shapes therefore deduplicate *across* cells, degrees and
designs (every dense layer of a network sweep is evaluated once, not
once per weight-sparsity point).

Every cache miss is costed by :func:`evaluate_workload` (its design's
:meth:`~repro.accelerators.base.AcceleratorDesign.evaluate`, or
``None`` where the design does not support the candidate), one pair at
a time, serially in the calling thread: an analytical evaluation is a
pure-Python call of tens of microseconds, cheaper than handing it to a
worker pool.
Engines are shared per estimator (see :meth:`SweepEngine.shared`), the
in-memory cache is thread-safe with exactly-once evaluation even under
concurrent callers (``repro serve`` calls one engine from several
executor threads), and a :class:`~repro.eval.cache.PersistentCache`
extends memoization across runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.accelerators import REGISTRY, main_design_names
from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.realization import Candidate
from repro.accelerators.registry import DesignRegistry
from repro.energy.estimator import Estimator
from repro.errors import EvaluationError, UnsupportedWorkloadError
from repro.eval import cache as cache_mod
from repro.model.metrics import GEOMEAN_METRICS, Metrics
from repro.model.workload import MatmulWorkload, WorkloadKey
from repro.utils import geomean

#: The paper's synthetic Fig. 13 sparsity grid.
DEFAULT_A_DEGREES: Tuple[float, ...] = (0.0, 0.5, 0.75)
DEFAULT_B_DEGREES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)

#: (design name, workload content key) — the memoization key.
PairKey = Tuple[str, WorkloadKey]

#: One unit of engine work: a design name on one concrete workload.
Pair = Tuple[str, MatmulWorkload]

#: What a true miss builds its workload from: the caller's workload
#: (:meth:`SweepEngine.evaluate_workloads`), or a design's realization
#: candidate (A, B, swapped), in its pair key's orientation
#: (:meth:`SweepEngine.key_cells`).
MissSource = Union[MatmulWorkload, Candidate]


class Cell(NamedTuple):
    """One sweep point: a design name on one (sparsity_A, sparsity_B,
    shape) workload point — a degree-grid cell, or one network layer
    (weights as A, activations as B). Memoization happens at the
    realized-workload level (degree noise is absorbed by
    :func:`~repro.model.workload.quantize_degree` inside the workload
    keys), so cells carry no cache key of their own. A named tuple, not
    a frozen dataclass: a grid builds one per (design, A, B) point, and
    a tuple is a third of the cost to build."""

    design: str
    sparsity_a: float
    sparsity_b: float
    m: int = 1024
    k: int = 1024
    n: int = 1024


class KeyedCells(NamedTuple):
    """:meth:`SweepEngine.key_cells`' output for a cell list: every
    candidate's pair key and miss source, flat and in cell order, plus
    each cell's candidate count. Read-only once built, so a caller may
    keep one and evaluate it again (network sweeps memoize theirs)."""

    keys: List[PairKey]
    sources: List[MissSource]
    spans: List[int]


def evaluate_workload(
    design: AcceleratorDesign,
    workload: MatmulWorkload,
    estimator: Estimator,
) -> Optional[Metrics]:
    """Metrics for one (design, workload) pair as given — no operand
    swap, no candidate selection — or ``None`` when the design cannot
    process the workload. This is the engine's unit of memoization."""
    if not design.supports(workload):
        return None
    return design.evaluate(workload, estimator)


def best_metrics(
    candidates: Sequence[Optional[Metrics]],
) -> Optional[Metrics]:
    """The paper's selection rule over a cell's candidate realizations:
    lowest EDP wins, first candidate wins ties, all-unsupported is
    ``None``."""
    best: Optional[Metrics] = None
    for metrics in candidates:
        if metrics is None:
            continue
        if best is None or metrics.edp < best.edp:
            best = metrics
    return best


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


@dataclass
class SweepResult:
    """Per-cell metrics for every design over a sparsity sweep."""

    cells: Dict[Tuple[float, float], Dict[str, Optional[Metrics]]]
    design_order: Tuple[str, ...]
    baseline: str = "TC"
    #: :meth:`_all_geomeans` per ``unsupported_as_baseline`` flag.
    _geomeans: Dict[bool, Dict[str, Dict[str, float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
        """Geomean of normalized ``metric`` (one of
        :data:`GEOMEAN_METRICS`) per design (Fig. 14).

        Cells a design cannot process (S2TA on dense-dense) count at
        baseline parity by default — otherwise a design would improve
        its geomean by *failing* on its worst workloads.
        """
        return dict(self._all_geomeans(unsupported_as_baseline)[metric])

    def _all_geomeans(
        self, unsupported_as_baseline: bool
    ) -> Dict[str, Dict[str, float]]:
        """metric -> design -> geomean for every :data:`GEOMEAN_METRICS`
        entry, memoized per flag.

        One pass over the cells gathers the baseline's and each
        design's metrics; each metric then folds those columns. Only
        the geomeans are kept: one (metric, design) ratio list is alive
        at a time. Each list holds the ratios :meth:`normalized` gives,
        in the same order, so the geomeans are bit-exact with a
        per-metric route."""
        memo = self._geomeans.get(unsupported_as_baseline)
        if memo is not None:
            return memo
        bases: List[Metrics] = []
        columns: List[List[Optional[Metrics]]] = [
            [] for _ in self.design_order
        ]
        for cell, per_design in self.cells.items():
            base = per_design[self.baseline]
            if base is None:
                raise EvaluationError(f"baseline missing for cell {cell}")
            bases.append(base)
            for design, column in zip(self.design_order, columns):
                column.append(per_design[design])
        memo = {}
        for metric in GEOMEAN_METRICS:
            value_of = attrgetter(metric)
            base_values = [value_of(base) for base in bases]
            per_design: Dict[str, float] = {}
            for design, column in zip(self.design_order, columns):
                if unsupported_as_baseline:
                    ratios = [
                        1.0 if metrics is None
                        else value_of(metrics) / base_value
                        for metrics, base_value in zip(column, base_values)
                    ]
                else:
                    ratios = [
                        value_of(metrics) / base_value
                        for metrics, base_value in zip(column, base_values)
                        if metrics is not None
                    ]
                per_design[design] = geomean(ratios)
            memo[metric] = per_design
        self._geomeans[unsupported_as_baseline] = memo
        return memo

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


class SweepEngine:
    """Memoizing executor for (design, workload) pairs.

    One engine owns one :class:`Estimator` (so every workload is costed
    from identical technology assumptions), one in-memory pair cache,
    and optionally one persistent on-disk cache. Results are
    deterministic: pairs are evaluated serially by pure analytical
    models and returned in request order. All shared state is
    lock-guarded; a pair requested by several threads concurrently is
    still evaluated exactly once.
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
    })

    def __init__(
        self,
        estimator: Optional[Estimator] = None,
        registry: Optional[DesignRegistry] = None,
        cache: Optional[cache_mod.PersistentCache] = None,
    ) -> None:
        self.estimator = estimator if estimator is not None else Estimator()
        self.registry = registry if registry is not None else REGISTRY
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

    def _evaluate_pair(
        self, pair: Tuple[AcceleratorDesign, MatmulWorkload]
    ) -> Optional[Metrics]:
        """Cost one true miss: a resolved design on its workload."""
        design, workload = pair
        return evaluate_workload(design, workload, self.estimator)

    def flush(self) -> None:
        """Flush the persistent cache (if any) unconditionally.

        In-batch flushes are debounced (:attr:`flush_interval`);
        callers that just finished a logical unit of work — an
        artifact run, a CLI command — call this to make it durable
        without releasing the cache's connection like :meth:`close`
        does.
        """
        if self.persistent is not None:
            self.persistent.flush()

    def close(self) -> None:
        """Flush the persistent cache and release its connection.

        Safe to call repeatedly, and the engine stays usable afterwards
        (the cache's backing store reopens lazily). The CLI calls this
        on every exit path so an interrupt mid-grid still persists
        every completed evaluation (results are recorded incrementally
        in :meth:`evaluate_workloads` and flushed there at most every
        :attr:`flush_interval` seconds; this close — and the in-batch
        failure path — flush unconditionally). A failing flush
        propagates to the caller.
        """
        if self.persistent is not None:
            self.persistent.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter exit
        try:
            self.close()
        except Exception:
            pass

    def _run_batch(
        self, pending: Dict[PairKey, MissSource]
    ) -> Iterator[Optional[Metrics]]:
        """Results for ``pending``, yielded lazily in order, so the
        caller can record and persist each one before evaluating the
        next — an interrupt mid-batch keeps everything already
        evaluated.

        A true miss is the only place a candidate becomes a
        :class:`MatmulWorkload`. Either way the workload is unlabeled
        (``stripped``), so the cached Metrics (whose ``workload``
        string comes from ``describe()``) are content-derived, not
        named after whichever caller asked first. Design instances are
        resolved once per batch, not once per miss."""
        designs: Dict[str, AcceleratorDesign] = {}
        for (name, key), source in pending.items():
            design = designs.get(name)
            if design is None:
                design = designs[name] = self.design(name)
            if isinstance(source, MatmulWorkload):
                workload = source.stripped
            else:
                a, b, _ = source
                workload = MatmulWorkload(
                    m=key[0], k=key[1], n=key[2], a=a, b=b
                )
            yield self._evaluate_pair((design, workload))

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
        unknown: Dict[PairKey, MissSource],
        probed: List[Any],
        own: Dict[PairKey, MissSource],
        waits: Dict[PairKey, threading.Event],
    ) -> None:
        """Resolve keys absent from the in-memory cache at phase 1:
        fill disk hits, adopt concurrent fills, claim true misses.
        Caller holds the engine lock (it was *released* around the
        disk probe, so another thread may have resolved a key since)."""
        for (key, source), cached in zip(unknown.items(), probed):
            if key in self._cache:
                self.stats.hits += 1
            elif key in self._inflight:
                waits[key] = self._wait_event_locked(key)
                self.stats.hits += 1
            elif cached is not cache_mod.MISS:
                self._cache[key] = cached
                self.stats.disk_hits += 1
            else:
                own[key] = source
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
        return self._evaluate_keys(
            [(design, workload.key()) for design, workload in pairs],
            [workload for _, workload in pairs],
        )

    def _evaluate_keys(
        self, keys: List[PairKey], sources: Sequence[MissSource]
    ) -> List[Optional[Metrics]]:
        """Metrics for each pair key, in order; ``sources[i]`` is what
        key ``i`` builds its workload from if it is a true miss (see
        :meth:`_run_batch`)."""
        own: Dict[PairKey, MissSource] = {}
        waits: Dict[PairKey, threading.Event] = {}
        unknown: Dict[PairKey, MissSource] = {}
        with self._lock:
            for key, source in zip(keys, sources):
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
                    unknown[key] = source
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
                persistent = self.persistent
                for key, metrics in zip(own, self._run_batch(own)):
                    with self._lock:
                        self._cache[key] = metrics
                        if persistent is not None:
                            persistent.put(key[0], key[1], metrics)
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

    def key_cells(self, cells: Sequence[Cell]) -> KeyedCells:
        """Realize and key ``cells`` (the first of two steps).

        Each cell's design realizes it into shape-free candidates (both
        orientations where the Sec. 7.1.1 rules allow a swap), and each
        candidate is keyed straight from the cell shape and its
        interned operands' content keys: no workload is built. Raises
        :class:`~repro.errors.UnsupportedWorkloadError` for a design
        the registry does not know."""
        keys: List[PairKey] = []
        sources: List[MissSource] = []
        spans: List[int] = []
        designs: Dict[str, AcceleratorDesign] = {}
        for name, sparsity_a, sparsity_b, m, k, n in cells:
            design = designs.get(name)
            if design is None:
                if name not in self.registry:
                    raise UnsupportedWorkloadError(
                        f"unknown design {name!r}"
                    )
                design = designs[name] = self.design(name)
            candidates = design.realize(sparsity_a, sparsity_b)
            spans.append(len(candidates))
            for candidate in candidates:
                a, b, swapped = candidate
                keys.append((
                    name,
                    (n, k, m, a.key(), b.key()) if swapped
                    else (m, k, n, a.key(), b.key()),
                ))
                sources.append(candidate)
        return KeyedCells(keys, sources, spans)

    def evaluate_keyed(
        self, keyed: KeyedCells
    ) -> List[Optional[Metrics]]:
        """Best-candidate metrics for each keyed cell, in order (the
        second step): every key goes through the workload-level cache,
        so equal realizations are shared across cells and designs and
        a warm batch builds no workload at all; only true misses do.
        Each cell then keeps its lowest-EDP candidate
        (:func:`best_metrics`), ``None`` when none is supported."""
        results = self._evaluate_keys(keyed.keys, keyed.sources)
        best: List[Optional[Metrics]] = []
        start = 0
        for span in keyed.spans:
            best.append(best_metrics(results[start:start + span]))
            start += span
        return best

    def evaluate_cells(
        self, cells: Sequence[Cell]
    ) -> List[Optional[Metrics]]:
        """Best-candidate metrics for each cell, in order:
        :meth:`key_cells`, then :meth:`evaluate_keyed`."""
        return self.evaluate_keyed(self.key_cells(cells))

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


@dataclass
class EngineContext:
    """Everything an experiment needs to evaluate workloads.

    One context wraps one :class:`SweepEngine` (which owns the
    estimator and any attached persistent cache) plus invocation-level
    settings such as the run record destination. The CLI constructs a
    context once per invocation and threads it through every
    experiment, so all artifacts/sweeps of a run share a single
    memoization domain.

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
    def cache_dir(self) -> Optional[str]:
        """The persistent cache directory, when one is attached."""
        if self.engine.persistent is None:
            return None
        return str(self.engine.persistent.directory)

    @classmethod
    def create(
        cls,
        estimator: Optional[Estimator] = None,
        cache_dir: "Optional[str]" = None,
        record: Optional[str] = None,
    ) -> "EngineContext":
        """Build a context from invocation settings (the CLI path).

        A cache that cannot open (``cache_dir`` is a file, or holds a
        leftover cache from an older version) raises
        :class:`~repro.errors.CacheError` before any work."""
        engine = SweepEngine(estimator)
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
        engine stays usable afterwards (the cache store reopens
        lazily).
        """
        self.engine.close()

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: What experiments accept where a context is expected.
ContextLike = Union[None, EngineContext, SweepEngine, Estimator]
