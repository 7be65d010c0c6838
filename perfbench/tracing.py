"""Spans around calls into each layer of ``repro``, kept in memory.

Loaded only by :mod:`trace_entry` inside a traced ``repro`` process.
:func:`install` wraps the public entry points of each layer (module
functions are replaced wherever they were imported by name, methods on
their class and every subclass that overrides them) so that each call
records one span: layer name, start, end, self time (duration minus the
time of child spans on the same thread) and optional counts. Parents
and finished spans are thread-local, so the serve event loop and its
executor threads keep separate stacks and never interleave their
records. A target that no longer exists is skipped, so a later
refactor leaves its metric at zero rather than breaking the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import threading
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marks a wrapper, so no entry point is wrapped twice.
LAYER_ATTR = "_perfbench_layer"

CountFn = Callable[[tuple, dict, Any, Any], Optional[Dict[str, int]]]
BeforeFn = Callable[[tuple, dict], Any]


class ThreadSpans:
    """The open spans and the finished spans of one thread.

    Finished spans are packed into a flat integer array rather than one
    tuple each: a sweep records hundreds of thousands, and tracking that
    many objects would make the garbage collector part of the overhead.
    Only the owning thread writes here, so recording takes no lock.
    """

    __slots__ = ("stack", "data", "counts")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.data = array("q")
        #: Span number (within this thread) -> counts, for the spans
        #: that carry any.
        self.counts: Dict[int, Dict[str, int]] = {}


class Recorder:
    """Every span of one process, per thread in completion order."""

    #: Integers per span: layer index, start, end, self time, nested
    #: (its parent is the same layer), root (it has no parent).
    WIDTH = 6

    def __init__(self) -> None:
        self.layers: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[ThreadSpans] = []

    def _spans(self) -> ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, layer: str, fn: Callable, count: Optional[CountFn] = None,
             before: Optional[BeforeFn] = None) -> Callable:
        index = self.layers.setdefault(layer, len(self.layers))
        spans_of, width = self._spans, self.WIDTH

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = spans_of()
            stack = spans.stack
            nested = int(bool(stack) and stack[-1][1] == layer)
            frame = [0, layer]
            stack.append(frame)
            state = before(args, kwargs) if before is not None else None
            result: Any = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                if count is not None:
                    extra = count(args, kwargs, result, state)
                    if extra:
                        spans.counts[len(spans.data) // width] = extra
                spans.data.extend((index, start, end, duration - frame[0],
                                   nested, int(not stack)))

        setattr(traced, LAYER_ATTR, layer)
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def rows(self) -> List[list]:
        """Spans as ``[layer, start, end, self, nested, root, counts]``
        rows, thread after thread."""
        width = self.WIDTH
        with self._lock:
            threads = list(self._threads)
        return [
            [*spans.data[i:i + width], spans.counts.get(i // width)]
            for spans in threads
            for i in range(0, len(spans.data), width)
        ]

    def write(self, path: str, argv: List[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"argv": argv, "layers": list(self.layers),
                       "spans": self.rows()}, handle, separators=(",", ":"))


# ----------------------------------------------------------------------
# Patching helpers
# ----------------------------------------------------------------------


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _artifact_infos() -> List[Any]:
    artifacts = sys.modules.get("repro.eval.artifacts")
    registry = getattr(artifacts, "ARTIFACTS", None)
    return list(registry.infos()) if registry is not None else []


def _replace_everywhere(old: Callable, new: Callable) -> None:
    """Rebind every module-level name (and artifact spec field) that
    refers to ``old``, so ``from x import f`` call sites see ``new``."""
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
    for info in _artifact_infos():
        for attr in ("compute", "render_text"):
            if getattr(info, attr, None) is old:
                object.__setattr__(info, attr, new)


def patch_function(rec: Recorder, module: Any, attr: str, layer: str,
                   count: Optional[CountFn] = None,
                   before: Optional[BeforeFn] = None) -> bool:
    fn = getattr(module, attr, None) if module is not None else None
    if not callable(fn) or isinstance(fn, type):
        return False
    if hasattr(fn, LAYER_ATTR):
        return True
    _replace_everywhere(fn, rec.wrap(layer, fn, count=count, before=before))
    return True


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


def patch_method(rec: Recorder, cls: Optional[type], attr: str, layer: str,
                 count: Optional[CountFn] = None,
                 before: Optional[BeforeFn] = None) -> bool:
    """Wrap ``attr`` on ``cls`` and on every subclass defining it."""
    if cls is None:
        return False
    patched = False
    for klass in _subclasses(cls):
        raw = klass.__dict__.get(attr)
        if hasattr(getattr(raw, "__func__", raw), LAYER_ATTR):
            patched = True
            continue
        if isinstance(raw, classmethod):
            setattr(klass, attr, classmethod(
                rec.wrap(layer, raw.__func__, count=count, before=before)
            ))
        elif isinstance(raw, staticmethod):
            setattr(klass, attr, staticmethod(
                rec.wrap(layer, raw.__func__, count=count, before=before)
            ))
        elif callable(raw):
            setattr(klass, attr,
                    rec.wrap(layer, raw, count=count, before=before))
        else:
            continue
        patched = True
    return patched


def _import(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


# ----------------------------------------------------------------------
# Counts attached to spans
# ----------------------------------------------------------------------


def _count_len(position: int, key: str) -> CountFn:
    def count(args: tuple, kwargs: dict, result: Any, state: Any):
        try:
            return {key: len(args[position])}
        except (IndexError, TypeError):
            return None
    return count


def _engine_before(args: tuple, kwargs: dict) -> Any:
    engine = args[0]
    checkpoint = getattr(engine, "checkpoint", None)
    return checkpoint() if checkpoint is not None else None


def _engine_count(args: tuple, kwargs: dict, result: Any, state: Any):
    counts = {"pairs": len(args[1]) if len(args) > 1 else 0}
    if state is not None:
        delta = args[0].stats_since(state)
        counts.update(hits=delta.hits, disk_hits=delta.disk_hits,
                      misses=delta.misses)
    return counts


def _lru_info(fn: Any) -> Optional[Callable[[], Any]]:
    info = getattr(fn, "cache_info", None)
    return info if callable(info) else None


def _realize_hooks(harness: Any) -> Tuple[Optional[BeforeFn], CountFn]:
    """Hit/miss of the realization memo for each call, when it has one."""
    info = _lru_info(getattr(harness, "_realize_workloads", None))

    def before(args: tuple, kwargs: dict) -> Any:
        return info().hits if info is not None else None

    def count(args: tuple, kwargs: dict, result: Any, state: Any):
        if state is None or info().hits == state:
            return None
        return {"hit": 1}

    return before, count


def _broker_count(args: tuple, kwargs: dict, result: Any, state: Any):
    created = bool(result[1]) if isinstance(result, tuple) else True
    return {"started": int(created), "joined": int(not created)}


# ----------------------------------------------------------------------
# The layer map
# ----------------------------------------------------------------------


def install(rec: Recorder) -> List[str]:
    """Wrap every layer entry point; returns the targets not found."""
    modules = {
        name: _import(name) for name in (
            "repro.cli", "repro.model.workload", "repro.model.batch",
            "repro.accelerators.base", "repro.eval.harness",
            "repro.eval.engine", "repro.eval.cache", "repro.eval.codec",
            "repro.eval.artifacts", "repro.eval.experiments",
            "repro.eval.reporting", "repro.eval.runs",
            "repro.serve.protocol", "repro.serve.coalescing",
            "repro.serve.handlers",
        )
    }
    missing: List[str] = []

    def cls(module: str, name: str) -> Optional[type]:
        return getattr(modules[module], name, None)

    def fn(module: str, attr: str, layer: str,
           count: Optional[CountFn] = None,
           before: Optional[BeforeFn] = None) -> None:
        if not patch_function(rec, modules[module], attr, layer, count,
                              before):
            missing.append(f"{module}.{attr}")

    def method(module: str, klass: str, attr: str, layer: str,
               count: Optional[CountFn] = None,
               before: Optional[BeforeFn] = None) -> None:
        if not patch_method(rec, cls(module, klass), attr, layer,
                            count, before):
            missing.append(f"{module}.{klass}.{attr}")

    # cli: building the parser and parsing argv.
    fn("repro.cli", "build_parser", "cli.parse")
    patch_method(rec, argparse.ArgumentParser, "parse_args", "cli.parse")

    # eval.harness: workload realization.
    before, count = _realize_hooks(modules["repro.eval.harness"])
    fn("repro.eval.harness", "realize_workloads", "harness.realize",
       count=count, before=before)

    # model.workload: content keys.
    method("repro.model.workload", "MatmulWorkload", "key", "workload.key")

    # eval.engine: the memoizing evaluation front door and context setup.
    method("repro.eval.engine", "SweepEngine", "evaluate_workloads",
           "engine.evaluate", count=_engine_count, before=_engine_before)
    method("repro.eval.engine", "SweepEngine", "evaluate_cells",
           "engine.evaluate")
    method("repro.eval.engine", "EngineContext", "create", "engine.setup")

    # accelerators + model.batch: the cost models, batch and scalar.
    fn("repro.accelerators.base", "evaluate_workloads_batch", "accel.model",
       count=_count_len(1, "rows"))
    method("repro.accelerators.base", "AcceleratorDesign", "evaluate_batch",
           "accel.model")
    method("repro.accelerators.base", "AcceleratorDesign", "evaluate",
           "accel.model", count=lambda args, kwargs, result, state: {
               "scalar": 1})
    method("repro.model.batch", "SharedWorkloadStack", "__init__",
           "batch.stack")
    method("repro.model.batch", "SharedWorkloadStack", "batch_for",
           "batch.stack")
    method("repro.model.batch", "WorkloadBatch", "from_workloads",
           "batch.stack")

    # eval.cache: load, probe, record and flush.
    store = cls("repro.eval.cache", "CacheStore")
    if not patch_method(rec, store, "load", "cache.load"):
        missing.append("repro.eval.cache.CacheStore.load")
    if not patch_method(rec, store, "flush", "cache.flush"):
        missing.append("repro.eval.cache.CacheStore.flush")
    method("repro.eval.cache", "PersistentCache", "get_many",
           "cache.get_many", count=_count_len(1, "keys"))
    method("repro.eval.cache", "PersistentCache", "put_many",
           "cache.put_many")

    # eval.codec: blob encode/decode.
    fn("repro.eval.codec", "encode_metrics", "codec.encode")
    fn("repro.eval.codec", "decode_blob", "codec.decode")

    # eval.artifacts + eval.experiments: compute and result rendering.
    for info in _artifact_infos():
        object.__setattr__(
            info, "compute", rec.wrap("artifacts.compute", info.compute)
        )
    method("repro.eval.artifacts", "ArtifactInfo", "render",
           "artifacts.render")
    fn("repro.eval.artifacts", "finished_event_line", "artifacts.render")
    for module in ("repro.eval.experiments", "repro.eval.engine"):
        for value in list(vars(modules[module] or object).values()):
            if isinstance(value, type) and "to_payload" in vars(value):
                patch_method(rec, value, "to_payload", "artifacts.render")

    # eval.reporting: text tables.
    reporting = modules["repro.eval.reporting"]
    for name in sorted(vars(reporting or object)):
        if name.startswith("render_") or name == "format_table":
            fn("repro.eval.reporting", name, "reporting.render")

    # eval.runs: run records.
    runs = modules["repro.eval.runs"]
    for name in sorted(vars(runs or object)):
        if name.startswith("record_from_"):
            fn("repro.eval.runs", name, "runs.record")
    method("repro.eval.runs", "RunRecord", "write", "runs.record")

    # serve: spec parsing, coalescing and the blocking handlers.
    fn("repro.serve.protocol", "parse_artifacts_spec", "protocol.parse_spec")
    fn("repro.serve.protocol", "parse_sweep_spec", "protocol.parse_spec")
    method("repro.serve.coalescing", "RunBroker", "join_or_start",
           "broker.join", count=_broker_count)
    fn("repro.serve.handlers", "execute_artifacts", "handlers.run")
    fn("repro.serve.handlers", "execute_sweep", "handlers.run")
    return missing
