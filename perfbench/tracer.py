"""Span and count recording around the public entry points of ``repro``.

Installed from outside the program: :func:`install` replaces functions
and methods of the already-imported ``repro`` modules with thin
wrappers, so nothing under ``src/`` changes. Each wrapper records a
span (name, start, end, parent) and/or bumps a counter. Spans stay in
memory until :meth:`Tracer.dump` writes them when the process ends.

Work done inside pool worker processes is not recorded: a forked child
switches its tracer off, so such work shows only as the parent's pool
call and wait time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter


class Tracer:
    """Per-process span list and counters; thread-safe."""

    def __init__(self) -> None:
        self.enabled = True
        #: ``(id, parent id or 0, name, start, end)`` tuples.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, args, kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def traced_iter(self, name: str, iterator, on_item=None):
        """Yield from ``iterator``, timing each step as a ``name`` span."""
        iterator = iter(iterator)
        while True:
            try:
                item = self.call(name, next, (iterator,), {})
            except StopIteration:
                return
            if on_item is not None:
                on_item(item)
            yield item

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def summarize(paths) -> dict:
    """Totals over the trace files of several processes.

    Returns ``{"total": {name: s}, "self": {name: s}, "calls": {name:
    n}, "counts": {name: n}}``. ``total`` sums only the outermost span
    of each name, so a nested call of the same layer is not counted
    twice; ``self`` is a span's time minus the time of its child spans.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
        spans = {span[0]: span for span in data["spans"]}
        children: dict[int, float] = {}
        for _, parent, _, start, end in spans.values():
            children[parent] = children.get(parent, 0.0) + (end - start)
        for span_id, parent, name, start, end in spans.values():
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + duration - children.get(span_id, 0.0)
            while parent in spans and spans[parent][2] != name:
                parent = spans[parent][1]
            if parent not in spans:
                total[name] = total.get(name, 0.0) + duration
    return {"total": total, "self": own, "calls": calls, "counts": counts}


def _wrapper(tracer: Tracer, fn, span: str | None, after):
    def wrapped(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if span is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(span, fn, args, kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapped


def _rebind(original, replacement, attr: str, modules=None) -> None:
    """Point every ``repro`` module's ``attr`` that is ``original`` at
    ``replacement`` (callers bind names with ``from m import f``)."""
    for name, mod in list(sys.modules.items()):
        if (
            name.startswith("repro")
            and mod is not None
            and getattr(mod, attr, None) is original
            and (modules is None or name in modules)
        ):
            setattr(mod, attr, replacement)


def wrap_function(
    tracer: Tracer, module: str, attr: str, span=None, after=None, only=None
) -> None:
    """Wrap ``module.attr`` wherever it is bound (or only in ``only``)."""
    original = getattr(importlib.import_module(module), attr)
    _rebind(original, _wrapper(tracer, original, span, after), attr, only)


def wrap_method(tracer: Tracer, cls, attr: str, span=None, after=None) -> None:
    """Wrap a method (plain or classmethod) on its class."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrapper(tracer, raw.__func__, span, after)))
    else:
        setattr(cls, attr, _wrapper(tracer, raw, span, after))


def _points(dataset) -> int:
    return sum(len(trajectory) for trajectory in dataset)


def install() -> Tracer:
    """Import the ``repro`` layers and wrap their entry points."""
    from repro import cli  # noqa: F401 - binds the names wrapped below
    from repro.core import edits, global_mechanism, laplace, local_mechanism
    from repro.core import modification, signature, waves
    from repro.engine import batch, publish, spill
    from repro.geo import vectorized
    from repro.index import hierarchical
    from repro.serve import budget, engines, jobs  # noqa: F401
    from repro.trajectory import io

    tracer = Tracer()
    count = tracer.count
    planners = threading.local()

    def counter(name, amount=lambda result, args, kwargs: 1):
        return lambda result, args, kwargs: count(name, amount(result, args, kwargs))

    # repro.datagen
    wrap_function(tracer, "repro.datagen.generator", "generate_fleet",
                  span="datagen.generate_fleet")

    # repro.trajectory.io / repro.data.stream: datasets are read by
    # pulling the streaming reader, so each pulled trajectory is a span.
    stream_csv = io.stream_csv

    def traced_stream_csv(path):
        if not tracer.enabled:
            return stream_csv(path)
        return tracer.traced_iter(
            "io.read_csv", stream_csv(path),
            on_item=lambda trajectory: count("io.rows_read", len(trajectory)),
        )

    _rebind(stream_csv, traced_stream_csv, "stream_csv")
    wrap_function(tracer, "repro.trajectory.io", "write_csv", span="io.write_csv",
                  after=counter("io.rows_written", lambda r, a, k: _points(a[0])))

    # repro.core.signature
    wrap_method(tracer, signature.SignatureExtractor, "extract",
                span="signature.extract", after=counter("signature.extract_calls"))

    # repro.core.global_mechanism / local_mechanism / laplace
    wrap_method(tracer, global_mechanism.GlobalTFMechanism, "perturb",
                span="mechanism.tf_perturb")
    wrap_method(tracer, local_mechanism.LocalPFMechanism, "perturb_trajectory",
                span="mechanism.pf_perturb")
    wrap_method(tracer, laplace.LaplaceMechanism, "perturb",
                after=counter("mechanism.draws"))

    # repro.core.waves: the planner of the running global stage is kept
    # per thread, so concurrent jobs never read each other's stats.
    def remember_planner(result, args, kwargs):
        planners.current = args[0]

    wrap_method(tracer, waves.WavePlanner, "__init__", after=remember_planner)
    wrap_method(tracer, waves.WavePlanner, "plan_wave", span="waves.plan")
    wrap_method(tracer, waves.WaveExecutor, "apply_wave", span="waves.execute")

    # repro.core.modification
    def global_counts(result, args, kwargs):
        report = result[1]
        count("global_stage.insertions", report.insertions)
        count("global_stage.deletions", report.deletions)
        count("global_stage.unrealised", report.unrealised)
        planner = getattr(planners, "current", None)
        planners.current = None
        if planner is not None:
            for field in ("waves", "simulations", "conflicts", "discarded", "fallbacks"):
                count(f"waves.{field}", getattr(planner.stats, field))

    wrap_method(tracer, modification.InterTrajectoryModifier, "apply",
                span="global_stage.apply", after=global_counts)
    wrap_method(tracer, modification.IntraTrajectoryModifier, "apply",
                span="local_stage.apply")

    # repro.core.edits
    wrap_method(tracer, edits.EditableTrajectory, "__init__",
                span="edits.editable_init", after=counter("edits.editable_inits"))
    for attr in ("insert_into_segment", "append"):
        wrap_method(tracer, edits.EditableTrajectory, attr,
                    after=counter("edits.insert_calls"))
    wrap_method(tracer, edits.EditableTrajectory, "delete_node",
                after=counter("edits.delete_calls"))

    # repro.index.hierarchical
    grid = hierarchical.HierarchicalGridIndex
    wrap_method(tracer, grid, "__init__", after=counter("index.instances"))
    wrap_method(tracer, grid, "knn_batch", span="index.knn_batch",
                after=counter("index.knn_batch_queries", lambda r, a, k: len(r)))
    wrap_method(tracer, grid, "knn", span="index.knn", after=counter("index.knn_calls"))
    wrap_method(tracer, grid, "iter_nearest", after=counter("index.iter_nearest_calls"))
    wrap_method(tracer, grid, "insert_many", span="index.insert_many")
    wrap_method(tracer, grid, "remove", after=counter("index.remove_calls"))

    # repro.geo.vectorized
    def array_counts(result, args, kwargs):
        count("geo.segment_array_builds")
        count("geo.segment_array_rows", len(result))

    wrap_method(tracer, vectorized.SegmentArray, "from_pairs", after=array_counts)

    # repro.engine.batch / repro.engine.pool
    wrap_method(tracer, batch.BatchAnonymizer, "anonymize_with_report",
                span="engine.anonymize")
    wrap_function(tracer, "repro.engine.pool", "parallel_map", span="pool.parallel_map",
                  after=counter("pool.items", lambda r, a, k: len(r)))

    # repro.engine.publish / repro.engine.spill
    wrap_method(tracer, spill.SpillStore, "stage", span="spill.stage")
    wrap_function(tracer, "repro.engine.spill", "write_spill",
                  after=counter("spill.bytes", lambda r, a, k: r))
    wrap_method(tracer, publish.StreamPublisher, "chunk_targets",
                span="publish.chunk_targets")
    stream = publish.parallel_map_stream

    def outcome_stream(*args, **kwargs):
        # Each pull blocks on pass 2; the pass-1 source work it also
        # drives shows as child spans, so its self time is the wait.
        outcomes = stream(*args, **kwargs)
        if not tracer.enabled:
            return outcomes
        return tracer.traced_iter("publish.outcome_wait", outcomes,
                                  on_item=lambda outcome: count("publish.chunks"))

    publish.parallel_map_stream = outcome_stream
    publish_call = publish.StreamPublisher.publish

    def traced_publish(self, chunks, sink=None, *, byte_sink=None):
        if not tracer.enabled:
            return publish_call(self, chunks, sink, byte_sink=byte_sink)

        def source():
            return tracer.traced_iter("publish.source", chunks())

        def timed_sink(rows, report):
            return tracer.call("publish.byte_sink", byte_sink, (rows, report), {})

        return publish_call(
            self, source, sink, byte_sink=None if byte_sink is None else timed_sink
        )

    publish.StreamPublisher.publish = traced_publish

    # repro.serve (daemon side)
    wrap_method(tracer, budget.BudgetStore, "reserve", span="budget.reserve")
    wrap_method(tracer, budget.BudgetStore, "commit", span="budget.commit")
    engine_get = engines.EngineCache.get

    def traced_get(self, spec):
        if not tracer.enabled:
            return engine_get(self, spec)
        before = len(self)
        result = tracer.call("engines.get", engine_get, (self, spec), {})
        if len(self) > before:
            count("engines.builds")
        return result

    engines.EngineCache.get = traced_get
    wrap_function(tracer, "repro.data.registry", "load_dataset",
                  span="jobs.load_dataset", only={"repro.serve.jobs"})
    return tracer
