"""Worker-pool plumbing shared by the batch engine, the publisher, the
experiment drivers and the serving daemon.

One loop, :func:`parallel_map_stream`, decides between running in
process and running on a pool: it maps in process when ``workers <=
1`` (or when no pool can be created: sandboxes without fork,
exhausted resources), and over a ``ProcessPoolExecutor`` otherwise,
which requires picklable functions and payloads (module-level workers
+ plain data). With ``executor="thread"`` it maps on a thread pool
instead; the daemon's job runner streams its jobs on threads, so they
share one warm engine cache, and the engines' own process pools
provide the CPU-level parallelism. :func:`parallel_map` is its
materialising form.

Results always come back in input order, so a parallel run is a
drop-in replacement for the serial loop.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

#: Pool kinds of :func:`parallel_map_stream`.
EXECUTOR_KINDS = ("thread", "process")

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request; ``None``/0 means "use all cores"."""
    if workers is None or workers == 0:
        import os

        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return workers


def _make_executor(kind: str, workers: int) -> Executor | None:
    """Build the requested executor, or None when pools are unavailable."""
    cls = ThreadPoolExecutor if kind == "thread" else ProcessPoolExecutor
    try:
        return cls(max_workers=workers)
    except (OSError, PermissionError, RuntimeError):
        # No fork / threads in this environment; the serial path is
        # always equivalent, only slower.
        return None


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 1,
) -> list[R]:
    """``[fn(item) for item in items]``, possibly across a process pool.

    The materialising form of :func:`parallel_map_stream`: the whole
    batch is in flight at once, on a pool of at most one worker per
    item. Exceptions raised by ``fn`` propagate from either path.
    """
    batch: Sequence[T] = list(items)
    return list(
        parallel_map_stream(
            fn,
            batch,
            workers=min(resolve_workers(workers), max(1, len(batch))),
            window=max(1, len(batch)),
        )
    )


def parallel_map_stream(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 1,
    executor: str = "process",
    window: int | None = None,
) -> Iterator[R]:
    """``map(fn, items)``, possibly across a pool, in input order.

    At most ``window`` items are in flight (submitted but not yet
    yielded) — two per worker unless ``window`` overrides it —
    and the input iterable is pulled only as slots free up, so a lazy
    or unbounded input stream is consumed with bounded memory. The
    explicit ``window`` is for callers whose in-flight bound is a
    memory budget in its own right (the publisher's spill window) or
    the whole batch (:func:`parallel_map`) rather than a
    pool-utilisation heuristic. The in-process path (``workers <= 1``,
    or an environment without pools) is a plain lazy ``map``.
    """
    if executor not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTOR_KINDS}"
        )
    if window is not None and window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    workers = resolve_workers(workers)
    iterator = iter(items)
    pool = None if workers <= 1 else _make_executor(executor, workers)
    if pool is None:
        for item in iterator:
            yield fn(item)
        return
    if window is None:
        window = 2 * workers
    pending: deque = deque()
    try:
        for item in iterator:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # The consumer may abandon the generator (or a job may raise)
        # with a full window still queued; cancel it instead of letting
        # shutdown block until work nobody will read finishes.
        pool.shutdown(wait=True, cancel_futures=True)
