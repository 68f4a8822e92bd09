"""Worker-pool plumbing shared by the batch engine, the publisher, the
experiment drivers and the serving daemon.

Two entry points, both order-preserving:

* :func:`parallel_map` maps over a ``ProcessPoolExecutor``: true
  parallelism, which requires picklable functions and payloads
  (module-level workers + plain data);
* :func:`parallel_map_stream` is its lazy form, over a process pool or,
  with ``executor="thread"``, a thread pool. The daemon's job runner
  streams its jobs on threads, so they share one warm engine cache;
  the engines' own process pools provide the CPU-level parallelism.

Both map in process when ``workers <= 1``. Results always come back in
input order, so a parallel run is a drop-in replacement for the serial
loop. If a pool cannot be created (sandboxes without fork, exhausted
resources), the call degrades to the serial path rather than failing
the run.
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

    Exceptions raised by ``fn`` propagate from either path.
    """
    batch: Sequence[T] = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(batch) <= 1:
        return [fn(item) for item in batch]
    pool = _make_executor("process", min(workers, len(batch)))
    if pool is None:
        return [fn(item) for item in batch]
    with pool:
        return list(pool.map(fn, batch))


def parallel_map_stream(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 1,
    executor: str = "process",
    window: int | None = None,
) -> Iterator[R]:
    """Lazy :func:`parallel_map`: results stream back in input order.

    At most ``window`` items are in flight (submitted but not yet
    yielded) — two per worker unless ``window`` overrides it —
    and the input iterable is pulled only as slots free up, so a lazy
    or unbounded input stream is consumed with bounded memory, unlike
    :func:`parallel_map` which materialises its input first. The
    explicit ``window`` is for callers whose in-flight bound is a
    memory budget in its own right (the publisher's spill window)
    rather than a pool-utilisation heuristic. The serial path
    (``workers <= 1``, or an environment without pools) degenerates to
    a plain lazy ``map``.
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
