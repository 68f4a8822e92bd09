"""Anonymizer instances shared across daemon requests.

The daemon keeps one engine per distinct
:class:`~repro.api.spec.MethodSpec` digest and routes every job with
that configuration through it, so a repeat submission skips building
the anonymizer. What stays warm is the engine object, not a pool: a
:class:`~repro.engine.BatchAnonymizer` holds no worker processes
between jobs. A job whose local stage is big enough to shard gets a
fresh process pool from :func:`~repro.engine.pool.parallel_map`, and a
small one runs its local stage in process (see
``repro.engine.batch.MIN_POINTS_PER_WORKER``). Concurrent calls on one
engine are safe by design (reports travel with the return value,
noise streams are reserved per call), so the cache needs no
per-engine serialization — only its own map lock. Nor does an engine
need shutting down: :meth:`EngineCache.close` just drops them.

The key is :attr:`~repro.api.spec.MethodSpec.digest`, the in-process
identity over the whole spec, seed included: one spec under two seeds
is two engines. Nothing writes the key out (a job snapshot carries the
seedless :meth:`~repro.api.spec.MethodSpec.provenance`). Since every
distinct seed is a new key, the cache keeps at most
:data:`MAX_WARM_ENGINES` engines and evicts the least recently used;
a job keeps the engine it already got, evicted or not.

Frequency-family methods get the batch engine; other families are
cached as their bare anonymizer, so their construction (e.g. a fitted
generative baseline's setup) is amortized too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.api.registry import build
from repro.api.spec import MethodSpec
from repro.core.pipeline import FrequencyAnonymizer
from repro.engine.batch import BatchAnonymizer

__all__ = ["EngineCache"]

#: Engines the cache keeps warm; getting one more evicts the least
#: recently used.
MAX_WARM_ENGINES = 16


class EngineCache:
    """``spec.digest -> anonymizer`` LRU map that refuses use once closed.

    ``workers`` is the batch engine's pool size; it applies to every
    frequency-family engine the cache builds. An entry keeps the built
    engine, not worker processes.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers
        self._engines: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False

    def __len__(self) -> int:
        return len(self._engines)

    def get(self, spec: MethodSpec):
        """The warm engine for ``spec``, building it on first use."""
        key = spec.digest
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "EngineCache is closed; the daemon is shutting down"
                )
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                return engine
            anonymizer = build(spec)
            if isinstance(anonymizer, FrequencyAnonymizer):
                engine = BatchAnonymizer(anonymizer, workers=self.workers)
            else:
                engine = anonymizer
            self._engines[key] = engine
            if len(self._engines) > MAX_WARM_ENGINES:
                self._engines.popitem(last=False)
            return engine

    def close(self) -> None:
        """Drop every warm engine; idempotent and terminal.

        A later :meth:`get` raises ``RuntimeError``. The engines hold
        no pool or file, so dropping them releases everything; jobs
        still running keep the engine they already got.
        """
        with self._lock:
            self._closed = True
            self._engines.clear()
