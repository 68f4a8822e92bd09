"""Batch anonymization engine.

Three pieces built for the "as fast as the hardware allows" roadmap:

* :class:`BatchAnonymizer` — shards the embarrassingly-parallel local
  PF stage of a :class:`~repro.core.pipeline.FrequencyAnonymizer`
  across a process pool, byte-identical to the serial path for the
  same seed thanks to per-trajectory derived noise streams. Results
  travel with the return value of ``anonymize_with_report``, never
  through shared mutable state;
* :func:`parallel_map` / :func:`parallel_map_stream` — the
  deterministic order-preserving pool primitives (process pools; the
  stream also runs on threads for the serving daemon's job runner)
  that the experiment drivers reuse for their sweeps;
* :class:`StreamPublisher` (:mod:`repro.engine.publish`) — the
  pipelined two-pass whole-dataset publisher: pass 1 consumes the
  chunked stream exactly once, spilling parsed chunks to disk
  (:mod:`repro.engine.spill`) while accumulating one shared noisy TF
  estimate; pass 2 realises apportioned per-chunk targets from the
  spills — overlapped with pass 1 where the spec allows and fanned
  over worker processes, byte-identical to serial either way — with a
  DP composition ledger (:mod:`repro.core.accounting`) recording the
  end-to-end ε.

Each unit of work — a local-stage shard, a published chunk — runs
exactly one function, in process or in a pool worker as
:func:`parallel_map_stream` decides (in process when ``workers <= 1``).
The function rebuilds the pipeline with ``FrequencyAnonymizer(**config)``
from the plain constructor kwargs its payload carries, never from a
live object, so the engine imports nothing from :mod:`repro.api` at
run time.

The global stage is not sharded: it runs in-process, as the serial
per-location loop over the shared index's incremental ``iter_nearest``
kNN frontier. The shared index is a flat scan below
:data:`~repro.core.modification.MIN_SEGMENTS_FOR_GRID` segments and the
paper's hierarchical grid at or above it (see ``repro.index``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.engine.batch": ("BatchAnonymizer",),
    "repro.engine.pool": (
        "EXECUTOR_KINDS", "parallel_map", "parallel_map_stream",
        "resolve_workers",
    ),
    "repro.engine.publish": (
        "PublishReport", "SharedTFEstimate", "StreamPublisher", "chunk_source",
        "csv_chunk_bytes",
    ),
    "repro.engine.spill": ("SpillError", "SpillStore"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
