"""Batch anonymization: shard the embarrassingly-parallel local stage.

The paper's pipeline has two very different halves. The global stage
edits every trajectory against one shared dataset-wide index — it is
inherently sequential (and is what the incremental ``iter_nearest``
frontier accelerates). The local stage perturbs and modifies each
trajectory independently — it is embarrassingly parallel, and at the
paper's |D| = 1000 scale dominated by per-trajectory edits and kNN
scans that share nothing.

:class:`BatchAnonymizer` wraps any :class:`FrequencyAnonymizer` and
fans that local stage over a worker pool. Determinism is preserved by
construction: the pipeline derives each trajectory's noise stream from
``(run seed, call index, object id)`` — not from a shared sequential
RNG — so any sharding replays exactly the serial draws and the output
is byte-identical to the serial path for the same seed.

A local-stage shard runs :func:`_run_local_shard` in a pool worker:
the pipeline's own ``_run_local_serial`` on an anonymizer rebuilt from
its plain-data :meth:`~repro.core.pipeline.FrequencyAnonymizer.config`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.local_mechanism import PFPerturbation
from repro.core.modification import ModificationReport
from repro.core.pipeline import (
    AnonymizationReport,
    FrequencyAnonymizer,
    LocalResult,
)
from repro.core.signature import SignatureIndex
from repro.engine.pool import parallel_map, resolve_workers
from repro.engine.spill import decode_chunk, encode_chunk
from repro.trajectory.model import Trajectory, TrajectoryDataset

#: The local stage forks its pool only for a dataset of at least
#: ``workers * MIN_POINTS_PER_WORKER`` points; a smaller one runs in
#: process, where it finishes before a pool would pay for itself. On a
#: 2-core host the 2-worker pool's median wall-clock won at no size
#: swept, up to a 150,000-point fleet, so two workers fork only above
#: that (see "When the local stage forks" in docs/architecture.md).
MIN_POINTS_PER_WORKER = 76_000

#: A sharded local stage splits the dataset into ``workers *
#: SHARDS_PER_WORKER`` contiguous slices: a few per worker smooths out
#: uneven trajectory lengths without drowning the pool in pickling
#: overhead. Output bytes do not depend on it.
SHARDS_PER_WORKER = 4


@dataclass(frozen=True, slots=True)
class _LocalShard:
    """Everything one worker needs to run the local stage on a slice.

    Plain data only — this crosses a process boundary. The trajectories
    travel as one :func:`~repro.engine.spill.encode_chunk` payload
    (float64 ``x, y, t`` per point, exact), not as pickled
    :class:`~repro.trajectory.model.Point` objects. The signature
    index is trimmed to the shard's own trajectories (the candidate set
    and TF restriction stay global, as the mechanism requires).
    """

    trajectories: bytes
    signature_index: SignatureIndex
    #: The per-call noise base; each trajectory's stream derives from
    #: it and its object id, so the shard draws the serial noise.
    base_seed: int
    #: ``FrequencyAnonymizer`` constructor kwargs for the rebuild.
    config: dict


#: What a local-stage worker sends back: the modified trajectories as
#: one ``encode_chunk`` payload, plus each one's perturbation and
#: report, in shard order.
_ShardResult = tuple[bytes, list[PFPerturbation], list[ModificationReport]]


def _run_local_shard(shard: _LocalShard) -> _ShardResult:
    """Worker: the pipeline's own local stage, on one shard."""
    results = FrequencyAnonymizer(**shard.config)._run_local_serial(
        decode_chunk(shard.trajectories), shard.signature_index, shard.base_seed
    )
    return (
        encode_chunk(TrajectoryDataset(t for _, _, t, _ in results)),
        [perturbation for _, perturbation, _, _ in results],
        [report for _, _, _, report in results],
    )


class BatchAnonymizer:
    """Parallel front-end for a :class:`FrequencyAnonymizer`.

    Parameters
    ----------
    anonymizer:
        The configured pipeline to accelerate. Its global stage runs
        unchanged in-process; its local stage is sharded.
    workers:
        Process-pool size; ``0``/``None`` means one worker per CPU
        core, ``1`` keeps everything in process (and byte-identical).
        A dataset under ``workers * MIN_POINTS_PER_WORKER`` points runs
        its local stage in process whatever the pool size.

    The engine holds no pool between calls: a sharded local stage gets
    a fresh one from :func:`~repro.engine.pool.parallel_map`.
    """

    def __init__(
        self,
        anonymizer: FrequencyAnonymizer,
        workers: int | None = None,
    ) -> None:
        self.anonymizer = anonymizer
        self.workers = resolve_workers(workers)

    def anonymize_with_report(
        self, dataset: TrajectoryDataset, *, call_index: int | None = None
    ) -> tuple[TrajectoryDataset, AnonymizationReport]:
        """Anonymize and return ``(dataset, report)`` together.

        Nothing is stored on the wrapped anonymizer — the sharding hook
        travels as a per-call argument — so concurrent calls on one
        engine are safe: each gets its own report and its own
        atomically reserved noise stream. ``call_index`` pins the
        per-call stream instead (the serving daemon replays call 0).
        """
        return self.anonymizer.anonymize_with_report(
            dataset, local_runner=self._run_local_sharded, call_index=call_index
        )

    # -- local-stage sharding ---------------------------------------------------

    def _run_local_sharded(
        self,
        dataset: TrajectoryDataset,
        signature_index: SignatureIndex,
        base_seed: int,
    ) -> list[LocalResult]:
        trajectories = list(dataset)
        shard_count = max(
            1, min(len(trajectories), self.workers * SHARDS_PER_WORKER)
        )
        if (
            shard_count == 1
            or self.workers <= 1
            or dataset.total_points() < self.workers * MIN_POINTS_PER_WORKER
        ):
            return self.anonymizer._run_local_serial(
                dataset, signature_index, base_seed
            )
        shards = [
            self._make_shard(chunk, signature_index, base_seed)
            for chunk in _chunks(trajectories, shard_count)
        ]
        results = parallel_map(_run_local_shard, shards, workers=self.workers)
        # Contiguous shards concatenated in order == serial iteration
        # order, so reports merge identically too.
        return [
            (trajectory.object_id, perturbation, trajectory, report)
            for payload, perturbations, reports in results
            for trajectory, perturbation, report in zip(
                decode_chunk(payload), perturbations, reports, strict=True
            )
        ]

    def _make_shard(
        self,
        chunk: list[Trajectory],
        signature_index: SignatureIndex,
        base_seed: int,
    ) -> _LocalShard:
        trimmed = SignatureIndex(
            m=signature_index.m,
            signatures={
                t.object_id: signature_index.signatures[t.object_id]
                for t in chunk
            },
            candidate_set=signature_index.candidate_set,
            tf=signature_index.tf,
        )
        return _LocalShard(
            trajectories=encode_chunk(TrajectoryDataset(chunk)),
            signature_index=trimmed,
            base_seed=base_seed,
            config=self.anonymizer.config(),
        )


def _chunks(items: list, n: int) -> list[list]:
    """Split ``items`` into ``n`` contiguous near-equal slices."""
    size, extra = divmod(len(items), n)
    chunks = []
    start = 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        if end > start:
            chunks.append(items[start:end])
        start = end
    return chunks
