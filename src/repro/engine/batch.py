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

Each unit of work the engine hands out runs exactly one function, in
process or in a pool worker as :func:`~repro.engine.pool.parallel_map_stream`
decides: a local-stage shard runs :func:`_run_local_shard`, which is
the pipeline's own ``_run_local_serial`` on a rebuilt anonymizer, and
a sweep item runs :func:`_anonymize_one`. Both rebuild the pipeline
from its plain-data :meth:`~repro.core.pipeline.FrequencyAnonymizer.config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.local_mechanism import PFPerturbation
from repro.core.modification import ModificationReport
from repro.core.pipeline import (
    AnonymizationReport,
    FrequencyAnonymizer,
    LocalResult,
)
from repro.core.signature import SignatureIndex
from repro.engine.pool import parallel_map, parallel_map_stream, resolve_workers
from repro.engine.spill import decode_chunk, encode_chunk
from repro.trajectory.model import Trajectory, TrajectoryDataset

#: The local stage forks its pool only for a dataset of at least
#: ``workers * MIN_POINTS_PER_WORKER`` points; a smaller one runs in
#: process, where it finishes before a pool would pay for itself. On a
#: 2-core host the 2-worker pool's median wall-clock first won at about
#: 19k points, so the bound is half of that, rounded down (see "When
#: the local stage forks" in docs/architecture.md).
MIN_POINTS_PER_WORKER = 9000

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


def _anonymize_one(payload: tuple[dict, int, TrajectoryDataset]):
    """Worker: full anonymization of one dataset of a sweep.

    Rebuilds the anonymizer from its constructor kwargs (plain data,
    like the shard payloads) and pins the reserved call index so
    dataset ``i`` of the sweep draws exactly the noise the ``i``-th
    sequential call on a single instance would draw.
    """
    config, call_index, dataset = payload
    return FrequencyAnonymizer(**config).anonymize_with_report(
        dataset, call_index=call_index
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

    :meth:`close` (or leaving the engine's ``with`` block) is terminal:
    a closed engine raises ``RuntimeError`` on further use (long-lived
    holders like the serving daemon rely on close meaning *closed*,
    not *paused*).
    """

    def __init__(
        self,
        anonymizer: FrequencyAnonymizer,
        workers: int | None = None,
    ) -> None:
        self.anonymizer = anonymizer
        self.workers = resolve_workers(workers)
        self._closed = False

    # -- lifecycle --------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "BatchAnonymizer is closed; build a new engine instead "
                "of reusing a closed one"
            )

    def close(self) -> None:
        """Shut the engine down: idempotent and terminal.

        Any later ``anonymize*`` call (or context-manager re-entry)
        raises ``RuntimeError``.
        """
        self._closed = True

    def __enter__(self) -> "BatchAnonymizer":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def anonymize(self, dataset: TrajectoryDataset) -> TrajectoryDataset:
        """ε-DP anonymization, local stage fanned across the pool.

        Byte-identical to ``self.anonymizer.anonymize(dataset)`` for
        the same seed and call index: the dataset half of
        :meth:`anonymize_with_report`.
        """
        return self.anonymize_with_report(dataset)[0]

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
        self._ensure_open()
        return self.anonymizer.anonymize_with_report(
            dataset, local_runner=self._run_local_sharded, call_index=call_index
        )

    def anonymize_stream(
        self, datasets: Iterable[TrajectoryDataset]
    ) -> Iterator[tuple[TrajectoryDataset, AnonymizationReport]]:
        """Lazily anonymize a stream of datasets, one worker each.

        Datasets are pulled from the (possibly lazy — e.g.
        :func:`repro.data.stream.chunked` over a streaming reader)
        iterable only as pool slots free up, with at most a small
        bounded window in flight, so a sweep far larger than memory
        works. Yields ``(anonymized, report)`` pairs in input order;
        each dataset draws the same per-call noise stream the ``i``-th
        sequential ``anonymize`` call on the wrapped instance would.
        With ``workers <= 1`` the same worker function runs in process.

        A closed engine refuses eagerly, at the call — not on first
        iteration of the returned generator.
        """
        self._ensure_open()
        config = self.anonymizer.config()
        payloads = (
            (config, self.anonymizer.reserve_call_index(), dataset)
            for dataset in datasets
        )
        return parallel_map_stream(_anonymize_one, payloads, workers=self.workers)

    def anonymize_many(
        self, datasets: Iterable[TrajectoryDataset]
    ) -> list[tuple[TrajectoryDataset, AnonymizationReport]]:
        """Anonymize a sweep of datasets, one worker each.

        Equivalent to calling ``anonymize`` on the wrapped instance
        once per dataset in order (each dataset gets its own per-call
        noise stream); the wrapped instance's call counter advances
        accordingly. Returns ``(anonymized, report)`` pairs in input
        order. The input may be any iterable — it is consumed
        incrementally (see :meth:`anonymize_stream`); only the results
        are accumulated.
        """
        return list(self.anonymize_stream(datasets))

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
