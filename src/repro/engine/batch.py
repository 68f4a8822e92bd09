"""Batch anonymization: shard the embarrassingly-parallel local stage.

The paper's pipeline has two very different halves. The global stage
edits every trajectory against one shared dataset-wide index — it is
inherently sequential (and is what the incremental ``iter_nearest``
frontier accelerates). The local stage perturbs and modifies each
trajectory independently — it is embarrassingly parallel, and at the
paper's |D| = 1000 scale dominated by per-trajectory index builds and
kNN searches that share nothing.

:class:`BatchAnonymizer` wraps any :class:`FrequencyAnonymizer` and
fans that local stage over a worker pool. Determinism is preserved by
construction: the pipeline derives each trajectory's noise stream from
``(run seed, call index, object id)`` — not from a shared sequential
RNG — so any sharding replays exactly the serial draws and the output
is byte-identical to the serial path for the same seed.
"""

from __future__ import annotations

import random
import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.local_mechanism import LocalPFMechanism, PFPerturbation
from repro.core.modification import (
    IntraTrajectoryModifier,
    ModificationReport,
    make_index_factory,
)
from repro.core.pipeline import (
    AnonymizationReport,
    FrequencyAnonymizer,
    LocalResult,
    local_stream_seed,
)
from repro.core.signature import SignatureIndex
from repro.engine.pool import (
    EXECUTOR_KINDS,
    _make_executor,
    parallel_map,
    parallel_map_stream,
    resolve_workers,
)
from repro.engine.spill import decode_chunk, encode_chunk
from repro.trajectory.model import Trajectory, TrajectoryDataset

if TYPE_CHECKING:  # engine sits below repro.api; runtime imports are lazy
    from repro.api.spec import MethodSpec


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
    seeds: list[int]
    epsilon_local: float
    signature_size: int
    index_backend: str
    levels: int
    granularity: int
    search_strategy: str


#: What a local-stage worker sends back: the modified trajectories as
#: one ``encode_chunk`` payload, plus each one's perturbation and
#: report, in shard order.
_ShardResult = tuple[bytes, list[PFPerturbation], list[ModificationReport]]


def _run_local_shard(shard: _LocalShard) -> _ShardResult:
    """Worker: the exact serial per-trajectory loop, on one shard."""
    mechanism = LocalPFMechanism(shard.epsilon_local, m=shard.signature_size)
    intra = IntraTrajectoryModifier(
        make_index_factory(
            backend=shard.index_backend,
            levels=shard.levels,
            granularity=shard.granularity,
        ),
        strategy=shard.search_strategy,
    )
    modified: list[Trajectory] = []
    perturbations: list[PFPerturbation] = []
    reports: list[ModificationReport] = []
    for trajectory, seed in zip(
        decode_chunk(shard.trajectories), shard.seeds, strict=True
    ):
        rng = random.Random(seed)
        perturbation = mechanism.perturb_trajectory(
            trajectory, shard.signature_index, rng
        )
        result, report = intra.apply(trajectory, perturbation)
        modified.append(result)
        perturbations.append(perturbation)
        reports.append(report)
    return (
        encode_chunk(TrajectoryDataset(modified)),
        perturbations,
        reports,
    )


def _anonymize_one(payload: tuple[MethodSpec, int, TrajectoryDataset]):
    """Worker: full anonymization of one dataset of a sweep.

    Rebuilds the anonymizer from its :class:`MethodSpec` (the
    declarative cross-process payload) and pins the reserved call
    index so dataset ``i`` of the sweep draws exactly the noise the
    ``i``-th sequential call on a single instance would draw.
    """
    spec, call_index, dataset = payload
    from repro.api.registry import build  # lazy: engine sits below api

    anonymizer = build(spec)
    return anonymizer.anonymize_with_report(dataset, call_index=call_index)


class BatchAnonymizer:
    """Parallel front-end for a :class:`FrequencyAnonymizer`.

    Parameters
    ----------
    anonymizer:
        The configured pipeline to accelerate. Its global stage runs
        unchanged in-process; its local stage is sharded.
    workers:
        Pool size; ``0``/``None`` means one worker per CPU core,
        ``1`` keeps everything serial (but still byte-identical).
    executor:
        ``"process"`` (default), ``"thread"``, or ``"serial"`` — see
        :mod:`repro.engine.pool`.
    shards_per_worker:
        Shards are contiguous dataset slices; a few shards per worker
        smooths out uneven trajectory lengths without drowning the pool
        in pickling overhead.
    global_workers:
        Pool size for the global stage's wave planning (``0``/``None``
        = one per core, ``1`` = plan in-process). The planner's
        per-location simulations are read-only against a shared index,
        so they fan over a *thread* pool regardless of ``executor``
        (processes cannot share the live index); output stays
        byte-identical for any value. Only applies when the wrapped
        pipeline uses ``candidate_source="wave"`` (opt-in; the default
        serial loop plans nothing, so no pool is created for it). The
        pool is created lazily on first use and **reused** across
        calls and stream chunks; release it deterministically with
        :meth:`close` or by using the engine as a context manager.
        Closing is terminal: a closed engine raises ``RuntimeError``
        on further use (long-lived holders like the serving daemon
        rely on close meaning *closed*, not *paused*).
    """

    def __init__(
        self,
        anonymizer: FrequencyAnonymizer,
        workers: int | None = None,
        executor: str = "process",
        shards_per_worker: int = 4,
        global_workers: int | None = 1,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_KINDS}"
            )
        if shards_per_worker < 1:
            raise ValueError("shards_per_worker must be at least 1")
        self.anonymizer = anonymizer
        self.workers = resolve_workers(workers)
        self.executor = executor
        self.shards_per_worker = shards_per_worker
        self.global_workers = resolve_workers(global_workers)
        #: The shared wave-planning thread pool (lazy; see
        #: :meth:`_ensure_global_pool`). ``_global_pool_unavailable``
        #: remembers a failed creation so an environment without
        #: threads is not re-probed on every call.
        self._global_pool = None
        self._global_pool_unavailable = False
        self._global_pool_lock = threading.Lock()
        self._closed = False

    # -- pool lifecycle ---------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "BatchAnonymizer is closed; build a new engine instead "
                "of reusing a closed one"
            )

    def _ensure_global_pool(self):
        """The wave-planning thread pool, created once and reused.

        Returns ``None`` when ``global_workers <= 1``, when the
        wrapped pipeline does not plan waves (only
        ``candidate_source="wave"`` calls ``wave_map``), or when the
        environment cannot create thread pools (the serial planning
        path is always equivalent). Creation is locked so the
        documented concurrent-call safety holds: racing first calls
        must not each build a pool and leak all but one.
        """
        if self.global_workers <= 1 or self.anonymizer.candidate_source != "wave":
            return None
        with self._global_pool_lock:
            self._ensure_open()
            if self._global_pool_unavailable:
                return None
            if self._global_pool is None:
                pool = _make_executor("thread", self.global_workers)
                if pool is None:
                    self._global_pool_unavailable = True
                    return None
                self._global_pool = pool
            return self._global_pool

    def close(self) -> None:
        """Shut the engine down deterministically: idempotent, terminal.

        Releases the shared wave-planning pool; any later
        ``anonymize*`` call (or context-manager re-entry) raises
        ``RuntimeError`` — long-lived holders depend on a closed
        engine staying closed rather than silently reviving its pool.
        Like shutting any executor, ``close`` must not race calls
        still in flight: let concurrent ``anonymize*`` calls finish
        first (the context-manager form sequences this naturally).
        """
        with self._global_pool_lock:
            self._closed = True
            pool = self._global_pool
            self._global_pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "BatchAnonymizer":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def last_report(self) -> AnonymizationReport | None:
        """Deprecated: the wrapped anonymizer's most recent report.

        Mutable shared state — concurrent runs clobber it. Use
        :meth:`anonymize_with_report` (or :func:`repro.api.run`), which
        return the report with the result.
        """
        warnings.warn(
            "BatchAnonymizer.last_report is deprecated; use "
            "anonymize_with_report() or repro.api.run(), which return "
            "the report with the result",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.anonymizer._last_report

    def anonymize(self, dataset: TrajectoryDataset) -> TrajectoryDataset:
        """ε-DP anonymization, local stage fanned across the pool.

        Byte-identical to ``self.anonymizer.anonymize(dataset)`` for
        the same seed and call index. Also refreshes the deprecated
        ``last_report`` alias; prefer :meth:`anonymize_with_report`.
        """
        result, report = self.anonymize_with_report(dataset)
        self.anonymizer._last_report = report
        return result

    def anonymize_with_report(
        self, dataset: TrajectoryDataset, **hooks
    ) -> tuple[TrajectoryDataset, AnonymizationReport]:
        """Anonymize and return ``(dataset, report)`` together.

        Nothing is stored on the wrapped anonymizer — the sharding and
        wave-planning hooks travel as per-call arguments — so
        concurrent calls on one engine are safe: each gets its own
        report and its own atomically reserved noise stream. Extra
        keyword arguments (``tf_target``, ``base_seed``, ``scope``,
        ``call_index``) are forwarded to
        :meth:`FrequencyAnonymizer.anonymize_with_report` — the
        streaming publisher's injection surface.

        The wave-planning thread pool (``global_workers > 1`` with
        ``candidate_source="wave"``) is created lazily on the first
        call and reused by every later call and stream chunk; see
        :meth:`close`.
        """
        self._ensure_open()
        pool = self._ensure_global_pool()
        if pool is not None:
            hooks.setdefault(
                "wave_map", lambda fn, jobs: list(pool.map(fn, jobs))
            )
        return self.anonymizer.anonymize_with_report(
            dataset, local_runner=self._run_local_sharded, **hooks
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

        The in-process path (``workers <= 1`` or ``executor="serial"``)
        runs chunks through :meth:`anonymize_with_report` directly, so
        the lazily-created wave-planning pool is shared across all
        chunks instead of being rebuilt per chunk.

        A closed engine refuses eagerly, at the call — not on first
        iteration of the returned generator.
        """
        self._ensure_open()
        return self._anonymize_stream_inner(datasets)

    def _anonymize_stream_inner(
        self, datasets: Iterable[TrajectoryDataset]
    ) -> Iterator[tuple[TrajectoryDataset, AnonymizationReport]]:
        if self.workers <= 1 or self.executor == "serial":
            for dataset in datasets:
                result, report = self.anonymize_with_report(
                    dataset, call_index=self.anonymizer.reserve_call_index()
                )
                self.anonymizer._last_report = report
                yield result, report
            return

        spec = self.anonymizer.spec()

        def payloads() -> Iterator[tuple[MethodSpec, int, TrajectoryDataset]]:
            for dataset in datasets:
                yield (spec, self.anonymizer.reserve_call_index(), dataset)

        for result, report in parallel_map_stream(
            _anonymize_one,
            payloads(),
            workers=self.workers,
            executor=self.executor,
        ):
            # Keep the deprecated last_report alias fresh: the sweep
            # ran on throwaway worker-side instances, so reflect each
            # report onto the wrapped anonymizer. The authoritative
            # channel is the yielded (result, report) pair.
            self.anonymizer._last_report = report
            yield result, report

    def publish(
        self,
        chunks,
        sink=None,
        *,
        byte_sink=None,
        publish_workers: int | None = 1,
        publish_executor: str = "process",
        spill_dir=None,
        window: int | None = None,
        apportionment: str = "balanced",
    ):
        """Publish a chunked stream as **one** ε-DP release.

        Convenience front for
        :class:`~repro.engine.publish.StreamPublisher` wrapping this
        engine: the in-process realisation path reuses this engine's
        sharding and wave-planning pools, while ``publish_workers > 1``
        fans spilled chunks over a separate pass-2 pool (chunks are
        then realised by worker-side rebuilt pipelines; output stays
        byte-identical either way). See ``StreamPublisher`` for the
        knobs; returns the merged
        :class:`~repro.engine.publish.PublishReport`.
        """
        self._ensure_open()
        from repro.engine.publish import StreamPublisher  # lazy: cycle

        with StreamPublisher(
            self,
            workers=publish_workers,
            executor=publish_executor,
            spill_dir=spill_dir,
            window=window,
            apportionment=apportionment,
        ) as publisher:
            return publisher.publish(chunks, sink=sink, byte_sink=byte_sink)

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
            1, min(len(trajectories), self.workers * self.shards_per_worker)
        )
        if shard_count == 1 or self.workers <= 1:
            return self.anonymizer._run_local_serial(
                dataset, signature_index, base_seed
            )
        shards = [
            self._make_shard(chunk, signature_index, base_seed)
            for chunk in _chunks(trajectories, shard_count)
        ]
        results = parallel_map(
            _run_local_shard, shards, workers=self.workers, executor=self.executor
        )
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
        anonymizer = self.anonymizer
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
            seeds=[
                local_stream_seed(base_seed, t.object_id) for t in chunk
            ],
            epsilon_local=anonymizer.epsilon_local,
            signature_size=anonymizer.signature_size,
            index_backend=anonymizer.index_backend,
            levels=anonymizer.levels,
            granularity=anonymizer.granularity,
            search_strategy=anonymizer.search_strategy,
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
