"""The whole-dataset streaming publisher.

``BatchAnonymizer.anonymize_stream`` over ``chunked()`` readers treats
every chunk as its own release: each chunk draws its own noisy TF over
its own candidate set, so the published stream is k independent DP
releases with no shared target and no budget story for the dataset as
a whole.  :class:`StreamPublisher` closes that gap with a **two-pass**
protocol that publishes one consistent ε-DP release of the entire
(possibly larger-than-memory) dataset:

* **Pass 1 — estimate.**  Stream the chunks **once**, accumulating the
  dataset-wide TF distribution, the dataset size ``N``, and the union
  candidate set P (chunk-local signature extraction), while **spilling**
  each parsed chunk to a staging directory
  (:mod:`repro.engine.spill`) so the raw source is never re-opened or
  re-parsed.  Once accumulation finishes, draw **one** noisy TF over P
  with the global mechanism's ε_G — the only whole-dataset mechanism
  invocation.
* **Pass 2 — realise.**  Apportion each location's shared TF delta
  across the chunks (balanced by default — see :meth:`chunk_targets`),
  replay each chunk from its spill, and anonymize it via the existing
  wave pipeline with its apportioned target injected (``tf_target``) —
  pure modification, no fresh TF draw.  The local PF stage runs per
  chunk as usual.

The two passes are **pipelined**: pass-2 jobs dispatch through
:func:`~repro.engine.pool.parallel_map_stream`, so with
``publish workers > 1`` spilled chunks are realised concurrently
across a process pool (workers receive the spec, the apportioned
target, and the shared ``base_seed``, and ship back CSV bytes plus the
chunk report), behind a bounded in-flight ``window`` that caps both
memory and spill-disk usage.  When the spec has no global mechanism
there is no shared draw to wait for, so realisation of chunk k starts
as soon as its spill lands, while pass 1 is still parsing chunk k+1;
with a global mechanism the one shared TF draw necessarily gates
realisation (the target depends on the whole stream), but only
realisation — parsing, accumulation, and spilling never stall on it.

Accounting (:mod:`repro.core.accounting`): the shared TF draw is one
*sequential* draw over the whole dataset; the per-chunk local PF draws
cover **disjoint** trajectory sets and compose in *parallel*, so the
end-to-end budget is ε_G + max(ε_L) = ε_G + ε_L — exactly the declared
split, independent of the number of chunks or the executor that
realised them.  The merged :class:`PublishReport` carries the full
:class:`CompositionLedger`.

Determinism: the publisher reserves one call index and derives one
``base_seed`` shared by every chunk (per-trajectory local streams are
keyed by object id, so chunks never collide).  Output order and bytes
are identical across serial, thread, and process executors for the
same seed, and a single-chunk publish is **byte-identical** to
``anonymize`` on the same seeded configuration.
"""

from __future__ import annotations

import csv
import io
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.core.accounting import WHOLE_DATASET, CompositionLedger, apportion
from repro.core.global_mechanism import TFPerturbation
from repro.core.modification import ModificationReport
from repro.core.pipeline import (
    AnonymizationReport,
    FrequencyAnonymizer,
    derive_seed,
)
from repro.engine.batch import BatchAnonymizer
from repro.engine.pool import (
    EXECUTOR_KINDS,
    parallel_map_stream,
    resolve_workers,
)
from repro.engine.spill import SpillStore, read_spill
from repro.trajectory.io import write_csv_rows
from repro.trajectory.model import LocationKey, TrajectoryDataset

if TYPE_CHECKING:  # engine sits below repro.api; runtime imports are lazy
    from repro.api.spec import MethodSpec

#: Chunk sink: receives each anonymized chunk as soon as it is ready
#: (write it out, ship it, …) so the publisher never holds the stream.
ChunkSink = Callable[[TrajectoryDataset, AnonymizationReport], None]

#: Byte sink: like :data:`ChunkSink` but receives the chunk's CSV data
#: rows already encoded (the exact ``write_csv_rows`` bytes). This is
#: the fast path for file output — process workers encode rows
#: worker-side, so the parent only writes bytes.
ChunkByteSink = Callable[[bytes, AnonymizationReport], None]

#: A chunk source: a zero-argument factory returning one iteration over
#: the chunks. The publisher calls it **exactly once** per publish —
#: pass 1 spills every parsed chunk, so a one-shot stream (a socket, a
#: decompressing reader) is a valid source.
ChunkSource = Callable[[], Iterable[TrajectoryDataset]]

#: Label of the shared whole-dataset TF draw in the ledger.
SHARED_TF_LABEL = "global TF randomization"
#: Parallel group of the per-chunk local PF draws.
LOCAL_GROUP = "local PF randomization"

#: How :meth:`StreamPublisher.chunk_targets` splits shared TF deltas.
APPORTIONMENT_KINDS = ("balanced", "proportional")


def chunk_source(
    ref, chunk_size: int, registry=None
) -> ChunkSource:
    """A chunk source over any dataset reference.

    ``ref`` is anything :func:`repro.data.registry.stream_dataset`
    accepts (planar CSV path, artifact directory, or registry
    ``name[@version]``). The publisher opens the source exactly once
    and streams it with bounded memory.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    from repro.data.registry import stream_dataset
    from repro.data.stream import chunked

    def factory() -> Iterator[TrajectoryDataset]:
        return chunked(stream_dataset(ref, registry), chunk_size)

    return factory


def csv_chunk_bytes(dataset: TrajectoryDataset) -> bytes:
    """The chunk's CSV data rows (no header) as bytes.

    Exactly the bytes ``write_csv_rows`` would put on disk — one
    definition of the row format, so worker-encoded chunks cannot
    drift from the serial writer.
    """
    buffer = io.StringIO(newline="")
    write_csv_rows(csv.writer(buffer), dataset)
    return buffer.getvalue().encode("utf-8")


@dataclass(slots=True)
class SharedTFEstimate:
    """Outcome of pass 1: the one whole-dataset noisy TF draw."""

    #: The shared perturbation over the union candidate set P, or
    #: ``None`` when the global mechanism is disabled (PureL-style
    #: publishing needs no TF target — parallel local releases only).
    perturbation: TFPerturbation | None
    #: Trajectories seen across all chunks.
    n_total: int
    #: Per-chunk trajectory counts, in stream order.
    chunk_sizes: list[int]
    #: Per-chunk *nonzero* TF restricted to P, in stream order —
    #: sparse, so memory stays O(occupied locations), not O(k·|P|).
    chunk_tf: list[dict[LocationKey, int]]
    #: The reserved per-call noise-stream index of this publish.
    call_index: int
    #: The noise base every chunk of pass 2 shares.
    base_seed: int

    @property
    def chunk_count(self) -> int:
        return len(self.chunk_sizes)


@dataclass(slots=True)
class PublishReport:
    """Everything observable about one published stream."""

    #: End-to-end ε composed from the ledger (== the declared split).
    epsilon_total: float
    #: The composition ledger behind :attr:`epsilon_total`.
    accounting: CompositionLedger
    #: Chunks published.
    chunk_count: int
    #: Trajectories published across all chunks.
    trajectories: int
    #: |P| — locations of the shared TF target (0 when global is off).
    tf_locations: int
    #: Sum of the per-chunk modification costs.
    utility_loss: float
    #: Per-chunk summaries, in stream order.
    chunks: list[dict] = field(default_factory=list)
    #: Provenance: the configuration that produced this stream.
    spec: "MethodSpec | None" = None
    #: Wall-clock seconds (both passes).
    seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable merged report (the artifact's audit trail)."""
        return {
            "method": (
                None
                if self.spec is None
                else {**self.spec.to_dict(), "digest": self.spec.digest}
            ),
            "epsilon_total": self.epsilon_total,
            "accounting": self.accounting.to_dict(),
            "chunk_count": self.chunk_count,
            "trajectories": self.trajectories,
            "tf_locations": self.tf_locations,
            "utility_loss_m": self.utility_loss,
            "chunks": list(self.chunks),
            "seconds": self.seconds,
        }


@dataclass(frozen=True, slots=True)
class _ChunkJob:
    """One pass-2 realisation job — plain data, crosses process lines."""

    index: int
    #: Spill file holding the parsed chunk.
    path: str
    #: Trajectory count pass 1 recorded (spill validation pins it).
    expected: int
    #: ``FrequencyAnonymizer`` constructor kwargs for worker-side
    #: rebuild, or ``None`` on the in-process path.
    spec_params: dict | None
    #: The chunk's apportioned TF target (``None`` without a global).
    target: TFPerturbation | None
    #: The publish-wide noise base.
    base_seed: int
    #: Ledger scope of this chunk's local draws.
    scope: str
    #: Whether the caller's sinks need the dataset / the CSV bytes.
    want_dataset: bool
    want_bytes: bool


@dataclass(slots=True)
class _ChunkOutcome:
    """What comes back from realising one chunk."""

    index: int
    trajectories: int
    report: AnonymizationReport
    dataset: TrajectoryDataset | None
    payload: bytes | None


def _package(
    job: _ChunkJob,
    result: TrajectoryDataset,
    report: AnonymizationReport,
) -> _ChunkOutcome:
    return _ChunkOutcome(
        index=job.index,
        trajectories=len(result),
        report=report,
        dataset=result if job.want_dataset else None,
        payload=csv_chunk_bytes(result) if job.want_bytes else None,
    )


def _realize_spilled_chunk(job: _ChunkJob) -> _ChunkOutcome:
    """Worker: replay one spilled chunk and realise its target.

    Runs in a pool worker (its own process under the default
    executor): rebuilds the pipeline from the job's constructor
    kwargs, loads and validates the spill, and realises the injected
    target with the shared ``base_seed`` — exactly the serial
    publisher's per-chunk call, so the bytes cannot differ.
    """
    chunk = read_spill(
        job.path, index=job.index, expected_trajectories=job.expected
    )
    assert job.spec_params is not None
    anonymizer = FrequencyAnonymizer(**job.spec_params)
    result, report = anonymizer.anonymize_with_report(
        chunk,
        tf_target=job.target,
        base_seed=job.base_seed,
        scope=job.scope,
    )
    return _package(job, result, report)


class _PassOneAccumulator:
    """Streaming pass-1 state: sizes, TF partials, candidate union."""

    def __init__(self, anonymizer: FrequencyAnonymizer) -> None:
        self._anonymizer = anonymizer
        self._needs_tf = anonymizer._global is not None
        self._global_tf: Counter = Counter()
        self._candidate_set: set[LocationKey] = set()
        self._chunk_tfs: list[Counter] = []
        self.sizes: list[int] = []

    def add(self, chunk: TrajectoryDataset) -> None:
        self.sizes.append(len(chunk))
        if not self._needs_tf:
            # Without a global mechanism there is no shared target to
            # estimate; only the chunk sizes matter, so skip the full
            # counting scan of the stream.
            return
        tf = chunk.trajectory_frequencies()
        self._chunk_tfs.append(tf)
        self._global_tf.update(tf)
        index = self._anonymizer.extractor.extract(chunk, tf=tf)
        self._candidate_set.update(index.candidate_set)

    def finish(
        self, call_index: int, base_seed: int, ledger: CompositionLedger
    ) -> SharedTFEstimate:
        """Draw the shared noisy TF over everything accumulated.

        The one whole-dataset draw is recorded in ``ledger`` at draw
        time — the ε_G spend and the noise it bought never separate.
        """
        if not self.sizes:
            raise ValueError("cannot publish an empty stream (no chunks)")
        n_total = sum(self.sizes)
        anonymizer = self._anonymizer
        perturbation = None
        if self._needs_tf:
            shared_tf = {
                loc: self._global_tf[loc] for loc in self._candidate_set
            }
            rng = random.Random(derive_seed(base_seed, "global"))
            perturbation = anonymizer._global.perturb(
                shared_tf, n_total, rng
            )
            ledger.record(
                SHARED_TF_LABEL,
                anonymizer.epsilon_global,
                scope=WHOLE_DATASET,
            )
        restricted = [
            {
                loc: count
                for loc, count in tf.items()
                if loc in self._candidate_set
            }
            for tf in self._chunk_tfs
        ]
        return SharedTFEstimate(
            perturbation=perturbation,
            n_total=n_total,
            chunk_sizes=list(self.sizes),
            chunk_tf=restricted,
            call_index=call_index,
            base_seed=base_seed,
        )


class StreamPublisher:
    """Pipelined two-pass whole-dataset publisher over a chunked stream.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.batch.BatchAnonymizer` (the in-process
        path then shards each chunk's local stage) or a bare
        :class:`~repro.core.pipeline.FrequencyAnonymizer`.  The
        wrapped pipeline's ``epsilon_global`` / ``epsilon_local`` *are*
        the budget split: ε_G buys the one shared TF estimate of
        pass 1, ε_L the parallel per-chunk local randomization of
        pass 2.
    workers:
        Pass-2 fan-out: how many spilled chunks to realise at once.
        ``1`` (default) keeps realisation in-process; ``0``/``None``
        means one worker per CPU core. Output bytes and order are
        identical for every value.
    executor:
        ``"process"`` (default), ``"thread"``, or ``"serial"`` — the
        pool kind behind ``workers`` (see :mod:`repro.engine.pool`).
    spill_dir:
        Where pass 1 stages parsed chunks. Default: a private tempdir,
        removed when the publish finishes (success or failure). An
        explicit directory (e.g. registry staging space) has its
        staged files cleaned the same way.
    window:
        In-flight bound for the pass-1/pass-2 pipeline — at most this
        many chunks are spilled-but-unpublished at once, capping
        memory and spill disk. Default ``max(4, 2 * workers)``.
    apportionment:
        ``"balanced"`` (default) or ``"proportional"`` — see
        :meth:`chunk_targets`.
    """

    def __init__(
        self,
        engine: BatchAnonymizer | FrequencyAnonymizer,
        *,
        workers: int | None = 1,
        executor: str = "process",
        spill_dir=None,
        window: int | None = None,
        apportionment: str = "balanced",
    ) -> None:
        if isinstance(engine, BatchAnonymizer):
            self.engine = engine
            self.anonymizer = engine.anonymizer
        elif isinstance(engine, FrequencyAnonymizer):
            self.engine = engine
            self.anonymizer = engine
        else:
            raise TypeError(
                f"StreamPublisher needs a FrequencyAnonymizer or "
                f"BatchAnonymizer, got {type(engine).__name__}"
            )
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTOR_KINDS}"
            )
        if apportionment not in APPORTIONMENT_KINDS:
            raise ValueError(
                f"unknown apportionment {apportionment!r}; choose from "
                f"{APPORTIONMENT_KINDS}"
            )
        if window is not None and window < 1:
            raise ValueError(f"window must be at least 1, got {window}")
        if self.anonymizer._global is not None and not self.anonymizer.global_first:
            # The shared TF is estimated over the *raw* stream; with
            # local-first ordering the pipeline would perturb the TF of
            # the locally-modified data instead, so the two would
            # silently diverge (and single-chunk byte-identity fail).
            raise ValueError(
                "StreamPublisher requires global_first=True when the "
                "global mechanism is enabled: the shared TF estimate is "
                "drawn over the raw stream"
            )
        self.workers = resolve_workers(workers)
        self.executor = executor
        self.spill_dir = spill_dir
        self.window = (
            max(4, 2 * self.workers) if window is None else window
        )
        self.apportionment = apportionment
        self._closed = False

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Terminal close, mirroring ``BatchAnonymizer.close``.

        Spill staging is scoped to each :meth:`publish` call and is
        cleaned there (success and failure alike); ``close`` marks the
        publisher itself unusable so long-lived holders get the same
        closed-means-closed contract as the batch engine. Idempotent.
        """
        self._closed = True

    def __enter__(self) -> "StreamPublisher":
        if self._closed:
            raise RuntimeError(
                "StreamPublisher is closed; build a new publisher instead "
                "of reusing a closed one"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "StreamPublisher is closed; build a new publisher instead "
                "of reusing a closed one"
            )

    # -- pass 1 -----------------------------------------------------------------

    def estimate(self, chunks: Iterable[TrajectoryDataset]) -> SharedTFEstimate:
        """Stream the chunks once; draw the shared noisy TF over P.

        The union candidate set P comes from chunk-local signature
        extraction; the TF values over P are the exact dataset-wide
        counts, so a single-chunk stream reproduces precisely the
        ``(tf, rng)`` pair the plain pipeline would perturb — the
        byte-identity anchor. (:meth:`publish` runs the same
        accumulation inline with spilling; this standalone form is the
        analysis/inspection surface.)
        """
        accumulator = _PassOneAccumulator(self.anonymizer)
        for chunk in chunks:
            if len(chunk) == 0:
                continue
            accumulator.add(chunk)
        if not accumulator.sizes:
            raise ValueError("cannot publish an empty stream (no chunks)")
        call_index = self.anonymizer.reserve_call_index()
        # estimate() exposes pass 1 alone; the ledger that reaches the
        # caller is built by publish(), so this one is scratch.
        return accumulator.finish(
            call_index,
            self.anonymizer.base_seed_for(call_index),
            CompositionLedger(),
        )

    def chunk_targets(self, estimate: SharedTFEstimate) -> list[TFPerturbation] | None:
        """Apportion the shared TF delta into one target per chunk.

        Every location's shared delta splits across chunks so that the
        per-chunk deltas sum *exactly* to the shared delta and every
        per-chunk target stays inside ``[0, |chunk|]`` — TF decreases
        bounded by how many of the chunk's trajectories contain the
        location (you cannot delete what is not there), increases by
        how many do *not* (an insertion targets a trajectory without
        the location). Two shapes satisfy that invariant:

        * ``"balanced"`` (default): give each location's whole delta
          to as *few* chunks as possible, preferring the chunk with
          the least delta assigned so far. Chunks end up with
          near-equal total work but far fewer *distinct* perturbed
          locations each, so pass 2's global stage searches less.
        * ``"proportional"``: spread each delta across all chunks
          proportionally to capacity with largest-remainder rounding —
          closest to "every chunk looks like a miniature of the
          dataset".

        The trade-off, measured (GL, ε=1, m=10; three 120×200 fleets
        × two noise seeds; chunks of 30, in-process; 2-core host):
        balanced ran pass 2's global stage in 0.50–0.68 s against
        0.52–0.88 s (faster in 5 of 6 runs; whole-publish medians
        1.15 s against 1.42 s), while proportional had the lower
        modification utility loss in 6 of 6 (mean 1464 km against
        1547 km, all of the gap in the global stage's share: 341 km
        against 419 km). Balanced is the default for speed;
        proportional stays for utility.

        A single chunk receives the shared perturbation verbatim under
        either mode.
        """
        shared = estimate.perturbation
        if shared is None:
            return None
        k = estimate.chunk_count
        deltas: list[dict[LocationKey, int]] = [{} for _ in range(k)]
        load = [0] * k
        balanced = self.apportionment == "balanced"
        for loc in sorted(shared.original):
            d = shared.perturbed[loc] - shared.original[loc]
            if d == 0:
                continue
            origs = [estimate.chunk_tf[i].get(loc, 0) for i in range(k)]
            if d > 0:
                caps = [estimate.chunk_sizes[i] - origs[i] for i in range(k)]
            else:
                caps = origs
            if balanced:
                shares = self._balanced_shares(abs(d), caps, load)
            else:
                shares = apportion(abs(d), caps, caps)
            for i, share in enumerate(shares):
                if share:
                    deltas[i][loc] = share if d > 0 else -share
                    load[i] += share
        targets = []
        for i in range(k):
            # Sparse: the chunk's own nonzero TF plus any location its
            # delta share touches — never the full candidate set per
            # chunk (a single chunk still receives all of P, because
            # every candidate location has a nonzero dataset TF).
            original = dict(estimate.chunk_tf[i])
            perturbed = dict(original)
            for loc, share in deltas[i].items():
                perturbed[loc] = perturbed.get(loc, 0) + share
                original.setdefault(loc, 0)
            targets.append(
                TFPerturbation(
                    original=original,
                    perturbed=perturbed,
                    epsilon=shared.epsilon,
                )
            )
        return targets

    @staticmethod
    def _balanced_shares(
        units: int, caps: list[int], load: list[int]
    ) -> list[int]:
        """Concentrate ``units`` on the least-loaded chunks, capped."""
        shares = [0] * len(caps)
        remaining = units
        for i in sorted(range(len(caps)), key=lambda i: (load[i], i)):
            if remaining == 0:
                break
            take = min(caps[i], remaining)
            if take:
                shares[i] = take
                remaining -= take
        if remaining:
            # Unreachable: the mechanism clamps the shared TF into
            # [0, N], so total capacity always covers the delta.
            raise RuntimeError(
                f"apportionment shortfall: {remaining} unplaced unit(s)"
            )
        return shares

    # -- pass 2 -----------------------------------------------------------------

    def publish(
        self,
        chunks: ChunkSource,
        sink: ChunkSink | None = None,
        *,
        byte_sink: ChunkByteSink | None = None,
    ) -> PublishReport:
        """Publish the whole stream; return the merged report.

        ``chunks`` is called **exactly once**: pass 1 parses, spills,
        and accumulates each chunk as it arrives, and pass 2 realises
        from the spills — never from the source.  Each anonymized
        chunk is handed to ``sink`` (and/or its encoded rows to
        ``byte_sink``) in stream order as soon as it is ready, so the
        output can stream to disk without ever holding the dataset.
        """
        self._ensure_open()
        started = time.perf_counter()
        anonymizer = self.anonymizer
        needs_tf = anonymizer._global is not None
        call_index = anonymizer.reserve_call_index()
        base_seed = anonymizer.base_seed_for(call_index)
        parallel = self.workers > 1 and self.executor != "serial"
        spec_params = anonymizer.config() if parallel else None
        want_dataset = sink is not None
        ledger = CompositionLedger()
        state: dict = {}

        with SpillStore(
            self.spill_dir, cache=0 if parallel else self.window
        ) as store:

            def jobs() -> Iterator[_ChunkJob]:
                def job_for(index: int, target) -> _ChunkJob:
                    return _ChunkJob(
                        index=index,
                        path=str(store.path_of(index)),
                        expected=state["sizes"][index],
                        spec_params=spec_params,
                        target=target,
                        base_seed=base_seed,
                        scope=f"chunk:{index}",
                        want_dataset=want_dataset,
                        want_bytes=byte_sink is not None,
                    )

                accumulator = _PassOneAccumulator(anonymizer)
                state["sizes"] = accumulator.sizes
                for chunk in chunks():
                    if len(chunk) == 0:
                        continue
                    index = len(accumulator.sizes)
                    accumulator.add(chunk)
                    store.stage(index, chunk)
                    if not needs_tf:
                        # No shared draw to wait for: realisation of
                        # this chunk overlaps parsing of the next.
                        yield job_for(index, None)
                state["estimate"] = estimate = accumulator.finish(
                    call_index, base_seed, ledger
                )
                if needs_tf:
                    targets = self.chunk_targets(estimate)
                    assert targets is not None
                    for index, target in enumerate(targets):
                        yield job_for(index, target)

            if parallel:
                runner = _realize_spilled_chunk
            else:

                def runner(job: _ChunkJob) -> _ChunkOutcome:
                    chunk = store.load(job.index)
                    result, report = self.engine.anonymize_with_report(
                        chunk,
                        tf_target=job.target,
                        base_seed=job.base_seed,
                        scope=job.scope,
                    )
                    return _package(job, result, report)

            totals = ModificationReport()
            summaries: list[dict] = []
            trajectories = 0
            for outcome in parallel_map_stream(
                runner,
                jobs(),
                workers=self.workers if parallel else 1,
                executor=self.executor if parallel else "serial",
                window=self.window,
            ):
                report = outcome.report
                chunk_mods = ModificationReport()
                for part in (report.global_report, report.local_report):
                    if part is not None:
                        chunk_mods.merge(part)
                totals.merge(chunk_mods)
                trajectories += outcome.trajectories
                summaries.append(
                    {
                        "scope": f"chunk:{outcome.index}",
                        "trajectories": outcome.trajectories,
                        "utility_loss_m": chunk_mods.utility_loss,
                        "insertions": chunk_mods.insertions,
                        "deletions": chunk_mods.deletions,
                        "unrealised": chunk_mods.unrealised,
                    }
                )
                if sink is not None:
                    sink(outcome.dataset, report)
                if byte_sink is not None:
                    byte_sink(outcome.payload, report)
                store.remove(outcome.index)

        estimate = state["estimate"]
        # The shared ε_G draw (if any) was recorded by pass 1 at draw
        # time; the per-chunk locals compose in parallel after it.
        if anonymizer._local is not None:
            for index in range(estimate.chunk_count):
                ledger.record_parallel(
                    LOCAL_GROUP,
                    "local PF randomization",
                    anonymizer.epsilon_local,
                    scope=f"chunk:{index}",
                )

        return PublishReport(
            epsilon_total=ledger.epsilon_total,
            accounting=ledger,
            chunk_count=estimate.chunk_count,
            trajectories=trajectories,
            tf_locations=(
                0
                if estimate.perturbation is None
                else len(estimate.perturbation.original)
            ),
            utility_loss=totals.utility_loss,
            chunks=summaries,
            spec=anonymizer.spec(),
            seconds=time.perf_counter() - started,
        )

    def publish_collected(
        self, chunks: ChunkSource
    ) -> tuple[TrajectoryDataset, PublishReport]:
        """:meth:`publish`, materialising the output (tests, small data)."""
        published: list = []
        report = self.publish(
            chunks, sink=lambda dataset, _report: published.extend(dataset)
        )
        return TrajectoryDataset(published), report
