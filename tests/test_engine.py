"""Tests for the batch anonymization engine (repro.engine).

The load-bearing guarantee: for the same seed, the sharded/parallel
paths are *byte-identical* to the serial pipeline — sharding must never
change the published data.
"""

import pickle

import numpy as np
import pytest

from repro.core.pipeline import GL, PureL
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.engine import (
    BatchAnonymizer,
    SpillStore,
    StreamPublisher,
    parallel_map,
    parallel_map_stream,
    resolve_workers,
)
from repro.engine import batch as batch_module
from repro.engine.batch import _chunks, _run_local_shard
from repro.engine.spill import decode_chunk
from repro.experiments.publish import per_chunk_release


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetConfig(n_objects=14, points_per_trajectory=70, rows=10, cols=10, seed=3)
    )


@pytest.fixture
def always_shard(monkeypatch):
    """Cross the pool even for a fleet below the size rule's bound."""
    monkeypatch.setattr(batch_module, "MIN_POINTS_PER_WORKER", 0)


def coords_of(dataset):
    return [[p.coord for p in trajectory] for trajectory in dataset]


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        assert parallel_map(lambda x: x * 2, range(5), workers=1) == [0, 2, 4, 6, 8]

    def test_thread_pool_preserves_order(self, thread_pool):
        got = parallel_map(lambda x: x * x, range(20), workers=4)
        assert got == [x * x for x in range(20)]

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_zero_workers_means_all_cores(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1

    def test_exceptions_propagate(self, thread_pool):
        def boom(x):
            raise RuntimeError("job failed")

        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2, 3], workers=2)


class TestParallelMapStream:
    def test_preserves_order(self):
        got = list(
            parallel_map_stream(
                lambda x: x * x, range(20), workers=4, executor="thread"
            )
        )
        assert got == [x * x for x in range(20)]

    def test_serial_path_is_lazy(self):
        pulled = []

        def source():
            for i in range(10):
                pulled.append(i)
                yield i

        stream = parallel_map_stream(lambda x: x, source(), workers=1)
        assert next(stream) == 0
        assert pulled == [0]

    def test_pool_path_bounds_in_flight_window(self):
        pulled = []

        def source():
            for i in range(50):
                pulled.append(i)
                yield i

        stream = parallel_map_stream(
            lambda x: x, source(), workers=2, executor="thread"
        )
        assert next(stream) == 0
        # The default window is two items in flight per worker, +1 for
        # the element pulled after the first yield resumed the loop.
        assert len(pulled) <= 5

    def test_rejects_bad_arguments(self):
        # Threads and processes are the pool kinds; workers <= 1 is
        # the in-process map, so "serial" is not a kind.
        for executor in ("gpu", "serial"):
            with pytest.raises(ValueError, match="unknown executor"):
                list(parallel_map_stream(lambda x: x, [1], executor=executor))

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("job failed")

        with pytest.raises(RuntimeError):
            list(parallel_map_stream(boom, [1, 2], workers=2, executor="thread"))


class TestChunks:
    def test_partition_covers_all_in_order(self):
        items = list(range(11))
        chunks = _chunks(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_more_chunks_than_items(self):
        chunks = _chunks([1, 2], 5)
        assert chunks == [[1], [2]]


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestLocalShardPayload:
    """Shards and results cross the process boundary as spill-codec
    bytes, not as pickled Point objects."""

    def test_shard_unpacks_bitwise(self, fleet):
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=26)
        engine = BatchAnonymizer(anonymizer, workers=2)
        signature_index = anonymizer.extractor.extract(fleet.dataset)
        trajectories = list(fleet.dataset)
        shard = engine._make_shard(trajectories, signature_index, base_seed=5)
        assert isinstance(shard.trajectories, bytes)
        assert b"Point" not in pickle.dumps(shard)
        unpacked = list(decode_chunk(shard.trajectories))
        assert [t.object_id for t in unpacked] == [t.object_id for t in trajectories]
        for original, restored in zip(trajectories, unpacked, strict=True):
            for field in ("x", "y", "t"):
                assert float_bits([getattr(p, field) for p in restored]) == float_bits(
                    [getattr(p, field) for p in original]
                )

    def test_shard_result_carries_no_points(self, fleet):
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=28)
        engine = BatchAnonymizer(anonymizer, workers=2)
        signature_index = anonymizer.extractor.extract(fleet.dataset)
        shard = engine._make_shard(
            list(fleet.dataset)[:3], signature_index, base_seed=5
        )
        payload, perturbations, reports = _run_local_shard(shard)
        assert b"Point" not in pickle.dumps(payload)
        assert len(decode_chunk(payload)) == len(perturbations) == len(reports) == 3

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_sharded_results_equal_serial(
        self, fleet, pool, always_shard, request
    ):
        if pool == "thread":
            request.getfixturevalue("thread_pool")
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=27)
        signature_index = anonymizer.extractor.extract(fleet.dataset)
        serial = anonymizer._run_local_serial(fleet.dataset, signature_index, 9)
        engine = BatchAnonymizer(anonymizer, workers=2)
        sharded = engine._run_local_sharded(fleet.dataset, signature_index, 9)
        assert len(sharded) == len(serial)
        for (oid, pert, traj, report), (oid2, pert2, traj2, report2) in zip(
            serial, sharded, strict=True
        ):
            assert (oid2, pert2, report2) == (oid, pert, report)
            assert traj2.object_id == traj.object_id
            assert [(p.x, p.y, p.t) for p in traj2] == [(p.x, p.y, p.t) for p in traj]


class TestPoolSizeRule:
    """The local stage forks only for a dataset of at least
    ``workers * MIN_POINTS_PER_WORKER`` points."""

    def _run(self, fleet, monkeypatch, min_points, map_fn):
        monkeypatch.setattr(batch_module, "MIN_POINTS_PER_WORKER", min_points)
        monkeypatch.setattr(batch_module, "parallel_map", map_fn)
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=29)
        signature_index = anonymizer.extractor.extract(fleet.dataset)
        engine = BatchAnonymizer(anonymizer, workers=2)
        return engine._run_local_sharded(fleet.dataset, signature_index, 9)

    def test_below_the_bound_runs_in_process(self, fleet, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the local stage crossed the pool")

        bound = fleet.dataset.total_points() // 2 + 1  # 2 workers
        results = self._run(fleet, monkeypatch, bound, refuse)
        assert len(results) == len(fleet.dataset)

    def test_at_the_bound_crosses_the_pool(self, fleet, monkeypatch):
        calls = []

        def spy(fn, items, **kwargs):
            calls.append(len(items))
            return parallel_map(fn, items, **kwargs)

        total = fleet.dataset.total_points()
        assert total % 2 == 0
        results = self._run(fleet, monkeypatch, total // 2, spy)
        assert calls == [8]  # 2 workers x 4 shards each
        assert len(results) == len(fleet.dataset)


class TestBatchAnonymizer:
    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    def test_byte_identical_to_serial(self, fleet, pool, always_shard, request):
        """In process (one worker), on the thread seam, and across real
        worker processes."""
        if pool == "thread":
            request.getfixturevalue("thread_pool")
        serial = GL(epsilon=1.0, signature_size=3, seed=21).anonymize(fleet.dataset)
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=21)
        engine = BatchAnonymizer(anonymizer, workers=1 if pool == "serial" else 3)
        batched = engine.anonymize_with_report(fleet.dataset)[0]
        assert coords_of(batched) == coords_of(serial)
        # Timestamps too: truly byte-identical trajectories.
        for a, b in zip(serial, batched, strict=True):
            assert [p.t for p in a] == [p.t for p in b]

    def test_report_identical_to_serial(self, fleet, always_shard):
        reference = GL(epsilon=1.0, signature_size=3, seed=22)
        _, expected = reference.anonymize_with_report(fleet.dataset)
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=22)
        engine = BatchAnonymizer(anonymizer, workers=4)
        _, report = engine.anonymize_with_report(fleet.dataset)
        assert report is not None
        assert report.to_dict() == expected.to_dict()

    def test_workers_one_matches_serial(self, fleet):
        serial = PureL(epsilon=0.5, signature_size=3, seed=23).anonymize(fleet.dataset)
        engine = BatchAnonymizer(
            PureL(epsilon=0.5, signature_size=3, seed=23), workers=1
        )
        assert coords_of(engine.anonymize_with_report(fleet.dataset)[0]) == coords_of(serial)

    def test_shard_count_independent(
        self, fleet, always_shard, monkeypatch, thread_pool
    ):
        """Output must not depend on how the dataset is sliced."""
        results = []
        for shards in (1, 2, 7):
            monkeypatch.setattr(batch_module, "SHARDS_PER_WORKER", shards)
            engine = BatchAnonymizer(
                PureL(epsilon=0.5, signature_size=3, seed=24), workers=2
            )
            results.append(coords_of(engine.anonymize_with_report(fleet.dataset)[0]))
        assert results[0] == results[1] == results[2]

    def test_rejects_bad_configuration(self, fleet):
        with pytest.raises(ValueError, match="workers"):
            BatchAnonymizer(GL(epsilon=1.0, seed=0), workers=-1)

    def test_no_runner_state_left_on_wrapped_anonymizer(self, fleet):
        """The sharding hook travels as a per-call argument, never as
        instance state (the old _local_runner mutation is gone)."""
        anonymizer = PureL(epsilon=0.5, signature_size=3, seed=27)
        engine = BatchAnonymizer(anonymizer, workers=2)
        engine.anonymize_with_report(fleet.dataset)[0]
        assert not hasattr(anonymizer, "_local_runner")

    def test_config_roundtrip(self):
        from repro.core.pipeline import FrequencyAnonymizer

        original = GL(epsilon=2.0, signature_size=4, seed=5)
        rebuilt = FrequencyAnonymizer(**original.config())
        assert rebuilt.epsilon == pytest.approx(original.epsilon)
        assert rebuilt.config() == original.config()


class TestPerChunkRelease:
    """``repro experiment publish``'s per-chunk baseline: chunk ``i``
    is the ``i``-th sequential call on the one anonymizer, in process
    or across worker processes."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_per_chunk_release_matches_sequential_calls(self, fleet, workers):
        sequential = GL(epsilon=1.0, signature_size=3, seed=25)
        expected = [
            coords_of(sequential.anonymize_with_report(fleet.dataset)[0])
            for _ in range(3)
        ]
        # Per-call streams: successive calls must differ.
        assert expected[0] != expected[1]
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=25)
        released = per_chunk_release(anonymizer, [fleet.dataset] * 3, workers)
        assert [coords_of(chunk) for chunk in released] == expected
        # The instance's call counter advanced by the chunk count, so a
        # later call draws a fresh stream.
        assert anonymizer.reserve_call_index() == 3


class TestRetiredSettings:
    """The engine layer has one pool kind per call site, one
    apportionment policy, a derived publisher window and no decoded
    spill cache: each retired keyword is refused by name, even at its
    old default."""

    @pytest.mark.parametrize(
        "call, keyword, value",
        [
            pytest.param(
                lambda **kw: BatchAnonymizer(GL(epsilon=1.0), **kw),
                "executor", "process", id="BatchAnonymizer-executor",
            ),
            pytest.param(
                lambda **kw: StreamPublisher(GL(epsilon=1.0), **kw),
                "executor", "process", id="StreamPublisher-executor",
            ),
            pytest.param(
                lambda **kw: StreamPublisher(GL(epsilon=1.0), **kw),
                "apportionment", "balanced", id="StreamPublisher-apportionment",
            ),
            pytest.param(
                lambda **kw: StreamPublisher(GL(epsilon=1.0), **kw),
                "window", 4, id="StreamPublisher-window",
            ),
            pytest.param(
                lambda **kw: parallel_map(int, [], **kw),
                "executor", "process", id="parallel_map-executor",
            ),
            pytest.param(
                # A generator function binds its arguments at the call.
                lambda **kw: parallel_map_stream(int, [], **kw),
                "prefetch", 2, id="parallel_map_stream-prefetch",
            ),
            pytest.param(
                lambda **kw: SpillStore(**kw),
                "cache", 4, id="SpillStore-cache",
            ),
        ],
    )
    def test_retired_keyword_is_refused(self, call, keyword, value):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            call(**{keyword: value})
