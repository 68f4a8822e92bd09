"""Tests for the pipelined publisher: spill staging, process-parallel
pass 2, and the overlap of the two passes.

The load-bearing guarantees on top of ``test_publish.py``:

* the spill codec round-trips parsed chunks **exactly** (float64, not
  the lossy ``%.3f`` CSV quantisation), and every read is validated —
  a truncated or mutated spill aborts pass 2 with a positional error
  instead of publishing a short or stale release;
* spill directories are cleaned up on success and on failure, a
  failed spill write included;
* parallel publish output — CSV bytes and ledger totals — is
  byte-identical to the serial publisher across worker counts, in-flight
  windows and chunk counts (fixture + hypothesis, on the real process
  pool and on the thread seam of ``tests/conftest.py``), including
  single-chunk == ``anonymize``;
* without a global mechanism, pass-2 realisation genuinely overlaps
  pass-1 parsing behind the bounded window.
"""

import errno
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.pipeline import GL, PureL
from repro.data.stream import chunked
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.engine import (
    SpillError,
    SpillStore,
    StreamPublisher,
    csv_chunk_bytes,
    parallel_map_stream,
)
from repro.engine import spill as spill_module
from repro.engine.spill import decode_chunk, encode_chunk, read_spill, write_spill
from repro.trajectory.io import write_csv
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetConfig(n_objects=10, points_per_trajectory=40, rows=8, cols=8, seed=5)
    )


def source(dataset, chunk_size):
    return lambda: chunked(iter(dataset), chunk_size)


def publish_bytes(publisher, chunks):
    out = bytearray()
    report = publisher.publish(chunks, byte_sink=lambda b, _r: out.extend(b))
    return bytes(out), report


# -- spill codec ---------------------------------------------------------------


class TestSpillCodec:
    def test_roundtrip_is_exact(self):
        """float64 round-trip, including values ``%.3f`` would destroy."""
        dataset = TrajectoryDataset(
            [
                Trajectory("a", [Point(0.1 + 0.2, -1e-9, 1234.5678901)]),
                Trajectory("übér-ID", [Point(1e12, -3.25, 0.0), Point(2, 3, 4)]),
                Trajectory("empty", []),
            ]
        )
        rebuilt = decode_chunk(encode_chunk(dataset))
        assert [t.object_id for t in rebuilt] == ["a", "übér-ID", "empty"]
        for before, after in zip(dataset, rebuilt, strict=True):
            assert [(p.x, p.y, p.t) for p in before] == [
                (p.x, p.y, p.t) for p in after
            ]

    def test_file_roundtrip(self, fleet, tmp_path):
        path = tmp_path / "chunk-000000.spill"
        write_spill(path, 0, fleet.dataset)
        rebuilt = read_spill(path, index=0, expected_trajectories=len(fleet.dataset))
        assert [t.object_id for t in rebuilt] == [
            t.object_id for t in fleet.dataset
        ]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.spill"
        path.write_bytes(b"object_id,t,x,y\n")
        with pytest.raises(SpillError, match=r":1: not a spill file"):
            read_spill(path)

    def test_rejects_wrong_chunk_index(self, fleet, tmp_path):
        path = tmp_path / "x.spill"
        write_spill(path, 3, fleet.dataset)
        with pytest.raises(SpillError, match="holds chunk 3, expected chunk 1"):
            read_spill(path, index=1)

    def test_truncation_is_line_numbered(self, fleet, tmp_path):
        path = tmp_path / "x.spill"
        write_spill(path, 0, fleet.dataset)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(SpillError, match=r":2: payload truncated"):
            read_spill(path, index=0)

    def test_mutation_fails_checksum(self, fleet, tmp_path):
        path = tmp_path / "x.spill"
        write_spill(path, 0, fleet.dataset)
        whole = bytearray(path.read_bytes())
        whole[-10] ^= 0xFF
        path.write_bytes(bytes(whole))
        with pytest.raises(SpillError, match=r":2: payload checksum mismatch"):
            read_spill(path, index=0)

    def test_frame_overrun_names_byte_offset(self):
        # A frame header promising more points than the payload holds.
        payload = encode_chunk(
            TrajectoryDataset([Trajectory("a", [Point(1, 2, 3)])])
        )
        with pytest.raises(SpillError, match="byte 8: trajectory frame runs"):
            decode_chunk(payload[:-8])


class TestSpillStore:
    def test_stage_load_remove(self, fleet, tmp_path):
        with SpillStore(tmp_path / "spill") as store:
            store.stage(0, fleet.dataset)
            assert store.path_of(0).exists()
            loaded = read_spill(store.path_of(0), index=0)
            assert len(loaded) == len(fleet.dataset)
            store.remove(0)
            assert not store.path_of(0).exists()

    def test_duplicate_stage_refused(self, fleet):
        with SpillStore() as store:
            store.stage(0, fleet.dataset)
            with pytest.raises(ValueError, match="already staged"):
                store.stage(0, fleet.dataset)

    def test_owned_tempdir_removed_on_close(self, fleet):
        store = SpillStore()
        store.stage(0, fleet.dataset)
        root = store.path
        assert root.exists()
        store.close()
        assert not root.exists()
        store.close()  # idempotent

    def test_explicit_dir_keeps_foreign_files(self, fleet, tmp_path):
        keep = tmp_path / "keep.txt"
        keep.write_text("mine")
        with SpillStore(tmp_path) as store:
            store.stage(0, fleet.dataset)
        assert keep.exists()
        assert not (tmp_path / "chunk-000000.spill").exists()

    def test_closed_store_refuses_staging(self, fleet):
        store = SpillStore()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.stage(0, fleet.dataset)


# -- spill lifecycle through the publisher -------------------------------------


class TestPublisherSpillHygiene:
    def test_success_cleans_spill_dir(self, fleet, tmp_path):
        spill = tmp_path / "spill"
        publisher = StreamPublisher(
            GL(epsilon=1.0, signature_size=3, seed=9), spill_dir=spill
        )
        publisher.publish(source(fleet.dataset, 4))
        assert list(spill.glob("*.spill")) == []

    def test_failure_cleans_spill_dir(self, fleet, tmp_path):
        spill = tmp_path / "spill"
        publisher = StreamPublisher(
            GL(epsilon=1.0, signature_size=3, seed=9), spill_dir=spill
        )

        def exploding(_chunk, _report):
            raise RuntimeError("sink boom")

        with pytest.raises(RuntimeError, match="sink boom"):
            publisher.publish(source(fleet.dataset, 4), sink=exploding)
        assert list(spill.glob("*.spill")) == []

    def test_mutated_spill_aborts_publish(self, fleet, tmp_path):
        """The single-consumption drift check: pass 2 trusts only
        validated spills, so corruption between staging and realisation
        aborts with a positional error instead of a short release. The
        in-process path reads every chunk back through ``read_spill``
        too, so no decoded copy can mask the damage."""
        spill = tmp_path / "spill"
        publisher = StreamPublisher(
            GL(epsilon=1.0, signature_size=3, seed=9), spill_dir=spill
        )

        def corrupting():
            for i, chunk in enumerate(chunked(iter(fleet.dataset), 4)):
                yield chunk
                if i == 1:
                    path = spill / "chunk-000000.spill"
                    whole = bytearray(path.read_bytes())
                    whole[-3] ^= 0xFF
                    path.write_bytes(bytes(whole))

        with pytest.raises(SpillError, match=r"\.spill:2: payload checksum"):
            publisher.publish(lambda: corrupting())
        assert list(spill.glob("*.spill")) == []

    def test_truncated_spill_aborts_publish(self, fleet, tmp_path):
        spill = tmp_path / "spill"
        publisher = StreamPublisher(
            GL(epsilon=1.0, signature_size=3, seed=9), spill_dir=spill
        )

        def truncating():
            for i, chunk in enumerate(chunked(iter(fleet.dataset), 4)):
                yield chunk
                if i == 1:
                    path = spill / "chunk-000000.spill"
                    path.write_bytes(path.read_bytes()[:40])

        with pytest.raises(SpillError, match="truncated"):
            publisher.publish(lambda: truncating())

    @pytest.mark.parametrize("existed", [False, True], ids=["made", "existing"])
    def test_failed_spill_write_leaks_nothing(
        self, fleet, tmp_path, capsys, monkeypatch, existed
    ):
        """A full disk on the second chunk's payload write: ``repro
        publish`` exits 2 and leaves neither the partial spill nor the
        spill directory it made, nor any output."""
        fleet_csv = tmp_path / "fleet.csv"
        write_csv(fleet.dataset, fleet_csv)
        spill = tmp_path / "spill"
        if existed:
            spill.mkdir()
        opened = []

        class FillsUp:
            """A spill file whose second write, in the second file
            opened, finds the disk full."""

            def __init__(self, handle):
                self.handle = handle
                self.file = len(opened)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.writes += 1
                if self.file == 2 and self.writes == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.handle.write(data)

        def spill_open(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            if "w" not in mode:
                return handle
            opened.append(path)
            return FillsUp(handle)

        monkeypatch.setattr(spill_module, "open", spill_open, raising=False)
        out = tmp_path / "out.csv"
        code = main(
            ["publish", "-i", str(fleet_csv), "-o", str(out), "--chunk-size", "4",
             "--seed", "1", "--spill-dir", str(spill)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro publish: ")
        assert "No space left on device" in err
        assert [path.name for path in opened] == [
            "chunk-000000.spill", "chunk-000001.spill"
        ]
        if existed:
            assert list(spill.iterdir()) == []
        else:
            assert not spill.exists()
        assert not out.exists()
        assert not (tmp_path / "out.csv.tmp").exists()


# -- byte-identity across worker pools -----------------------------------------


MAKERS = {
    "gl": lambda: GL(epsilon=1.0, signature_size=3, seed=21),
    "pure-local": lambda: PureL(epsilon=0.5, signature_size=3, seed=21),
}


class TestParallelByteIdentity:
    @pytest.mark.parametrize("maker", MAKERS.values(), ids=MAKERS.keys())
    @pytest.mark.parametrize("chunk_size", [2, 3, 4, 5, 100])
    def test_thread_pool_matches_serial(
        self, fleet, maker, chunk_size, thread_pool
    ):
        base, base_report = publish_bytes(
            StreamPublisher(maker()), source(fleet.dataset, chunk_size)
        )
        got, report = publish_bytes(
            StreamPublisher(maker(), workers=3),
            source(fleet.dataset, chunk_size),
        )
        assert got == base
        assert report.epsilon_total == base_report.epsilon_total
        assert report.chunks == base_report.chunks
        assert (
            report.accounting.to_dict() == base_report.accounting.to_dict()
        )

    @pytest.mark.parametrize("chunk_size", [4, 100])
    def test_process_pool_matches_serial(self, fleet, chunk_size):
        base, base_report = publish_bytes(
            StreamPublisher(MAKERS["gl"]()), source(fleet.dataset, chunk_size)
        )
        got, report = publish_bytes(
            StreamPublisher(MAKERS["gl"](), workers=2),
            source(fleet.dataset, chunk_size),
        )
        assert got == base
        assert report.chunks == base_report.chunks

    def test_single_chunk_matches_plain_anonymize(self, fleet):
        serial = MAKERS["gl"]().anonymize(fleet.dataset)
        got, report = publish_bytes(
            StreamPublisher(MAKERS["gl"](), workers=2),
            source(fleet.dataset, 10_000),
        )
        assert report.chunk_count == 1
        assert got == csv_chunk_bytes(serial)

    def test_window_one_matches_serial(self, fleet, thread_pool):
        """The derived in-flight window is a memory bound, not an input
        to the bytes: shrinking it to one chunk changes nothing."""
        base, _ = publish_bytes(
            StreamPublisher(MAKERS["gl"]()), source(fleet.dataset, 3)
        )
        publisher = StreamPublisher(MAKERS["gl"](), workers=2)
        publisher.window = 1
        got, _ = publish_bytes(publisher, source(fleet.dataset, 3))
        assert got == base

    @given(
        chunk_count=st.integers(1, 5),
        workers=st.integers(2, 4),
        epsilon=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_hypothesis_identity_across_executors(
        self, fleet, processes_on_threads, chunk_count, workers, epsilon, seed
    ):
        chunk_size = -(-len(fleet.dataset) // chunk_count)  # ceil div
        make = lambda: GL(epsilon=epsilon, signature_size=3, seed=seed)
        base, base_report = publish_bytes(
            StreamPublisher(make()), source(fleet.dataset, chunk_size)
        )
        with processes_on_threads():
            got, report = publish_bytes(
                StreamPublisher(make(), workers=workers),
                source(fleet.dataset, chunk_size),
            )
        assert got == base
        assert report.epsilon_total == base_report.epsilon_total
        assert report.utility_loss == base_report.utility_loss
        assert report.chunk_count == base_report.chunk_count == chunk_count


# -- overlap -------------------------------------------------------------------


class TestPassOverlap:
    def test_local_only_realisation_overlaps_parsing(self, fleet):
        """Without a shared draw, chunk k publishes while pass 1 is
        still parsing later chunks — the source sees sink events
        interleaved with its own."""
        events = []
        publisher = StreamPublisher(PureL(epsilon=0.5, signature_size=3, seed=9))

        def observed():
            for i, chunk in enumerate(chunked(iter(fleet.dataset), 2)):
                events.append(("parsed", i))
                yield chunk

        publisher.publish(
            lambda: observed(),
            sink=lambda _c, _r: events.append(("published", None)),
        )
        first_publish = events.index(("published", None))
        assert first_publish < len(events) - 1, events

    def test_global_spec_gates_realisation_not_parsing(self, fleet):
        """With a global mechanism every parse precedes every publish:
        the one shared draw needs the whole stream."""
        events = []
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))

        def observed():
            for i, chunk in enumerate(chunked(iter(fleet.dataset), 2)):
                events.append("parsed")
                yield chunk

        publisher.publish(
            lambda: observed(), sink=lambda _c, _r: events.append("published")
        )
        boundary = events.index("published")
        assert all(e == "parsed" for e in events[:boundary])
        assert all(e == "published" for e in events[boundary:])


# -- pool window ---------------------------------------------------------------


class TestPoolWindow:
    def test_window_bounds_in_flight(self):
        """With window=1 the pool never holds two unfinished items."""
        in_flight = []
        lock = threading.Lock()
        peak = [0]

        def tracked(x):
            with lock:
                in_flight.append(x)
                peak[0] = max(peak[0], len(in_flight))
            try:
                return x * 2
            finally:
                with lock:
                    in_flight.remove(x)

        got = list(
            parallel_map_stream(
                tracked, range(8), workers=4, executor="thread", window=1
            )
        )
        assert got == [x * 2 for x in range(8)]
        assert peak[0] <= 1

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            list(
                parallel_map_stream(
                    int, [1], workers=2, executor="thread", window=0
                )
            )

    def test_serial_path_ignores_window(self):
        got = list(parallel_map_stream(int, ["1", "2"], workers=1, window=1))
        assert got == [1, 2]
