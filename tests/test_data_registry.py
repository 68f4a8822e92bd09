"""Tests for the dataset registry, `repro ingest`, and the streaming
ingest-then-anonymize acceptance path."""

import json

import pytest

from repro.cli import main
from repro.core.pipeline import GL
from repro.data.preprocess import PreprocessConfig
from repro.data.registry import (
    DATA_FILENAME,
    META_FILENAME,
    DatasetRegistry,
    is_artifact,
    load_dataset,
    stream_dataset,
)
from repro.experiments.publish import per_chunk_release
from repro.trajectory.io import read_csv, write_csv
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset


@pytest.fixture
def planar_csv(tmp_path):
    dataset = TrajectoryDataset(
        [
            Trajectory(
                f"obj{i}",
                [Point(100.0 * i + k, 50.0 * i, 10.0 * k) for k in range(12)],
            )
            for i in range(6)
        ]
    )
    path = tmp_path / "fleet.csv"
    write_csv(dataset, path)
    return path


@pytest.fixture
def tdrive_dir(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "1.txt").write_text(
        "1,2008-02-02 15:36:08,116.51172,39.92123\n"
        "1,2008-02-02 15:46:08,116.51135,39.93883\n"
        "1,2008-02-02 18:46:08,116.56135,39.93883\n"
    )
    (raw / "2.txt").write_text(
        "2,2008-02-02 15:36:08,116.58000,39.90000\n"
        "2,2008-02-02 15:40:08,116.59000,39.91000\n"
    )
    return raw


class TestRegistry:
    def test_ingest_creates_artifact(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        result = registry.ingest("fleet", planar_csv)
        assert result.fresh
        assert is_artifact(result.path)
        meta = json.loads((result.path / META_FILENAME).read_text())
        assert meta["name"] == "fleet"
        assert meta["format"] == "planar"
        assert meta["preprocess"] == PreprocessConfig().to_dict()
        assert meta["stats"]["objects_in"] == 6

    def test_second_ingest_is_cache_hit(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        first = registry.ingest("fleet", planar_csv)
        mtime = (first.path / DATA_FILENAME).stat().st_mtime_ns
        second = registry.ingest("fleet", planar_csv)
        assert not second.fresh
        assert (second.path / DATA_FILENAME).stat().st_mtime_ns == mtime
        assert second.stats.objects_in == 6  # stats restored from meta
        forced = registry.ingest("fleet", planar_csv, force=True)
        assert forced.fresh

    def test_changed_source_is_not_a_cache_hit(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        registry.ingest("fleet", planar_csv)
        other = tmp_path / "other.csv"
        write_csv(
            TrajectoryDataset(
                [Trajectory("only", [Point(0, 0, 0.0), Point(1, 1, 1.0)])]
            ),
            other,
        )
        result = registry.ingest("fleet", other)
        assert result.fresh  # same knobs, different source: re-ingested
        assert [t.object_id for t in registry.stream("fleet")] == ["only"]

    def test_changed_origin_is_not_a_cache_hit(self, tdrive_dir, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        registry.ingest("beijing", tdrive_dir, origin=(39.9, 116.5))
        again = registry.ingest("beijing", tdrive_dir, origin=(39.9, 116.5))
        assert not again.fresh
        moved = registry.ingest("beijing", tdrive_dir, origin=(40.0, 116.0))
        assert moved.fresh

    def test_config_change_creates_sibling_version(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        registry.ingest("fleet", planar_csv)
        registry.ingest("fleet", planar_csv, PreprocessConfig(min_points=3))
        assert len(registry.versions("fleet")) == 2
        latest = registry.resolve("fleet")
        assert latest.name == PreprocessConfig(min_points=3).key()
        assert registry.names() == ["fleet"]

    def test_resolve_specific_version(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        result = registry.ingest("fleet", planar_csv)
        assert registry.resolve("fleet", result.version) == result.path
        with pytest.raises(KeyError):
            registry.resolve("fleet", "deadbeef")
        with pytest.raises(KeyError):
            registry.resolve("nope")

    def test_load_matches_source(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        registry.ingest("fleet", planar_csv)
        loaded = registry.load("fleet")
        source = read_csv(planar_csv)
        assert len(loaded) == len(source)
        for a, b in zip(loaded, source, strict=True):
            assert a.object_id == b.object_id
            assert len(a) == len(b)

    def test_tdrive_ingest_projects_and_splits(self, tdrive_dir, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        result = registry.ingest("beijing", tdrive_dir)
        # Taxi 1 has a 3-hour gap -> split; the single-point tail trip
        # is dropped by min_points=2.
        ids = [t.object_id for t in registry.stream("beijing")]
        assert ids == ["1#0", "2"]
        assert result.stats.gap_splits == 1
        assert result.stats.short_trips == 1
        meta = registry.meta("beijing")
        assert meta["format"] == "tdrive"
        assert meta["origin"] is not None


class TestDatasetReferences:
    def test_artifact_directory_and_name(self, planar_csv, tmp_path, monkeypatch):
        root = tmp_path / "reg"
        registry = DatasetRegistry(root)
        result = registry.ingest("fleet", planar_csv)
        by_path = load_dataset(result.path)
        monkeypatch.setenv("REPRO_DATA_ROOT", str(root))
        by_name = load_dataset("fleet")
        by_pinned = load_dataset(f"fleet@{result.version}")
        for dataset in (by_name, by_pinned):
            assert [t.object_id for t in dataset] == [
                t.object_id for t in by_path
            ]

    def test_plain_csv_reference(self, planar_csv):
        assert len(load_dataset(planar_csv)) == 6

    def test_missing_path_is_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")

    def test_stream_dataset_is_lazy(self, planar_csv):
        stream = stream_dataset(planar_csv)
        assert next(stream).object_id == "obj0"


class TestIngestCli:
    def test_ingest_reports_stats_and_path(self, tdrive_dir, tmp_path, capsys):
        root = tmp_path / "reg"
        code = main(
            ["ingest", "-i", str(tdrive_dir), "--name", "beijing",
             "--root", str(root)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "read 2 objects / 5 points" in out
        assert "artifact:" in out

    def test_second_run_reports_cache_hit(self, tdrive_dir, tmp_path, capsys):
        root = tmp_path / "reg"
        argv = ["ingest", "-i", str(tdrive_dir), "--name", "beijing",
                "--root", str(root)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "up to date" in capsys.readouterr().out

    def test_knobs_forwarded(self, planar_csv, tmp_path, capsys):
        root = tmp_path / "reg"
        code = main(
            ["ingest", "-i", str(planar_csv), "--name", "fleet",
             "--root", str(root), "--gap", "15", "--min-points", "3",
             "--snap", "10"]
        )
        assert code == 0
        registry = DatasetRegistry(root)
        meta = registry.meta("fleet")
        assert meta["preprocess"]["gap_threshold_s"] == 15.0
        assert meta["preprocess"]["min_points"] == 3
        assert meta["preprocess"]["snap"] == 10.0


class TestIngestThenAnonymize:
    """The acceptance path: artifact in, batch engine, identical bytes."""

    def test_cli_end_to_end_byte_identical(self, planar_csv, tmp_path, capsys):
        root = tmp_path / "reg"
        assert main(
            ["ingest", "-i", str(planar_csv), "--name", "fleet",
             "--root", str(root)]
        ) == 0
        artifact = DatasetRegistry(root).resolve("fleet")

        via_artifact = tmp_path / "via_artifact.csv"
        via_csv = tmp_path / "via_csv.csv"
        common = ["--model", "gl", "--signature-size", "3", "--seed", "11"]
        assert main(
            ["anonymize", "-i", str(artifact), "-o", str(via_artifact),
             "--engine", "batch", "--workers", "2",
             *common]
        ) == 0
        assert main(
            ["anonymize", "-i", str(artifact / DATA_FILENAME),
             "-o", str(via_csv), *common]
        ) == 0
        assert via_artifact.read_text() == via_csv.read_text()

    def test_per_chunk_release_consumes_chunks_lazily(self, planar_csv):
        from repro.data.stream import chunked
        from repro.trajectory.io import stream_csv

        pulled = []

        def chunks():
            for chunk in chunked(stream_csv(planar_csv), 2):
                pulled.append(len(chunk))
                yield chunk

        stream = per_chunk_release(
            GL(epsilon=1.0, signature_size=3, seed=5), chunks(), workers=1
        )
        first = next(stream)
        # In-process streaming: exactly one chunk pulled per result —
        # the 3-chunk sweep is never materialised up front.
        assert pulled == [2]
        assert len(first) == 2
        rest = list(stream)
        assert len(rest) == 2
        assert pulled == [2, 2, 2]

    def test_per_chunk_release_matches_serial(self, planar_csv):
        """A generator of datasets in; each out equals the next
        sequential call on one seeded instance."""
        dataset = read_csv(planar_csv)
        released = per_chunk_release(
            GL(epsilon=1.0, signature_size=3, seed=5),
            (dataset.copy() for _ in range(2)),
        )
        serial = GL(epsilon=1.0, signature_size=3, seed=5)
        expected = [serial.anonymize(dataset) for _ in range(2)]
        for got, want in zip(released, expected, strict=True):
            assert [
                [p.coord for p in t] for t in got
            ] == [[p.coord for p in t] for t in want]


class TestFig5RealDataSizes:
    def test_sizes_clamped_to_dataset(self, planar_csv, tmp_path, monkeypatch):
        root = tmp_path / "reg"
        DatasetRegistry(root).ingest("fleet", planar_csv)  # 6 trajectories
        monkeypatch.setenv("REPRO_DATA_ROOT", str(root))

        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig5 import effective_sizes

        config = ExperimentConfig.smoke().with_dataset("fleet")
        assert effective_sizes(config, (4, 100, 200)) == (4, 6)
        # Synthetic mode passes through untouched.
        assert effective_sizes(
            ExperimentConfig.smoke(), (4, 100, 200)
        ) == (4, 100, 200)


class TestExperimentRealDataMode:
    def test_fig4_runs_on_ingested_dataset(self, planar_csv, tmp_path, monkeypatch):
        root = tmp_path / "reg"
        DatasetRegistry(root).ingest("fleet", planar_csv)
        monkeypatch.setenv("REPRO_DATA_ROOT", str(root))

        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig4 import run

        config = ExperimentConfig.smoke().with_dataset("fleet")
        series = run(config, epsilons=(1.0,))
        # Utility metrics computed; recovery panels skipped (no ground
        # truth routes on real data).
        assert series["INF"]["GL"][0] is not None
        assert series["F-score"]["GL"][0] is None

    def test_cli_experiment_dataset_flag(self, planar_csv, tmp_path, monkeypatch, capsys):
        root = tmp_path / "reg"
        DatasetRegistry(root).ingest("fleet", planar_csv)
        monkeypatch.setenv("REPRO_DATA_ROOT", str(root))
        code = main(
            ["experiment", "fig5", "--preset", "smoke", "--dataset", "fleet"]
        )
        assert code == 0
        assert "dataset=fleet" in capsys.readouterr().out


class TestArtifactExportImport:
    """Artifact tarballs: export -> ship -> checksum-verified import."""

    def _ingest(self, planar_csv, root):
        registry = DatasetRegistry(root)
        return registry, registry.ingest("fleet", planar_csv)

    def test_round_trip_between_roots(self, planar_csv, tmp_path):
        source_registry, result = self._ingest(planar_csv, tmp_path / "a")
        archive = source_registry.export_artifact(
            "fleet", tmp_path / "fleet.tar.gz"
        )
        assert archive.is_file()
        target_registry = DatasetRegistry(tmp_path / "b")
        imported = target_registry.import_artifact(archive)
        assert imported.fresh
        assert imported.name == "fleet"
        assert imported.version == result.version
        assert is_artifact(imported.path)
        # Data is byte-identical and the latest marker resolves.
        assert (imported.path / DATA_FILENAME).read_bytes() == (
            result.path / DATA_FILENAME
        ).read_bytes()
        assert target_registry.resolve("fleet") == imported.path
        # Meta carries provenance plus the verified checksum.
        meta = json.loads((imported.path / META_FILENAME).read_text())
        assert meta["sha256"]
        assert meta["version"] == result.version

    def test_reimport_is_cache_hit(self, planar_csv, tmp_path):
        source_registry, _ = self._ingest(planar_csv, tmp_path / "a")
        archive = source_registry.export_artifact(
            "fleet", tmp_path / "fleet.tar.gz"
        )
        target = DatasetRegistry(tmp_path / "b")
        assert target.import_artifact(archive).fresh
        assert not target.import_artifact(archive).fresh
        assert target.import_artifact(archive, force=True).fresh

    def test_tampered_payload_rejected(self, planar_csv, tmp_path):
        import tarfile

        source_registry, _ = self._ingest(planar_csv, tmp_path / "a")
        archive = source_registry.export_artifact(
            "fleet", tmp_path / "fleet.tar.gz"
        )
        # Repack with one corrupted data byte, same meta.json.
        staging = tmp_path / "repack"
        with tarfile.open(archive) as tar:
            tar.extractall(staging, filter="data")
        data = next(staging.glob(f"*/*/{DATA_FILENAME}"))
        data.write_bytes(data.read_bytes()[:-2] + b"9\n")
        tampered = tmp_path / "tampered.tar.gz"
        with tarfile.open(tampered, "w:gz") as tar:
            tar.add(staging / "fleet", arcname="fleet")
        with pytest.raises(ValueError, match="checksum mismatch"):
            DatasetRegistry(tmp_path / "b").import_artifact(tampered)

    def test_export_specific_version_reference(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "a")
        first = registry.ingest("fleet", planar_csv)
        registry.ingest(
            "fleet", planar_csv, PreprocessConfig(min_points=3)
        )
        archive = registry.export_artifact(
            f"fleet@{first.version}", tmp_path / "v1.tar.gz"
        )
        imported = DatasetRegistry(tmp_path / "b").import_artifact(archive)
        assert imported.version == first.version

    def test_cli_export_import(self, planar_csv, tmp_path, capsys):
        root_a = tmp_path / "a"
        root_b = tmp_path / "b"
        archive = tmp_path / "fleet.tar.gz"
        assert main([
            "ingest", "-i", str(planar_csv), "--name", "fleet",
            "--root", str(root_a),
        ]) == 0
        assert main([
            "ingest", "--name", "fleet", "--export", str(archive),
            "--root", str(root_a),
        ]) == 0
        out = capsys.readouterr().out
        assert "exported fleet" in out
        assert main([
            "ingest", "--import", str(archive), "--root", str(root_b),
        ]) == 0
        out = capsys.readouterr().out
        assert "imported fleet@" in out
        assert DatasetRegistry(root_b).load("fleet") is not None

    def test_cli_requires_name_or_archive(self, tmp_path, capsys):
        assert main(["ingest", "--root", str(tmp_path)]) == 2
        assert "required" in capsys.readouterr().err
        assert main([
            "ingest", "--export", "x.tar.gz", "--root", str(tmp_path),
        ]) == 2
        assert main([
            "ingest", "--export", "x.tar.gz", "--import", "y.tar.gz",
            "--name", "z", "--root", str(tmp_path),
        ]) == 2

    def test_malformed_meta_stats_rejected(self, planar_csv, tmp_path):
        import tarfile

        source_registry, _ = self._ingest(planar_csv, tmp_path / "a")
        archive = source_registry.export_artifact(
            "fleet", tmp_path / "fleet.tar.gz"
        )
        # Rebuild the archive with stats stripped from meta.json but a
        # checksum that still matches the payload.
        staging = tmp_path / "repack"
        with tarfile.open(archive) as tar:
            tar.extractall(staging, filter="data")
        meta_path = next(staging.glob(f"*/*/{META_FILENAME}"))
        meta = json.loads(meta_path.read_text())
        del meta["stats"]
        meta_path.write_text(json.dumps(meta))
        broken = tmp_path / "broken.tar.gz"
        with tarfile.open(broken, "w:gz") as tar:
            tar.add(staging / "fleet", arcname="fleet")
        with pytest.raises(ValueError, match="ingest stats"):
            DatasetRegistry(tmp_path / "b").import_artifact(broken)

    def test_traversal_via_meta_name_rejected(self, tmp_path):
        """meta.json's name/version are attacker data: a crafted value
        must not place (or delete) anything outside the registry root."""
        import hashlib
        import io
        import tarfile

        payload = b"object_id,t,x,y\na,0.0,1.0,1.0\na,1.0,2.0,2.0\n"
        meta = {
            "schema": 1, "name": "../../escaped", "version": "v1",
            "source": "x", "format": "planar", "origin": None,
            "preprocess": {}, "stats": {},
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        archive = tmp_path / "evil.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            info = tarfile.TarInfo("fleet/v1/data.csv")
            info.size = len(payload)
            tar.addfile(info, io.BytesIO(payload))
            encoded = json.dumps(meta).encode()
            info = tarfile.TarInfo("fleet/v1/meta.json")
            info.size = len(encoded)
            tar.addfile(info, io.BytesIO(encoded))
        with pytest.raises(ValueError, match="plain path segment"):
            DatasetRegistry(tmp_path / "root").import_artifact(archive)
        assert not (tmp_path / "escaped").exists()


class TestLatestPointer:
    """`resolve` honours the recorded `latest` pointer and repairs a
    dangling one (the registry must stay self-consistent after manual
    deletions and imports)."""

    def _two_versions(self, planar_csv, root):
        registry = DatasetRegistry(root)
        first = registry.ingest("fleet", planar_csv)
        second = registry.ingest(
            "fleet", planar_csv, PreprocessConfig(min_points=3)
        )
        return registry, first, second

    def test_pointer_wins_over_directory_mtime_order(
        self, planar_csv, tmp_path
    ):
        """Disagreement case: mtimes say `first` is newest (a backup
        or copy touched it), the pointer says `second` — the pointer
        is authoritative."""
        import os
        import time

        registry, first, second = self._two_versions(
            planar_csv, tmp_path / "reg"
        )
        future = time.time() + 1000
        os.utime(first.path, (future, future))
        assert registry.versions("fleet")[-1] == first.version  # mtime order
        assert registry.resolve("fleet") == second.path  # pointer order

    def test_dangling_pointer_is_repaired(self, planar_csv, tmp_path):
        import shutil

        registry, first, second = self._two_versions(
            planar_csv, tmp_path / "reg"
        )
        marker = tmp_path / "reg" / "fleet" / "latest"
        assert marker.read_text().strip() == second.version
        shutil.rmtree(second.path)  # the pointer now dangles
        resolved = registry.resolve("fleet")
        assert resolved == first.path
        assert marker.read_text().strip() == first.version  # repaired

    def test_missing_pointer_is_recreated(self, planar_csv, tmp_path):
        registry = DatasetRegistry(tmp_path / "reg")
        result = registry.ingest("fleet", planar_csv)
        marker = tmp_path / "reg" / "fleet" / "latest"
        marker.unlink()
        assert registry.resolve("fleet") == result.path
        assert marker.read_text().strip() == result.version

    def test_concurrent_resolve_during_repair_is_consistent(
        self, planar_csv, tmp_path
    ):
        """Simultaneous readers hitting a missing pointer (all of them
        racing to repair it) must every one resolve to the same valid
        artifact, and leave a valid pointer behind — the daemon serves
        many tenants against one registry root."""
        import threading

        registry, first, second = self._two_versions(
            planar_csv, tmp_path / "reg"
        )
        marker = tmp_path / "reg" / "fleet" / "latest"
        marker.unlink()
        n = 8
        barrier = threading.Barrier(n)
        results, errors = [], []

        def reader():
            try:
                barrier.wait()
                results.append(registry.resolve("fleet"))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert set(results) == {second.path}
        assert marker.read_text().strip() == second.version

    def test_pointer_rewrite_is_atomic_under_readers(
        self, planar_csv, tmp_path
    ):
        """Readers racing a pointer rewrite must never observe a torn
        (empty or partial) pointer: the rewrite stages a temp file and
        replaces it in. A plain truncating write fails this."""
        import threading

        from repro.data.registry import _write_latest

        registry, first, second = self._two_versions(
            planar_csv, tmp_path / "reg"
        )
        base = tmp_path / "reg" / "fleet"
        marker = base / "latest"
        valid_texts = {first.version, second.version}
        valid_paths = {first.path, second.path}
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    assert marker.read_text().strip() in valid_texts
                    assert registry.resolve("fleet") in valid_paths
                except Exception as exc:  # noqa: BLE001 — for assert
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for i in range(200):
            _write_latest(
                base, first.version if i % 2 else second.version
            )
        stop.set()
        for t in threads:
            t.join()
        assert not errors

    def test_import_cache_hit_repairs_dangling_pointer(
        self, planar_csv, tmp_path
    ):
        source = DatasetRegistry(tmp_path / "a")
        source.ingest("fleet", planar_csv)
        archive = source.export_artifact("fleet", tmp_path / "fleet.tar.gz")
        target = DatasetRegistry(tmp_path / "b")
        imported = target.import_artifact(archive)
        marker = tmp_path / "b" / "fleet" / "latest"
        marker.write_text("deadbeef")  # dangle it behind the registry's back
        again = target.import_artifact(archive)
        assert not again.fresh  # cache hit installs nothing...
        assert marker.read_text().strip() == imported.version  # ...but repairs
        assert target.resolve("fleet") == imported.path
