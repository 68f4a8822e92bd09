"""Named dataset sources with cached, versioned preprocessed artifacts.

An *artifact* is the on-disk unit the rest of the stack consumes: a
directory holding

* ``data.csv`` — the preprocessed trips in the repo's native planar
  ``object_id,t,x,y`` format (so every existing reader works on it);
* ``meta.json`` — provenance: the source path and format, the
  projection origin, the full :class:`PreprocessConfig`, and the
  :class:`IngestStats` of the ingest run.

Artifacts live under ``<root>/<name>/<version>/`` where ``version`` is
the preprocessing config's digest — re-ingesting the same source with
the same knobs is a cache hit, changing any knob creates a sibling
version. ``<root>/<name>/latest`` records the most recent version.
The root defaults to ``$REPRO_DATA_ROOT`` or ``~/.cache/repro/datasets``.
The artifact schema is specified in ``docs/data.md``.

Artifacts also travel between machines: :meth:`DatasetRegistry.export_
artifact` packs one into a ``.tar.gz`` whose ``meta.json`` carries the
sha256 of ``data.csv``, and :meth:`DatasetRegistry.import_artifact`
installs such a tarball into a (different) registry root after
verifying the checksum — so a preprocessed dataset ingested on one box
can be shipped to a fleet without re-running preprocessing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.data.preprocess import IngestStats, PreprocessConfig, preprocess_stream
from repro.data.stream import detect_format, scan_origin, stream_trajectories
from repro.trajectory.io import (
    CSV_HEADER,
    read_tdrive_directory,
    stream_csv,
    write_csv_rows,
)
from repro.trajectory.model import Trajectory, TrajectoryDataset

ARTIFACT_SCHEMA_VERSION = 1
DATA_FILENAME = "data.csv"
META_FILENAME = "meta.json"
LATEST_FILENAME = "latest"


def _write_latest(base: Path, version: str) -> None:
    """Atomically (re)write the ``latest`` pointer under ``base``.

    A plain ``write_text`` truncates before it writes, so a concurrent
    reader can observe an empty pointer and mis-resolve; staging the
    new content in a sibling temp file and ``os.replace``-ing it in
    means every reader sees either the old version or the new one,
    never a torn state. Matters to the serving daemon, where many
    tenants resolve against one registry root while ingests land.
    """
    import tempfile

    handle = tempfile.NamedTemporaryFile(
        "w", dir=base, prefix=LATEST_FILENAME + ".", delete=False
    )
    try:
        with handle:
            handle.write(version)
        os.replace(handle.name, base / LATEST_FILENAME)
    except BaseException:
        os.unlink(handle.name)
        raise


def _sha256_of(path: Path) -> str:
    """Streaming sha256 of a file (constant memory)."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def default_root() -> Path:
    """The registry root: ``$REPRO_DATA_ROOT`` or ``~/.cache/repro/datasets``."""
    env = os.environ.get("REPRO_DATA_ROOT")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "datasets"


def is_artifact(path: str | Path) -> bool:
    """True when ``path`` is a preprocessed-artifact directory."""
    path = Path(path)
    return (
        path.is_dir()
        and (path / META_FILENAME).is_file()
        and (path / DATA_FILENAME).is_file()
    )


@dataclass(frozen=True, slots=True)
class IngestResult:
    """Outcome of one :meth:`DatasetRegistry.ingest` call."""

    name: str
    version: str
    path: Path
    stats: IngestStats
    #: False when the artifact already existed and was reused as-is.
    fresh: bool


class DatasetRegistry:
    """Disk-backed registry of ingested datasets."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_root()

    def artifact_path(self, name: str, config: PreprocessConfig) -> Path:
        return self.root / name / config.key()

    def versions(self, name: str) -> list[str]:
        """All ingested versions of ``name``, latest last."""
        base = self.root / name
        if not base.is_dir():
            return []
        dirs = [p for p in base.iterdir() if is_artifact(p)]
        dirs.sort(key=lambda p: p.stat().st_mtime)
        return [p.name for p in dirs]

    def names(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def ingest(
        self,
        name: str,
        source: str | Path,
        config: PreprocessConfig | None = None,
        format: str = "auto",
        origin: tuple[float, float] | None = None,
        force: bool = False,
    ) -> IngestResult:
        """Stream ``source`` through preprocessing into a cached artifact.

        The whole path is lazy — raw records are parsed, projected,
        cleaned, and written out one object at a time — so sources far
        larger than memory ingest fine. A matching artifact (same name
        and config digest) short-circuits unless ``force``.
        """
        import shutil

        config = config or PreprocessConfig()
        target = self.artifact_path(name, config)
        if is_artifact(target) and not force:
            meta = json.loads((target / META_FILENAME).read_text())
            # The version digest covers only the preprocessing knobs, so
            # a hit is genuine only if the provenance matches too — a
            # different source/format/origin must re-ingest, not reuse
            # another dataset's bytes. An omitted origin is derived
            # deterministically from the source, so it always matches.
            provenance_matches = (
                meta.get("source") == str(source)
                and (format == "auto" or meta.get("format") == format)
                and (
                    origin is None
                    or meta.get("origin") == list(origin)
                )
            )
            if provenance_matches:
                stats = IngestStats(**meta["stats"])
                return IngestResult(
                    name, config.key(), target, stats, fresh=False
                )

        if format == "auto":
            format = detect_format(source)
        if format == "tdrive" and origin is None:
            origin = scan_origin(source)

        stats = IngestStats()
        stream = preprocess_stream(
            stream_trajectories(source, format=format, origin=origin),
            config,
            stats,
        )
        staging = target.with_name(target.name + ".tmp")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            with (staging / DATA_FILENAME).open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(CSV_HEADER)
                write_csv_rows(writer, stream)
            meta = {
                "schema": ARTIFACT_SCHEMA_VERSION,
                "name": name,
                "version": config.key(),
                "source": str(source),
                "format": format,
                "origin": list(origin) if origin is not None else None,
                "preprocess": config.to_dict(),
                "stats": stats.to_dict(),
                # Integrity of data.csv; verified on artifact import.
                "sha256": _sha256_of(staging / DATA_FILENAME),
            }
            (staging / META_FILENAME).write_text(json.dumps(meta, indent=2))
            if target.exists():
                shutil.rmtree(target)
            os.replace(staging, target)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        _write_latest(target.parent, config.key())
        return IngestResult(name, config.key(), target, stats, fresh=True)

    def resolve(self, name: str, version: str | None = None) -> Path:
        """Artifact directory for a registered name (latest by default).

        The recorded ``latest`` pointer file is authoritative: when it
        names an installed version, that version is returned even if
        directory mtimes disagree (mtimes are rewritten by backups,
        copies, and imports — the pointer records the actual last
        ingest/import).  A *dangling* pointer (its version was deleted)
        is repaired in place to the newest remaining version rather
        than silently shadowing every future resolution.
        """
        base = self.root / name
        if version is not None:
            target = base / version
            if not is_artifact(target):
                raise KeyError(f"no artifact {name}@{version} under {self.root}")
            return target
        marker = base / LATEST_FILENAME
        if marker.is_file():
            target = base / marker.read_text().strip()
            if is_artifact(target):
                return target
        versions = self.versions(name)
        if not versions:
            raise KeyError(f"no ingested dataset named {name!r} under {self.root}")
        # No pointer (pre-pointer registry) or a dangling one: repair
        # it so the registry is self-consistent from here on. Best
        # effort — a read-only registry root must still resolve.
        try:
            _write_latest(base, versions[-1])
        except OSError:
            pass
        return base / versions[-1]

    def meta(self, name: str, version: str | None = None) -> dict:
        return json.loads(
            (self.resolve(name, version) / META_FILENAME).read_text()
        )

    # -- export / import -------------------------------------------------------

    def export_artifact(
        self, name: str, dest: str | Path, version: str | None = None
    ) -> Path:
        """Pack an ingested artifact into a ``.tar.gz`` at ``dest``.

        The tarball holds ``<name>/<version>/{data.csv,meta.json}``
        with the sha256 of ``data.csv`` recorded in ``meta.json``
        (computed here for artifacts ingested before checksums
        existed), so :meth:`import_artifact` on another machine can
        verify the payload end to end. ``name`` accepts the usual
        ``name[@version]`` reference syntax.
        """
        import tarfile

        bare, _, ref_version = name.partition("@")
        artifact = self.resolve(bare, version or ref_version or None)
        meta = json.loads((artifact / META_FILENAME).read_text())
        meta.setdefault("name", bare)
        meta.setdefault("version", artifact.name)
        meta.setdefault("sha256", _sha256_of(artifact / DATA_FILENAME))
        dest = Path(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        prefix = f"{meta['name']}/{meta['version']}"
        meta_bytes = json.dumps(meta, indent=2).encode()
        with tarfile.open(dest, "w:gz") as tar:
            tar.add(artifact / DATA_FILENAME, arcname=f"{prefix}/{DATA_FILENAME}")
            info = tarfile.TarInfo(f"{prefix}/{META_FILENAME}")
            info.size = len(meta_bytes)
            tar.addfile(info, io.BytesIO(meta_bytes))
        return dest

    def import_artifact(
        self, archive: str | Path, force: bool = False
    ) -> IngestResult:
        """Install an exported artifact tarball into this registry.

        Extracts to a staging directory, verifies the sha256 recorded
        in the tarball's ``meta.json`` against the extracted
        ``data.csv``, then moves the artifact into place atomically
        and updates the ``latest`` marker. A matching artifact that is
        already installed short-circuits (cache hit) unless ``force``.
        """
        import shutil
        import tarfile
        import tempfile

        archive = Path(archive)
        with tempfile.TemporaryDirectory(prefix="repro-import-") as tmp:
            staging = Path(tmp)
            with tarfile.open(archive, "r:*") as tar:
                for member in tar.getmembers():
                    # Only plain relative files (and the directories
                    # that hold them) are legal artifact payload;
                    # symlinks, devices, or path escapes mean a
                    # malformed (or malicious) archive.
                    target = Path(member.name)
                    if target.is_absolute() or ".." in target.parts:
                        raise ValueError(
                            f"unsafe member path {member.name!r} in "
                            f"artifact archive {archive}"
                        )
                    if member.isdir():
                        continue
                    if not member.isfile():
                        raise ValueError(
                            f"unsupported member {member.name!r} in "
                            f"artifact archive {archive}"
                        )
                    tar.extract(member, staging, set_attrs=False)
            metas = sorted(staging.glob(f"*/*/{META_FILENAME}"))
            if len(metas) != 1:
                raise ValueError(
                    f"{archive} is not an artifact archive (expected "
                    f"exactly one <name>/<version>/{META_FILENAME})"
                )
            meta_path = metas[0]
            extracted = meta_path.parent
            meta = json.loads(meta_path.read_text())
            expected = meta.get("sha256")
            if not expected:
                raise ValueError(
                    f"{archive}: meta.json carries no sha256 checksum"
                )
            actual = _sha256_of(extracted / DATA_FILENAME)
            if actual != expected:
                raise ValueError(
                    f"{archive}: data.csv checksum mismatch (meta.json "
                    f"says {expected}, payload is {actual}) — refusing "
                    f"to install a corrupted artifact"
                )
            name = meta.get("name") or extracted.parent.name
            version = meta.get("version") or extracted.name
            # The install path comes from meta.json, which is attacker
            # data: both components must be single plain path segments
            # or a crafted archive could escape (and rmtree outside)
            # the registry root.
            for label, value in (("name", name), ("version", version)):
                if (
                    not value
                    or value in (".", "..")
                    or "/" in value
                    or os.sep in value
                    or (os.altsep and os.altsep in value)
                ):
                    raise ValueError(
                        f"{archive}: meta.json {label} {value!r} is not "
                        f"a plain path segment — refusing to install"
                    )
            target = self.root / name / version
            try:
                stats = IngestStats(**meta["stats"])
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{archive}: meta.json carries no valid ingest "
                    f"stats ({exc}) — not an exported artifact"
                ) from exc
            if is_artifact(target) and not force:
                # Cache hit installs nothing, but a missing or dangling
                # latest pointer left behind (e.g. by a deleted
                # version) is still repaired so the import leaves the
                # registry resolvable. Best effort, like resolve():
                # a read-only root must keep serving cache hits.
                marker = target.parent / LATEST_FILENAME
                if not (
                    marker.is_file()
                    and is_artifact(target.parent / marker.read_text().strip())
                ):
                    try:
                        _write_latest(target.parent, version)
                    except OSError:
                        pass
                return IngestResult(name, version, target, stats, fresh=False)
            target.parent.mkdir(parents=True, exist_ok=True)
            if target.exists():
                shutil.rmtree(target)
            # The move is the last step, so a half-written target never
            # looks like a valid artifact (shutil.move also handles a
            # temp dir on a different filesystem than the root).
            shutil.move(str(extracted), str(target))
        _write_latest(target.parent, version)
        return IngestResult(name, version, target, stats, fresh=True)

    def stream(self, name: str, version: str | None = None) -> Iterator[Trajectory]:
        """Lazily iterate an ingested dataset's trips."""
        return stream_csv(self.resolve(name, version) / DATA_FILENAME)

    def load(self, name: str, version: str | None = None) -> TrajectoryDataset:
        return TrajectoryDataset(self.stream(name, version))


def _resolve_ref(ref: str | Path, registry: DatasetRegistry | None) -> Path:
    """Map a dataset reference to a concrete path.

    A reference is, in order of precedence: an existing path (artifact
    directory, planar CSV file, or directory of per-object files), or a
    registry name (optionally ``name@version``).
    """
    path = Path(ref)
    if path.exists():
        if is_artifact(path):
            return path / DATA_FILENAME
        return path
    text = str(ref)
    if os.sep in text or text.endswith(".csv"):
        raise FileNotFoundError(f"dataset path {text!r} does not exist")
    registry = registry or DatasetRegistry()
    name, _, version = text.partition("@")
    return registry.resolve(name, version or None) / DATA_FILENAME


def stream_dataset(
    ref: str | Path, registry: DatasetRegistry | None = None
) -> Iterator[Trajectory]:
    """Lazily iterate any dataset reference (see :func:`_resolve_ref`).

    Planar CSVs and artifacts stream with bounded memory; a directory
    reference falls back to the materialising T-Drive-directory reader.
    """
    path = _resolve_ref(ref, registry)
    if path.is_dir():
        yield from read_tdrive_directory(path)
    else:
        yield from stream_csv(path)


def load_dataset(
    ref: str | Path, registry: DatasetRegistry | None = None
) -> TrajectoryDataset:
    """Materialise any dataset reference into a :class:`TrajectoryDataset`."""
    return TrajectoryDataset(stream_dataset(ref, registry))
