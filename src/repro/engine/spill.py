"""Spill staging for the two-pass streaming publisher.

Pass 1 of :class:`~repro.engine.publish.StreamPublisher` used to be
"parse everything, keep nothing": the chunk source was re-opened and
re-parsed for pass 2. The spill store removes that second parse — each
chunk is staged to disk **once, already parsed**, and pass 2 replays
the parsed state (possibly from another process).

Format — one file per chunk, ``chunk-NNNNNN.spill``:

* **Line 1 (ASCII header):** ``repro-spill 1 chunk=<i>
  trajectories=<n> payload=<bytes> sha256=<hex>`` — everything a
  reader needs to validate the body before trusting it.
* **Body:** one binary frame per trajectory — ``<id-bytes:u32>
  <n-points:u32> <object id, UTF-8> <n-points × (x, y, t) as
  little-endian float64>``.

The codec is exact: ``float64`` round-trips every coordinate
bit-for-bit, which the publisher's byte-identity contract requires
(the CSV row format is ``%.3f``-quantised and would silently corrupt a
second-pass input). It is also fast — at paper scale (500×300 points)
encoding is ~9x and decoding ~2x faster than pickling the dataset,
which matters because the spill write sits on pass 1's critical path.

Every read goes through :func:`read_spill` and is validated in full:
header shape, spill version, chunk index, payload length, SHA-256
checksum, frame bounds, and trajectory count must all agree, and any
mismatch raises :class:`SpillError` carrying the file, line/byte
position, and what diverged. A truncated or
mutated spill therefore aborts pass 2 loudly instead of publishing a
short or stale release — the single-consumption analogue of the old
two-pass drift check.

:class:`SpillStore` owns a spill directory's lifecycle: staged files
are removed on :meth:`~SpillStore.close` (context-manager exit covers
success *and* failure paths), and a store created without an explicit
directory deletes its own tempdir too.
"""

from __future__ import annotations

import hashlib
import shutil
import struct
import tempfile
from array import array
from pathlib import Path

from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

#: First token of a spill header line; anything else is not a spill.
SPILL_MAGIC = "repro-spill"
#: Format version written by :func:`write_spill`.
SPILL_VERSION = 1

#: Per-trajectory frame prefix: object-id byte length, point count.
_FRAME = struct.Struct("<II")
#: One point is three little-endian float64 values: x, y, t.
_POINT_BYTES = 24


class SpillError(ValueError):
    """A spill file failed validation (truncated, mutated, or foreign)."""


# -- codec ----------------------------------------------------------------------


def encode_chunk(dataset: TrajectoryDataset) -> bytes:
    """Serialise a parsed chunk to the exact binary frame format."""
    parts: list[bytes] = []
    for trajectory in dataset:
        ident = trajectory.object_id.encode("utf-8")
        coords = array("d")
        for point in trajectory:
            coords.append(point.x)
            coords.append(point.y)
            coords.append(point.t)
        parts.append(_FRAME.pack(len(ident), len(trajectory)))
        parts.append(ident)
        parts.append(coords.tobytes())
    return b"".join(parts)


def decode_chunk(payload: bytes, source: str = "<spill>") -> TrajectoryDataset:
    """Decode a spill payload; positional :class:`SpillError` on damage."""
    trajectories: list[Trajectory] = []
    view = memoryview(payload)
    offset = 0
    total = len(payload)
    while offset < total:
        if total - offset < _FRAME.size:
            raise SpillError(
                f"{source}: byte {offset}: truncated trajectory frame "
                f"header ({total - offset} byte(s) left, need {_FRAME.size})"
            )
        id_len, n_points = _FRAME.unpack_from(payload, offset)
        offset += _FRAME.size
        end = offset + id_len + n_points * _POINT_BYTES
        if end > total:
            raise SpillError(
                f"{source}: byte {offset}: trajectory frame runs past the "
                f"end of the payload (needs {end - offset} byte(s), "
                f"{total - offset} left)"
            )
        try:
            object_id = bytes(view[offset : offset + id_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpillError(
                f"{source}: byte {offset}: object id is not UTF-8 ({exc})"
            ) from exc
        offset += id_len
        coords = array("d")
        coords.frombytes(view[offset:end])
        offset = end
        points = [
            Point(coords[i], coords[i + 1], coords[i + 2])
            for i in range(0, len(coords), 3)
        ]
        trajectories.append(Trajectory(object_id, points))
    return TrajectoryDataset(trajectories)


# -- framed files ---------------------------------------------------------------


def _header_line(index: int, trajectories: int, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest()
    return (
        f"{SPILL_MAGIC} {SPILL_VERSION} chunk={index} "
        f"trajectories={trajectories} payload={len(payload)} "
        f"sha256={digest}\n"
    ).encode("ascii")


def write_spill(path: str | Path, index: int, dataset: TrajectoryDataset) -> int:
    """Stage one parsed chunk at ``path``; returns the payload size."""
    payload = encode_chunk(dataset)
    with open(path, "wb") as handle:
        handle.write(_header_line(index, len(dataset), payload))
        handle.write(payload)
    return len(payload)


def _parse_header(path: Path, line: bytes) -> dict[str, int | str]:
    fields = line.decode("ascii", errors="replace").split()
    if len(fields) != 6 or fields[0] != SPILL_MAGIC:
        raise SpillError(
            f"{path}:1: not a spill file (expected a '{SPILL_MAGIC}' "
            f"header line)"
        )
    if fields[1] != str(SPILL_VERSION):
        raise SpillError(
            f"{path}:1: unsupported spill version {fields[1]!r} "
            f"(this reader speaks version {SPILL_VERSION})"
        )
    header: dict[str, int | str] = {}
    for position, (field, key) in enumerate(
        zip(fields[2:], ("chunk", "trajectories", "payload", "sha256")),
        start=3,
    ):
        name, sep, value = field.partition("=")
        if name != key or not sep:
            raise SpillError(
                f"{path}:1: malformed header field {position} "
                f"({field!r}; expected '{key}=...')"
            )
        if key == "sha256":
            header[key] = value
        else:
            try:
                header[key] = int(value)
            except ValueError as exc:
                raise SpillError(
                    f"{path}:1: malformed header field {position} "
                    f"({field!r}; {key} must be an integer)"
                ) from exc
    return header


def read_spill(
    path: str | Path,
    index: int | None = None,
    expected_trajectories: int | None = None,
) -> TrajectoryDataset:
    """Load and fully validate one staged chunk.

    ``index`` / ``expected_trajectories`` pin what pass 1 recorded for
    this chunk; a spill that disagrees (renamed, swapped, truncated,
    edited) raises :class:`SpillError` naming the line or byte offset
    that diverged rather than feeding pass 2 silently wrong data.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
            payload = handle.read()
    except OSError as exc:
        raise SpillError(f"{path}: cannot read spill: {exc}") from exc
    if not line.endswith(b"\n"):
        raise SpillError(f"{path}:1: truncated header line")
    header = _parse_header(path, line[:-1])
    if index is not None and header["chunk"] != index:
        raise SpillError(
            f"{path}:1: spill holds chunk {header['chunk']}, "
            f"expected chunk {index}"
        )
    if len(payload) != header["payload"]:
        raise SpillError(
            f"{path}:2: payload truncated: header promises "
            f"{header['payload']} byte(s), file holds {len(payload)}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["sha256"]:
        raise SpillError(
            f"{path}:2: payload checksum mismatch (spill mutated after "
            f"staging?)"
        )
    dataset = decode_chunk(payload, source=str(path))
    if len(dataset) != header["trajectories"]:
        raise SpillError(
            f"{path}:1: header promises {header['trajectories']} "
            f"trajectorie(s), payload decodes to {len(dataset)}"
        )
    if (
        expected_trajectories is not None
        and len(dataset) != expected_trajectories
    ):
        raise SpillError(
            f"{path}:1: pass 1 staged {expected_trajectories} "
            f"trajectorie(s) for chunk {header['chunk']}, spill holds "
            f"{len(dataset)}"
        )
    return dataset


# -- the store ------------------------------------------------------------------


class SpillStore:
    """A directory of staged chunks with deterministic cleanup.

    Parameters
    ----------
    directory:
        Where to stage. ``None`` (default) creates a private tempdir
        that is deleted wholesale on :meth:`close`; an explicit
        directory is created if missing, its staged files are removed
        on close, and the directory itself is kept only if it
        pre-existed or still holds foreign files.

    The store only writes and removes; a staged chunk is read back
    with :func:`read_spill` on :meth:`path_of`, from any process.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            self.path = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._owns_dir = True
            self._made_dir = True
        else:
            self.path = Path(directory)
            self._owns_dir = False
            self._made_dir = not self.path.exists()
            self.path.mkdir(parents=True, exist_ok=True)
        self._staged: dict[int, Path] = {}
        self._closed = False

    def __enter__(self) -> "SpillStore":
        if self._closed:
            raise RuntimeError("SpillStore is closed")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def path_of(self, index: int) -> Path:
        """Where chunk ``index`` is (or would be) staged."""
        return self.path / f"chunk-{index:06d}.spill"

    def stage(self, index: int, dataset: TrajectoryDataset) -> Path:
        """Spill one parsed chunk; returns its file path.

        A write that fails (a full disk, say) removes its partial file
        before the error propagates, so :meth:`close` leaves nothing.
        """
        if self._closed:
            raise RuntimeError("SpillStore is closed")
        if index in self._staged:
            raise ValueError(f"chunk {index} is already staged")
        path = self.path_of(index)
        try:
            write_spill(path, index, dataset)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        self._staged[index] = path
        return path

    def remove(self, index: int) -> None:
        """Drop one staged chunk (pass 2 is done with it)."""
        path = self._staged.pop(index, None)
        if path is not None:
            path.unlink(missing_ok=True)

    def close(self) -> None:
        """Remove every staged file (and an owned tempdir); idempotent."""
        if self._closed:
            return
        self._closed = True
        for path in self._staged.values():
            path.unlink(missing_ok=True)
        self._staged.clear()
        if self._owns_dir:
            shutil.rmtree(self.path, ignore_errors=True)
        elif self._made_dir:
            try:
                self.path.rmdir()
            except OSError:
                pass  # the user parked other files there; keep it
