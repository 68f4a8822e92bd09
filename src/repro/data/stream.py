"""Streaming readers for real trajectory datasets.

Everything here is a generator over generators: a file (or directory of
per-object files) flows through record parsing, projection, and
grouping one object at a time, so peak memory is bounded by the largest
single trajectory — never by the dataset. Two source formats are
understood (see ``docs/data.md`` for the full spec):

* **raw T-Drive** — ``taxi_id,datetime,longitude,latitude`` lines, as
  in the Microsoft T-Drive release (one ``.txt`` file per taxi, no
  header); timestamps like ``2008-02-02 15:36:08`` are parsed as UTC
  and converted to epoch seconds, and coordinates are projected to
  planar metres with the same equirectangular projection as
  :func:`repro.trajectory.io.project_latlon`;
* **planar** — the repo's native ``object_id,t,x,y`` CSV written by
  :func:`repro.trajectory.io.write_csv`.

Rows must be grouped by object (true of both the T-Drive release and
``write_csv`` output); an object id that reappears after its group
ended raises a :class:`ValueError` with the line number rather than
silently splitting or buffering unboundedly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from repro.trajectory.io import (
    EARTH_RADIUS_M,
    MAX_ABS_COORDINATE,
    read_object_file,
    stream_csv_rows,
)
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

#: Recognised source formats for :func:`stream_trajectories`.
FORMATS = ("auto", "planar", "tdrive")

#: Timestamp layout of the T-Drive release.
TDRIVE_DATETIME_FORMAT = "%Y-%m-%d %H:%M:%S"


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One raw T-Drive sample: object id, epoch seconds, WGS84 degrees."""

    object_id: str
    t: float
    lat: float
    lon: float


def parse_timestamp(text: str) -> float:
    """Epoch seconds from a T-Drive datetime or a plain float literal."""
    try:
        return float(text)
    except ValueError:
        pass
    moment = datetime.strptime(text, TDRIVE_DATETIME_FORMAT)
    return moment.replace(tzinfo=timezone.utc).timestamp()


def _tdrive_files(source: Path) -> list[Path]:
    if source.is_dir():
        files = sorted(p for p in source.iterdir() if p.suffix in (".txt", ".csv"))
        if not files:
            raise ValueError(f"no .txt/.csv files under {source}")
        return files
    return [source]


def stream_tdrive_records(source: str | Path) -> Iterator[RawRecord]:
    """Lazily yield :class:`RawRecord` from a raw T-Drive file/directory.

    Lines are ``taxi_id,datetime,longitude,latitude`` with no header.
    Malformed lines raise :class:`ValueError` naming the file and line
    number, and so do a timestamp that is not finite or exceeds
    :data:`~repro.trajectory.io.MAX_ABS_COORDINATE` and a latitude or
    longitude that is not finite or lies outside ±90 or ±180 degrees.
    Directories are read file by file in name order.
    """
    for path in _tdrive_files(Path(source)):
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != 4:
                    raise ValueError(
                        f"{path}:{line}: expected 4 fields "
                        f"(taxi_id,datetime,longitude,latitude), "
                        f"got {len(row)}: {row!r}"
                    )
                object_id, stamp, lon, lat = row
                try:
                    record = RawRecord(
                        object_id, parse_timestamp(stamp), float(lat), float(lon)
                    )
                except ValueError:
                    raise ValueError(
                        f"{path}:{line}: malformed datetime/longitude/"
                        f"latitude in row {row!r}"
                    ) from None
                # Chained comparisons are False for NaN and ±inf too.
                if not (
                    -MAX_ABS_COORDINATE <= record.t <= MAX_ABS_COORDINATE
                    and -90.0 <= record.lat <= 90.0
                    and -180.0 <= record.lon <= 180.0
                ):
                    raise ValueError(
                        f"{path}:{line}: timestamp not finite or beyond "
                        f"±{MAX_ABS_COORDINATE:g}, latitude outside ±90 or "
                        f"longitude outside ±180 degrees in row {row!r}"
                    )
                yield record


def scan_origin(source: str | Path) -> tuple[float, float]:
    """Mean ``(lat, lon)`` of a raw source — one cheap streaming pass.

    The ingest pipeline uses this as the default projection origin so a
    second pass can project records without holding any of them.
    """
    count = 0
    lat_sum = 0.0
    lon_sum = 0.0
    for record in stream_tdrive_records(source):
        count += 1
        lat_sum += record.lat
        lon_sum += record.lon
    if count == 0:
        raise ValueError(f"no records in {source}")
    return (lat_sum / count, lon_sum / count)


def project_record(lat: float, lon: float, origin: tuple[float, float]) -> tuple[float, float]:
    """Equirectangular ``(lat, lon) -> (x, y)`` metres around ``origin``."""
    lat0, lon0 = origin
    cos_lat0 = math.cos(math.radians(lat0))
    x = math.radians(lon - lon0) * cos_lat0 * EARTH_RADIUS_M
    y = math.radians(lat - lat0) * EARTH_RADIUS_M
    return x, y


def unproject_point(x: float, y: float, origin: tuple[float, float]) -> tuple[float, float]:
    """Inverse of :func:`project_record`: planar metres back to degrees."""
    lat0, lon0 = origin
    cos_lat0 = math.cos(math.radians(lat0))
    lat = lat0 + math.degrees(y / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(x / (EARTH_RADIUS_M * cos_lat0))
    return lat, lon


def group_records(
    records: Iterable[RawRecord],
    origin: tuple[float, float],
    source: str = "<records>",
) -> Iterator[Trajectory]:
    """Group consecutive same-object records into projected trajectories.

    Bounded memory: only the current object's points are held. A record
    whose object id reappears after its group ended raises
    :class:`ValueError` (grouped input is part of the format contract).
    Points are re-sorted by timestamp within each object.
    """
    current_id: str | None = None
    points: list[Point] = []
    seen: set[str] = set()
    for record in records:
        if record.object_id != current_id:
            if current_id is not None:
                yield Trajectory(current_id, sorted(points, key=lambda p: p.t))
            if record.object_id in seen:
                raise ValueError(
                    f"{source}: records for object {record.object_id!r} are "
                    f"not contiguous; group records by object before reading"
                )
            seen.add(record.object_id)
            current_id = record.object_id
            points = []
        x, y = project_record(record.lat, record.lon, origin)
        points.append(Point(x, y, record.t))
    if current_id is not None:
        yield Trajectory(current_id, sorted(points, key=lambda p: p.t))


def detect_format(source: str | Path) -> str:
    """``"planar"`` or ``"tdrive"``, sniffed from the first data line.

    Planar sources either carry the ``object_id,t,x,y`` header or have a
    numeric second field; T-Drive lines have a datetime there.
    """
    path = Path(source)
    probe = _tdrive_files(path)[0] if path.is_dir() else path
    with probe.open(newline="") as handle:
        for row in csv.reader(handle):
            if not row:
                continue
            if [cell.strip() for cell in row] == ["object_id", "t", "x", "y"]:
                return "planar"
            if len(row) == 4:
                try:
                    float(row[1])
                    return "planar"
                except ValueError:
                    return "tdrive"
            break
    raise ValueError(f"cannot detect dataset format of {source}")


def stream_trajectories(
    source: str | Path,
    format: str = "auto",
    origin: tuple[float, float] | None = None,
) -> Iterator[Trajectory]:
    """Lazily yield trajectories from any supported raw source.

    ``format`` is one of :data:`FORMATS`; ``"auto"`` sniffs via
    :func:`detect_format`. For T-Drive sources, ``origin`` fixes the
    projection origin; when omitted a first streaming pass computes the
    mean coordinate (:func:`scan_origin`) — still bounded memory, at the
    cost of reading the source twice.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; choose from {FORMATS}")
    path = Path(source)
    if format == "auto":
        format = detect_format(path)
    if format == "planar":
        if path.is_dir():
            for target in _tdrive_files(path):
                yield read_object_file(target)
        else:
            with path.open(newline="") as handle:
                yield from stream_csv_rows(handle, source=str(path))
        return
    if origin is None:
        origin = scan_origin(path)
    yield from group_records(
        stream_tdrive_records(path), origin, source=str(path)
    )


def chunked(
    trajectories: Iterable[Trajectory], chunk_size: int
) -> Iterator[TrajectoryDataset]:
    """Group a lazy trajectory stream into ``chunk_size``-sized datasets.

    The bridge between the streaming readers and dataset-at-a-time
    consumers such as :class:`repro.engine.StreamPublisher` and
    :func:`repro.experiments.publish.per_chunk_release`: the source is
    pulled one trajectory at a time, so at most one chunk is
    materialised.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    batch: list[Trajectory] = []
    for trajectory in trajectories:
        batch.append(trajectory)
        if len(batch) >= chunk_size:
            yield TrajectoryDataset(batch)
            batch = []
    if batch:
        yield TrajectoryDataset(batch)
