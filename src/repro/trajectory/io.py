"""Reading and writing trajectory datasets in a T-Drive-style format.

The original T-Drive release ships one text file per taxi with lines
``taxi_id,datetime,longitude,latitude``. We support a planar analogue —
``object_id,t,x,y`` with ``t`` in seconds and ``x``/``y`` in metres — in
both single-file and directory-per-object layouts, plus a converter from
latitude/longitude records using an equirectangular projection (adequate
at city scale).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Iterator

from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

#: Mean Earth radius in metres, used by the lat/lon projection helpers.
EARTH_RADIUS_M = 6_371_000.0

#: Largest absolute ``t``, ``x`` or ``y`` the planar readers accept. The
#: index and the modification stages square coordinate differences: two
#: accepted points differ by at most 2·B per axis, so their squared
#: distance is at most 8·B², which must stay finite in float64 (below
#: 1.8e308). B = 1e150 puts that at 8e300, with headroom for sums of
#: such terms. Timestamps get the same bound, so the midpoints of
#: inserted points stay finite too.
MAX_ABS_COORDINATE = 1e150


CSV_HEADER = ["object_id", "t", "x", "y"]


def write_csv_rows(writer, trajectories: Iterable[Trajectory]) -> None:
    """Write ``object_id,t,x,y`` data rows (no header) to a csv writer.

    The one definition of the row format; every producer of the native
    planar CSV (``write_csv``, the ingest artifact writer, the
    streaming publisher's chunk sink) goes through it, so byte-level
    output parity between them cannot drift.
    """
    for trajectory in trajectories:
        for point in trajectory:
            writer.writerow(
                [
                    trajectory.object_id,
                    f"{point.t:.3f}",
                    f"{point.x:.3f}",
                    f"{point.y:.3f}",
                ]
            )


def write_csv(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write the dataset as a single ``object_id,t,x,y`` CSV file."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        write_csv_rows(writer, dataset)


def _planar_point(row: list[str], source: str | Path, line: int) -> Point:
    """The point of a ``…,t,x,y`` row, refusing what the pipeline cannot
    place: a non-numeric field, or one that is not finite or exceeds
    :data:`MAX_ABS_COORDINATE`. The :class:`ValueError` names
    ``source`` and ``line``."""
    try:
        t, x, y = float(row[1]), float(row[2]), float(row[3])
    except ValueError:
        raise ValueError(
            f"{source}:{line}: non-numeric t/x/y field in row {row!r}"
        ) from None
    # A chained comparison is False for NaN and for ±inf, so one test
    # per field refuses both.
    bound = MAX_ABS_COORDINATE
    if -bound <= t <= bound and -bound <= x <= bound and -bound <= y <= bound:
        return Point(x, y, t)
    name, text = next(
        (name, text)
        for name, text, value in zip("txy", row[1:], (t, x, y), strict=True)
        if not -bound <= value <= bound
    )
    raise ValueError(
        f"{source}:{line}: {name}={text!r} is not finite or exceeds "
        f"±{bound:g} in row {row!r}"
    )


def stream_csv_rows(
    lines: Iterable[str], source: str = "<stream>"
) -> Iterator[Trajectory]:
    """Lazily yield one :class:`Trajectory` per object from CSV lines.

    The memory-bounded core of :func:`stream_csv`/:func:`read_csv`: at
    any moment it holds only the current object's points, so arbitrarily
    large files (or unbounded line streams) can be consumed one object
    at a time. Rows must be grouped by object — as :func:`write_csv`
    produces — though the groups themselves may come in any order;
    within a group points are re-sorted by timestamp. Malformed rows
    (including a ``t``, ``x`` or ``y`` that is not finite or exceeds
    :data:`MAX_ABS_COORDINATE`) and a group whose object id already
    appeared earlier raise :class:`ValueError` naming ``source`` and
    the offending line number.
    """
    reader = csv.reader(iter(lines))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(
            f"{source}:1: unexpected header {header!r} "
            f"(expected {','.join(CSV_HEADER)})"
        )
    current_id: str | None = None
    points: list[Point] = []
    seen: set[str] = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(
                f"{source}:{line}: expected 4 fields "
                f"({','.join(CSV_HEADER)}), got {len(row)}: {row!r}"
            )
        object_id = row[0]
        point = _planar_point(row, source, line)
        if object_id != current_id:
            if current_id is not None:
                yield Trajectory(current_id, sorted(points, key=lambda p: p.t))
            if object_id in seen:
                raise ValueError(
                    f"{source}:{line}: rows for object {object_id!r} are "
                    f"not contiguous; group rows by object before reading"
                )
            seen.add(object_id)
            current_id = object_id
            points = []
        points.append(point)
    if current_id is not None:
        yield Trajectory(current_id, sorted(points, key=lambda p: p.t))


def stream_csv(path: str | Path) -> Iterator[Trajectory]:
    """Lazily read a :func:`write_csv` file one trajectory at a time.

    Peak memory is one object's points (plus the line buffer), so this
    is the entry point for datasets too large to materialise — feed it
    to :func:`repro.data.preprocess.preprocess_stream` or chunk it with
    :func:`repro.data.stream.chunked`. See ``docs/data.md``.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        yield from stream_csv_rows(handle, source=str(path))


def read_csv(path: str | Path) -> TrajectoryDataset:
    """Read a dataset previously written with :func:`write_csv`.

    A materialising wrapper around :func:`stream_csv`: rows stream
    through one object at a time rather than being first collected into
    a per-object dict. Rows must be grouped by object (as
    :func:`write_csv` produces) but objects may appear in any order;
    points are re-sorted by timestamp per object. Malformed rows raise
    :class:`ValueError` with the file name and line number.
    """
    return TrajectoryDataset(stream_csv(path))


def write_tdrive_directory(dataset: TrajectoryDataset, directory: str | Path) -> None:
    """Write one ``<object_id>.txt`` file per trajectory, T-Drive style."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for trajectory in dataset:
        target = directory / f"{trajectory.object_id}.txt"
        with target.open("w", newline="") as handle:
            writer = csv.writer(handle)
            for point in trajectory:
                writer.writerow(
                    [trajectory.object_id, f"{point.t:.3f}", f"{point.x:.3f}", f"{point.y:.3f}"]
                )


def read_object_file(path: str | Path) -> Trajectory:
    """Read one per-object ``<object_id>.txt`` file (planar rows).

    The object id is the file stem; points are re-sorted by timestamp.
    Malformed rows, refused as :func:`stream_csv_rows` refuses them,
    raise :class:`ValueError` with file and line number.
    """
    path = Path(path)
    points = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected 4 fields, "
                    f"got {len(row)}: {row!r}"
                )
            points.append(_planar_point(row, path, reader.line_num))
    points.sort(key=lambda p: p.t)
    return Trajectory(path.stem, points)


def read_tdrive_directory(directory: str | Path) -> TrajectoryDataset:
    """Read a directory written by :func:`write_tdrive_directory`."""
    directory = Path(directory)
    return TrajectoryDataset(
        read_object_file(target) for target in sorted(directory.glob("*.txt"))
    )


def project_latlon(
    records: Iterable[tuple[str, float, float, float]],
    origin: tuple[float, float] | None = None,
) -> TrajectoryDataset:
    """Convert ``(object_id, t, lat, lon)`` records into planar metres.

    Uses an equirectangular projection centred on ``origin`` (defaults
    to the mean coordinate), which keeps city-scale distance distortion
    well under 1 %.
    """
    rows = list(records)
    if not rows:
        return TrajectoryDataset()
    if origin is None:
        origin = (
            sum(r[2] for r in rows) / len(rows),
            sum(r[3] for r in rows) / len(rows),
        )
    lat0, lon0 = origin
    cos_lat0 = math.cos(math.radians(lat0))
    points_by_object: dict[str, list[Point]] = {}
    order: list[str] = []
    for object_id, t, lat, lon in rows:
        x = math.radians(lon - lon0) * cos_lat0 * EARTH_RADIUS_M
        y = math.radians(lat - lat0) * EARTH_RADIUS_M
        if object_id not in points_by_object:
            points_by_object[object_id] = []
            order.append(object_id)
        points_by_object[object_id].append(Point(x, y, t))
    trajectories = []
    for object_id in order:
        points = sorted(points_by_object[object_id], key=lambda p: p.t)
        trajectories.append(Trajectory(object_id, points))
    return TrajectoryDataset(trajectories)
