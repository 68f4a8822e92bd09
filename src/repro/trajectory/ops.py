"""Trajectory processing utilities.

Standard operations a downstream user of the library needs when
preparing real GPS data for the anonymizers:

* :func:`simplify` — Douglas-Peucker polyline simplification;
* :func:`resample` — fixed-interval temporal resampling;
* :func:`detect_dwells` — stop detection (radius + minimum duration);
* :func:`split_trips` — decompose a full moving history into trips at
  dwells, the decomposition the paper's trip-distribution metric (TE)
  presumes;
* :func:`sliding_windows` — fixed-size sub-trajectory windows.

All functions return new objects; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.geometry import Coord, point_distance, point_segment_distance
from repro.trajectory.model import Point, Trajectory


def simplify(trajectory: Trajectory, tolerance: float) -> Trajectory:
    """Douglas-Peucker simplification with the given tolerance (metres).

    Keeps the first and last sample; a sample is kept when it deviates
    from the simplified chord by more than ``tolerance``.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    points = trajectory.points
    if len(points) <= 2:
        return trajectory.copy()
    keep = [False] * len(points)
    keep[0] = keep[-1] = True
    stack = [(0, len(points) - 1)]
    while stack:
        start, end = stack.pop()
        if end - start < 2:
            continue
        a = points[start].coord
        b = points[end].coord
        worst = -1.0
        worst_index = -1
        for i in range(start + 1, end):
            d = point_segment_distance(points[i].coord, a, b)
            if d > worst:
                worst = d
                worst_index = i
        if worst > tolerance:
            keep[worst_index] = True
            stack.append((start, worst_index))
            stack.append((worst_index, end))
    return Trajectory(
        trajectory.object_id,
        [p for p, kept in zip(points, keep, strict=True) if kept],
    )


def resample(trajectory: Trajectory, interval: float) -> Trajectory:
    """Resample to a fixed time ``interval`` by linear interpolation.

    Output timestamps run from the first to the last original sample in
    steps of ``interval``; positions are interpolated along the
    original sequence.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    points = trajectory.points
    if len(points) < 2:
        return trajectory.copy()
    resampled = []
    t = points[0].t
    cursor = 0
    while t <= points[-1].t:
        while cursor < len(points) - 2 and points[cursor + 1].t < t:
            cursor += 1
        before = points[cursor]
        after = points[cursor + 1]
        span = after.t - before.t
        fraction = (t - before.t) / span if span > 0 else 0.0
        fraction = min(max(fraction, 0.0), 1.0)
        resampled.append(
            Point(
                before.x + fraction * (after.x - before.x),
                before.y + fraction * (after.y - before.y),
                t,
            )
        )
        t += interval
    return Trajectory(trajectory.object_id, resampled)


@dataclass(frozen=True, slots=True)
class Dwell:
    """A detected stop: sample range [start, end] (inclusive)."""

    start: int
    end: int
    centre: Coord
    duration: float


def detect_dwells(
    trajectory: Trajectory,
    radius: float = 100.0,
    min_duration: float = 300.0,
) -> list[Dwell]:
    """Detect stops: maximal runs staying within ``radius`` of their
    first sample for at least ``min_duration`` seconds.
    """
    if radius <= 0 or min_duration <= 0:
        raise ValueError("radius and min_duration must be positive")
    points = trajectory.points
    dwells: list[Dwell] = []
    i = 0
    while i < len(points):
        anchor = points[i]
        j = i
        while (
            j + 1 < len(points)
            and point_distance(points[j + 1].coord, anchor.coord) <= radius
        ):
            j += 1
        duration = points[j].t - points[i].t
        if j > i and duration >= min_duration:
            xs = [points[k].x for k in range(i, j + 1)]
            ys = [points[k].y for k in range(i, j + 1)]
            centre = (sum(xs) / len(xs), sum(ys) / len(ys))
            dwells.append(Dwell(start=i, end=j, centre=centre, duration=duration))
            i = j + 1
        else:
            i += 1
    return dwells


def split_trips(
    trajectory: Trajectory,
    radius: float = 100.0,
    min_duration: float = 300.0,
    min_trip_points: int = 2,
) -> list[Trajectory]:
    """Split a full history into trips at detected dwells.

    Each trip runs from the end of one dwell to the start of the next;
    trips shorter than ``min_trip_points`` samples are discarded.
    Object ids get a ``#k`` suffix per trip.
    """
    dwells = detect_dwells(trajectory, radius=radius, min_duration=min_duration)
    boundaries = [0]
    for dwell in dwells:
        boundaries.extend((dwell.start, dwell.end))
    boundaries.append(len(trajectory) - 1)
    trips = []
    for k in range(0, len(boundaries) - 1, 2):
        start = boundaries[k]
        end = boundaries[k + 1]
        chunk = trajectory.points[start : end + 1]
        if len(chunk) >= min_trip_points:
            trips.append(
                Trajectory(f"{trajectory.object_id}#{len(trips)}", list(chunk))
            )
    return trips


def sliding_windows(
    trajectory: Trajectory, size: int, stride: int | None = None
) -> list[Trajectory]:
    """Fixed-size windows over the trajectory (``stride`` defaults to
    ``size``, i.e. non-overlapping)."""
    if size < 1:
        raise ValueError("size must be positive")
    if stride is None:
        stride = size
    if stride < 1:
        raise ValueError("stride must be positive")
    windows = []
    for start in range(0, max(len(trajectory) - size + 1, 1), stride):
        chunk = trajectory.points[start : start + size]
        if chunk:
            windows.append(
                Trajectory(f"{trajectory.object_id}@{start}", list(chunk))
            )
    return windows
