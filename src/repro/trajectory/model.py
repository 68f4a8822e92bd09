"""Core data model: points, trajectories, and trajectory datasets.

Following the paper (Definition 4), a *trajectory* is a chronologically
ordered sequence of spatial points and each moving object contributes a
single trajectory covering its entire history. A *dataset* is therefore
both a collection of trajectories and a collection of objects, and two
datasets are adjacent (for differential privacy) when they differ in at
most one trajectory.

Frequency semantics
-------------------

The paper's mechanisms count how often *locations* occur, so point
identity matters: two samples at the same place must compare equal. We
therefore distinguish

* the :class:`Point` — one GPS sample ``(x, y, t)``; and
* its :data:`LocationKey` — the spatial coordinate quantized to a
  configurable resolution (default 1 m), which is the unit of frequency
  counting (PF/TF), signature extraction, and trajectory editing.

The synthetic T-Drive generator emits samples snapped to road-network
vertices, so repeated visits produce identical keys naturally; noisy
real-world data should be quantized first (see
:meth:`TrajectoryDataset.quantized`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.geo.geometry import BBox, Coord, diameter, path_length, point_distance

#: Spatial identity of a point: its coordinates rounded to the location
#: resolution. All frequency distributions (PF/TF) are keyed by this.
LocationKey = tuple[float, float]

#: Resolution, in metres, at which coordinates are rounded into location
#: keys. One metre collapses floating-point jitter without merging
#: distinct places.
LOCATION_RESOLUTION = 1.0


def location_key(x: float, y: float, resolution: float = LOCATION_RESOLUTION) -> LocationKey:
    """Quantize a coordinate pair into a :data:`LocationKey`."""
    return (round(x / resolution) * resolution, round(y / resolution) * resolution)


@dataclass(frozen=True, slots=True)
class Point:
    """A single trajectory sample: planar position plus timestamp.

    ``t`` is seconds since the dataset epoch; it is carried through
    anonymization so temporal linkage attacks can be evaluated, but the
    paper's mechanisms only perturb the spatial dimension.
    """

    x: float
    y: float
    t: float = 0.0
    #: The quantized spatial identity used for frequency counting,
    #: computed once at construction. Not an argument, and left out of
    #: ``==``, ``hash`` and ``repr``: it follows from ``x`` and ``y``.
    loc: LocationKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "loc", location_key(self.x, self.y))

    @property
    def coord(self) -> Coord:
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return point_distance(self.coord, other.coord)

    def moved_to(self, x: float, y: float) -> "Point":
        """A copy of this point at a new position (same timestamp)."""
        return Point(x, y, self.t)


class Trajectory:
    """An ordered sequence of :class:`Point` belonging to one object.

    The paper's edit operations (OP_i inserts a location into a chosen
    segment, OP_d deletes an occurrence) live in
    :class:`repro.core.edits.EditableTrajectory`, which the
    modification step builds from a trajectory and turns back into one.
    """

    __slots__ = ("object_id", "points")

    def __init__(self, object_id: str, points: Iterable[Point] = ()) -> None:
        self.object_id = object_id
        self.points: list[Point] = list(points)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]

    def __repr__(self) -> str:
        return f"Trajectory({self.object_id!r}, {len(self.points)} points)"

    # -- derived views -------------------------------------------------------

    def coords(self) -> list[Coord]:
        return [p.coord for p in self.points]

    def locations(self) -> list[LocationKey]:
        return [p.loc for p in self.points]

    def point_frequencies(self) -> Counter:
        """PF distribution: occurrences of each location in this trajectory."""
        return Counter(p.loc for p in self.points)

    def distinct_locations(self) -> set[LocationKey]:
        return {p.loc for p in self.points}

    def segments(self) -> Iterator[tuple[int, Point, Point]]:
        """Yield ``(index, start, end)`` for each consecutive segment.

        ``index`` is the position of ``start`` within the trajectory.
        """
        for i in range(len(self.points) - 1):
            yield i, self.points[i], self.points[i + 1]

    def occurrences(self, loc: LocationKey) -> list[int]:
        """Indices at which ``loc`` occurs."""
        return [i for i, p in enumerate(self.points) if p.loc == loc]

    def bbox(self) -> BBox:
        return BBox.from_points(self.coords())

    def length(self) -> float:
        """Total travelled path length in metres."""
        return path_length(self.coords())

    def diameter(self) -> float:
        """Maximum pairwise distance between samples (used by the DE metric)."""
        return diameter(self.coords())

    def duration(self) -> float:
        """Elapsed time between first and last sample."""
        if len(self.points) < 2:
            return 0.0
        return self.points[-1].t - self.points[0].t

    def copy(self) -> "Trajectory":
        return Trajectory(self.object_id, self.points)


class TrajectoryDataset:
    """A collection of trajectories, one per moving object.

    Provides the dataset-level frequency views the global mechanism
    needs, plus convenience statistics used across metrics and the
    experiment harness.
    """

    def __init__(self, trajectories: Iterable[Trajectory] = ()) -> None:
        self.trajectories: list[Trajectory] = list(trajectories)
        ids = [t.object_id for t in self.trajectories]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object ids in dataset")

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def __getitem__(self, index: int) -> Trajectory:
        return self.trajectories[index]

    def __repr__(self) -> str:
        return f"TrajectoryDataset({len(self.trajectories)} trajectories)"

    def by_id(self, object_id: str) -> Trajectory:
        for trajectory in self.trajectories:
            if trajectory.object_id == object_id:
                return trajectory
        raise KeyError(object_id)

    # -- frequency views ------------------------------------------------------

    def trajectory_frequencies(self) -> Counter:
        """TF distribution: how many trajectories pass through each location."""
        counts: Counter = Counter()
        for trajectory in self.trajectories:
            counts.update(trajectory.distinct_locations())
        return counts

    def total_points(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def bbox(self) -> BBox:
        boxes = [t.bbox() for t in self.trajectories if len(t) > 0]
        if not boxes:
            raise ValueError("dataset has no points")
        return BBox(
            min(b.min_x for b in boxes),
            min(b.min_y for b in boxes),
            max(b.max_x for b in boxes),
            max(b.max_y for b in boxes),
        )

    # -- transformations -------------------------------------------------------

    def copy(self) -> "TrajectoryDataset":
        return TrajectoryDataset(t.copy() for t in self.trajectories)

    def map_trajectories(
        self, transform: Callable[[Trajectory], Trajectory]
    ) -> "TrajectoryDataset":
        """A new dataset with ``transform`` applied to every trajectory."""
        return TrajectoryDataset(transform(t) for t in self.trajectories)

    def subset(self, n: int) -> "TrajectoryDataset":
        """The first ``n`` trajectories (cheap copy, shared points)."""
        return TrajectoryDataset(t.copy() for t in self.trajectories[:n])

    def filter_bbox(self, bbox: "BBox") -> "TrajectoryDataset":
        """Keep only the samples falling inside ``bbox``.

        Trajectories left with no samples are dropped entirely.
        """
        filtered = []
        for trajectory in self.trajectories:
            points = [p for p in trajectory if bbox.contains(p.coord)]
            if points:
                filtered.append(Trajectory(trajectory.object_id, points))
        return TrajectoryDataset(filtered)

    def time_slice(self, start: float, end: float) -> "TrajectoryDataset":
        """Keep only the samples with ``start <= t < end``.

        Trajectories left with no samples are dropped entirely.
        """
        if start >= end:
            raise ValueError("start must precede end")
        sliced = []
        for trajectory in self.trajectories:
            points = [p for p in trajectory if start <= p.t < end]
            if points:
                sliced.append(Trajectory(trajectory.object_id, points))
        return TrajectoryDataset(sliced)

    def merge(self, other: "TrajectoryDataset") -> "TrajectoryDataset":
        """Union of two datasets (object ids must not collide)."""
        return TrajectoryDataset(
            [t.copy() for t in self.trajectories]
            + [t.copy() for t in other.trajectories]
        )

    def quantized(self, cell_size: float) -> "TrajectoryDataset":
        """Snap every coordinate to a ``cell_size``-metre lattice.

        Useful as a preprocessing step for noisy GPS data so that repeat
        visits collapse onto identical location keys.
        """

        def snap(trajectory: Trajectory) -> Trajectory:
            points = [
                Point(
                    round(p.x / cell_size) * cell_size,
                    round(p.y / cell_size) * cell_size,
                    p.t,
                )
                for p in trajectory.points
            ]
            return Trajectory(trajectory.object_id, points)

        return self.map_trajectories(snap)

    # -- statistics --------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Headline statistics mirroring the paper's dataset description."""
        lengths = [len(t) for t in self.trajectories]
        spacings: list[float] = []
        for trajectory in self.trajectories:
            pts = trajectory.points
            spacings.extend(
                pts[i].distance_to(pts[i + 1]) for i in range(len(pts) - 1)
            )
        return {
            "trajectories": float(len(self.trajectories)),
            "total_points": float(sum(lengths)),
            "avg_points_per_trajectory": (
                sum(lengths) / len(lengths) if lengths else 0.0
            ),
            "avg_point_spacing_m": (
                sum(spacings) / len(spacings) if spacings else 0.0
            ),
        }
