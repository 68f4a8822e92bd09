"""Planar geometry used by the edit-cost model and the spatial indexes.

The paper's utility-loss definitions (Definitions 5 and 6) and the
point-to-grid-cell pruning bound (Definition 12, Theorem 4) reduce to two
primitives implemented here:

* :func:`point_segment_distance` — Equation (3) of the paper, the minimum
  distance from a point to a closed line segment; and
* :meth:`BBox.min_distance` — Equation (4), the minimum distance from a
  point to an axis-aligned rectangle (zero when the point is inside).

Coordinates are plain ``(x, y)`` tuples in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

Coord = tuple[float, float]


def point_distance(p: Coord, q: Coord) -> float:
    """Euclidean distance between two planar points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def segment_length(a: Coord, b: Coord) -> float:
    """Length of the segment ``<a, b>``."""
    return point_distance(a, b)


def project_onto_segment(q: Coord, a: Coord, b: Coord) -> tuple[Coord, float]:
    """Project point ``q`` onto segment ``<a, b>``.

    Returns the closest point on the segment and the clamped projection
    parameter ``t`` in ``[0, 1]`` (``0`` maps to ``a``, ``1`` to ``b``).
    Degenerate segments (``a == b``) project onto ``a``.
    """
    ax, ay = a
    bx, by = b
    dx = bx - ax
    dy = by - ay
    norm_sq = dx * dx + dy * dy
    if norm_sq == 0.0:
        return a, 0.0
    t = ((q[0] - ax) * dx + (q[1] - ay) * dy) / norm_sq
    t = max(0.0, min(1.0, t))
    return (ax + t * dx, ay + t * dy), t


def point_segment_distance(q: Coord, a: Coord, b: Coord) -> float:
    """Minimum distance from ``q`` to segment ``<a, b>`` (Equation 3)."""
    closest, _ = project_onto_segment(q, a, b)
    return point_distance(q, closest)


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned bounding box ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(f"degenerate bbox: {self}")

    @classmethod
    def from_points(cls, points: Iterable[Coord]) -> "BBox":
        """Smallest bbox enclosing ``points`` (which must be non-empty)."""
        iterator = iter(points)
        try:
            x, y = next(iterator)
        except StopIteration:
            raise ValueError("cannot build a bbox from zero points") from None
        min_x = max_x = x
        min_y = max_y = y
        for px, py in iterator:
            min_x = min(min_x, px)
            max_x = max(max_x, px)
            min_y = min(min_y, py)
            max_y = max(max_y, py)
        return cls(min_x, min_y, max_x, max_y)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Coord:
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, p: Coord) -> bool:
        """Whether ``p`` lies inside the box (boundary inclusive)."""
        return self.min_x <= p[0] <= self.max_x and self.min_y <= p[1] <= self.max_y

    def contains_bbox(self, other: "BBox") -> bool:
        """Whether ``other`` is entirely inside this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def min_distance(self, p: Coord) -> float:
        """Minimum distance from ``p`` to the box (Equation 4).

        Zero when ``p`` lies inside the box; otherwise the distance to the
        nearest edge.
        """
        dx = max(self.min_x - p[0], 0.0, p[0] - self.max_x)
        dy = max(self.min_y - p[1], 0.0, p[1] - self.max_y)
        return math.hypot(dx, dy)

    def expand(self, margin: float) -> "BBox":
        """A copy grown by ``margin`` on every side."""
        return BBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )


def path_length(points: Sequence[Coord]) -> float:
    """Total polyline length of a point sequence."""
    return sum(
        point_distance(points[i], points[i + 1]) for i in range(len(points) - 1)
    )


def diameter(points: Sequence[Coord]) -> float:
    """Maximum pairwise distance within ``points``.

    Uses the convex-hull-free O(n^2) definition for small inputs but
    falls back to a bbox-corner approximation for long trajectories,
    which is accurate enough for the diameter *distribution* metric the
    paper reports (DE) while keeping the metric linear-time.
    """
    n = len(points)
    if n < 2:
        return 0.0
    if n <= 256:
        best = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                d = point_distance(points[i], points[j])
                if d > best:
                    best = d
        return best
    # Approximation: the diameter is bounded below by the largest
    # distance from a bbox corner-touching point to any other extreme
    # point, and above by the bbox diagonal. We refine with two rounds
    # of the standard "furthest point" double sweep.
    anchor = points[0]
    far = max(points, key=lambda p: point_distance(anchor, p))
    far2 = max(points, key=lambda p: point_distance(far, p))
    return point_distance(far, far2)
