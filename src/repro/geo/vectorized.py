"""Numpy-vectorised geometry kernels.

Batch versions of the scalar primitives in :mod:`repro.geo.geometry`,
used where the library is distance-bound: the segment indexes' cell
views, the wave planner's created-geometry test, and the INF utility
metric. Results match the scalar implementations to floating-point
accuracy (property-tested).

Every vectorised point-segment distance goes through one column kernel,
:func:`segment_distances`, whose operation order is pinned: it equals,
bit for bit, the pure-Python evaluation of the same expressions with
``math.sqrt`` (see ``tests/test_segment_store.py``), so the result does not
depend on how numpy reduces or fuses anything.
"""

from __future__ import annotations

import numpy as np

from repro.geo.geometry import Coord

#: Rows a nearest-first cursor sorts at a time (see :func:`sorted_block`).
#: Chosen by timing the global stage against 32 and 64; the
#: measurements are in docs/architecture.md.
SORT_BLOCK = 16


def segment_columns(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The derived kernel columns ``(dx, dy, safe_norm_sq)`` of segments.

    ``safe_norm_sq`` is the squared length, with 1.0 standing in for
    degenerate (``a == b``) segments so they project onto their start.
    """
    dx = bx - ax
    dy = by - ay
    norm_sq = dx * dx + dy * dy
    return dx, dy, np.where(norm_sq == 0.0, 1.0, norm_sq)


def segment_distances(
    qx: float,
    qy: float,
    ax: np.ndarray,
    ay: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    safe_norm_sq: np.ndarray,
) -> np.ndarray:
    """Point-segment distance from ``(qx, qy)`` to every row (Eq. 3).

    The one column kernel. Plain elementwise ufuncs in a fixed order:
    the clamped projection parameter ``t``, the gap to the projected
    point, then its length. They run in place on two fresh scratch
    arrays, never on the inputs, instead of making a temporary per
    operation. Each step is the IEEE operation of the plain expression
    ``sqrt(gx * gx + gy * gy)``, ``gx = qx - (ax + t * dx)``, so the
    bits are the same (addition and multiplication commute exactly).
    """
    t = np.subtract(qx, ax)
    t *= dx
    u = np.subtract(qy, ay)
    u *= dy
    t += u
    t /= safe_norm_sq
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    # gx * gx into u, then gy * gy into t.
    np.multiply(t, dx, out=u)
    u += ax
    np.subtract(qx, u, out=u)
    u *= u
    t *= dy
    t += ay
    np.subtract(qy, t, out=t)
    t *= t
    u += t
    return np.sqrt(u, out=u)


def sorted_block(raw: np.ndarray, after: float | None = None) -> np.ndarray:
    """The next block of ``raw``'s positions in stable ascending order.

    Considers the positions whose value is strictly greater than
    ``after`` (every position when ``after`` is None). When more than
    ``2 * SORT_BLOCK`` remain, returns only those valued at most the
    ``SORT_BLOCK``-th smallest of them, ties included; otherwise all of
    them. Either way the block is sorted by (value, position), so
    calling again with ``after`` = the block's last value continues the
    order, and the concatenated blocks equal
    ``np.argsort(raw, kind="stable")``. A consumer that stops early
    never pays for sorting the rest.
    """
    if after is None:
        positions = None
        values = raw
    else:
        positions = np.flatnonzero(raw > after)
        values = raw[positions]
    if len(values) <= 2 * SORT_BLOCK:
        order = np.argsort(values, kind="stable")
    else:
        kth = np.partition(values, SORT_BLOCK - 1)[SORT_BLOCK - 1]
        order = np.flatnonzero(values <= kth)
        order = order[np.argsort(values[order], kind="stable")]
    return order if positions is None else positions[order]


class SegmentArray:
    """A fixed batch of segments supporting vectorised distance queries.

    Holds only the kernel columns ``ax, ay, dx, dy, safe_norm_sq``:
    either derived here from endpoint arrays, or gathered ready-made
    from a :class:`~repro.index.base.SegmentStore` by
    :meth:`from_columns` (the segment indexes' cell views).
    """

    __slots__ = ("ax", "ay", "dx", "dy", "safe_norm_sq")

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """``starts``/``ends``: float arrays of shape (n, 2)."""
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if starts.shape != ends.shape or starts.ndim != 2 or starts.shape[1] != 2:
            raise ValueError("expected matching (n, 2) coordinate arrays")
        self.ax = starts[:, 0]
        self.ay = starts[:, 1]
        self.dx, self.dy, self.safe_norm_sq = segment_columns(
            self.ax, self.ay, ends[:, 0], ends[:, 1]
        )

    @classmethod
    def from_columns(
        cls,
        ax: np.ndarray,
        ay: np.ndarray,
        dx: np.ndarray,
        dy: np.ndarray,
        safe_norm_sq: np.ndarray,
    ) -> "SegmentArray":
        """Wrap already-derived kernel columns without copying them."""
        array = cls.__new__(cls)
        array.ax = ax
        array.ay = ay
        array.dx = dx
        array.dy = dy
        array.safe_norm_sq = safe_norm_sq
        return array

    @classmethod
    def from_pairs(cls, pairs: list[tuple[Coord, Coord]]) -> "SegmentArray":
        if not pairs:
            return cls(np.empty((0, 2)), np.empty((0, 2)))
        starts = np.array([a for a, _ in pairs], dtype=np.float64)
        ends = np.array([b for _, b in pairs], dtype=np.float64)
        return cls(starts, ends)

    @classmethod
    def from_polyline(cls, coords: list[Coord]) -> "SegmentArray":
        """Consecutive-point segments of a polyline."""
        if len(coords) < 2:
            return cls(np.empty((0, 2)), np.empty((0, 2)))
        array = np.asarray(coords, dtype=np.float64)
        return cls(array[:-1], array[1:])

    def __len__(self) -> int:
        return len(self.ax)

    def distances_to(self, q: Coord) -> np.ndarray:
        """Point-segment distance from ``q`` to every segment (Eq. 3)."""
        if len(self) == 0:
            return np.empty(0)
        return segment_distances(
            float(q[0]), float(q[1]),
            self.ax, self.ay, self.dx, self.dy, self.safe_norm_sq,
        )

    def min_distance_to(self, q: Coord) -> float:
        """Minimum distance from ``q`` to the segment set (inf if empty)."""
        if len(self) == 0:
            return float("inf")
        return float(self.distances_to(q).min())

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest segment *positions* (row indices)."""
        if k < 1:
            raise ValueError("k must be positive")
        distances = self.distances_to(q)
        if len(distances) == 0:
            return []
        k = min(k, len(distances))
        order = np.argpartition(distances, k - 1)[:k]
        order = order[np.argsort(distances[order], kind="stable")]
        return [(int(i), float(distances[i])) for i in order]
