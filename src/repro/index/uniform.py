"""Single-level uniform grid index (the paper's UG baseline).

A segment lives in the cell of its midpoint only, the classic
single-cell assignment the paper compares against (Figure 5). A cell
then gives no bound on the extent of its segments, so kNN ring
expansion must over-scan by the longest indexed segment — the
"misleading information" the paper's hierarchical index avoids. It is
a search baseline only: the modification stages never build it.
"""

from __future__ import annotations

import math

from repro.geo.geometry import BBox, Coord
from repro.geo.vectorized import SegmentArray
from repro.index.base import IndexedSegment, SegmentStore
from repro.index.search import KnnCandidates


class UniformGridIndex:
    """A ``granularity`` x ``granularity`` uniform grid over ``bbox``.

    kNN search expands square rings around the query cell and stops
    once the next ring cannot contain anything closer than the current
    K-th candidate, with every bound slackened by the longest indexed
    segment's half-extent.
    """

    def __init__(self, bbox: BBox, granularity: int = 512) -> None:
        if granularity < 1:
            raise ValueError("granularity must be at least 1")
        self.bbox = bbox
        self.granularity = granularity
        self._cell_w = max(bbox.width, 1e-9) / granularity
        self._cell_h = max(bbox.height, 1e-9) / granularity
        #: Every segment's geometry and owner; the sid is the row.
        self.store = SegmentStore()
        self._cells: dict[tuple[int, int], set[int]] = {}
        #: Each segment's cell; None for an overflow segment.
        self._cell_of_sid: dict[int, tuple[int, int] | None] = {}
        #: Lazily-gathered vectorised views ``cell -> (sorted sids,
        #: SegmentArray)``, invalidated per cell on insert/remove: one
        #: numpy distance pass per bucket, reused by every query until
        #: the bucket changes.
        self._views: dict[tuple[int, int], tuple[list[int], SegmentArray]] = {}
        #: Longest segment half-extent: how far a bucket's geometry can
        #: reach outside its cell.
        self._max_half_extent = 0.0
        #: Segments with an endpoint outside ``bbox``. Clamped cell
        #: assignment would break the ring/cell distance bounds (the
        #: protruding geometry can be closer to an outside query than
        #: its clamped cell), so every search checks them exactly.
        self._overflow: set[int] = set()

    # -- geometry helpers -----------------------------------------------------

    def cell_of(self, p: Coord) -> tuple[int, int]:
        cx = int(math.floor((p[0] - self.bbox.min_x) / self._cell_w))
        cy = int(math.floor((p[1] - self.bbox.min_y) / self._cell_h))
        return (
            min(max(cx, 0), self.granularity - 1),
            min(max(cy, 0), self.granularity - 1),
        )

    def cell_bbox(self, cx: int, cy: int) -> BBox:
        return BBox(
            self.bbox.min_x + cx * self._cell_w,
            self.bbox.min_y + cy * self._cell_h,
            self.bbox.min_x + (cx + 1) * self._cell_w,
            self.bbox.min_y + (cy + 1) * self._cell_h,
        )

    # -- index protocol ---------------------------------------------------------

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        sid = self.store.allocate(a, b, owner)
        if not (self.bbox.contains(a) and self.bbox.contains(b)):
            self._overflow.add(sid)
            self._cell_of_sid[sid] = None
            return sid
        cell = self.cell_of(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        half = math.hypot(b[0] - a[0], b[1] - a[1]) / 2.0
        if half > self._max_half_extent:
            self._max_half_extent = half
        self._cells.setdefault(cell, set()).add(sid)
        self._views.pop(cell, None)
        self._cell_of_sid[sid] = cell
        return sid

    def remove(self, sid: int) -> None:
        self.store.release(sid)
        cell = self._cell_of_sid.pop(sid)
        if cell is None:
            self._overflow.discard(sid)
            return
        bucket = self._cells[cell]
        bucket.discard(sid)
        self._views.pop(cell, None)
        if not bucket:
            del self._cells[cell]

    def segment(self, sid: int) -> IndexedSegment:
        return self.store.segment(sid)

    def owner_of(self, sid: int) -> str | None:
        return self.store.owner_of(sid)

    def __len__(self) -> int:
        return len(self.store)

    def _cell_view(
        self, cell: tuple[int, int]
    ) -> tuple[list[int], SegmentArray]:
        """The bucket's vectorised segment view: one gather of its
        sorted sids from the store, cached until the bucket next
        changes."""
        view = self._views.get(cell)
        if view is None:
            sids = sorted(self._cells[cell])
            view = (sids, self.store.gather(sids))
            self._views[cell] = view
        return view

    # -- search --------------------------------------------------------------------

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        """Ring-expansion K-nearest segment search.

        Bounds are slackened by the longest indexed segment's
        half-extent: a cell's bucket can contain geometry reaching that
        far outside the cell.
        """
        if len(self.store) == 0:
            return []
        slack = self._max_half_extent
        candidates = KnnCandidates(k)
        # Out-of-bbox segments carry no valid cell bound; check them
        # exactly up front (this also tightens θ_K before the rings).
        overflow = list(self._overflow)
        distances = self.store.gather(overflow).distances_to(q).tolist()
        for sid, dist in zip(overflow, distances, strict=True):
            candidates.offer(sid, dist)
        qx, qy = self.cell_of(q)
        for ring in range(self.granularity + 1):
            # Distance lower bound for cells in this ring: once the ring
            # is entirely farther than θ_K (+ slack), stop.
            if candidates.full and ring > 0:
                ring_min = (ring - 1) * min(self._cell_w, self._cell_h)
                if ring_min > candidates.threshold + slack:
                    break
            for cx, cy in self._ring_cells(qx, qy, ring):
                if not self._cells.get((cx, cy)):
                    continue
                if candidates.full:
                    cell_bound = self.cell_bbox(cx, cy).min_distance(q) - slack
                    if cell_bound > candidates.threshold:
                        continue
                sids, array = self._cell_view((cx, cy))
                distances = array.distances_to(q).tolist()
                for sid, dist in zip(sids, distances, strict=True):
                    candidates.offer(sid, dist)
        return candidates.results()

    def _ring_cells(self, qx: int, qy: int, ring: int):
        if ring == 0:
            yield (qx, qy)
            return
        lo_x, hi_x = qx - ring, qx + ring
        lo_y, hi_y = qy - ring, qy + ring
        for cx in range(max(lo_x, 0), min(hi_x, self.granularity - 1) + 1):
            for cy in (lo_y, hi_y):
                if 0 <= cy < self.granularity:
                    yield (cx, cy)
        for cy in range(max(lo_y + 1, 0), min(hi_y - 1, self.granularity - 1) + 1):
            for cx in (lo_x, hi_x):
                if 0 <= cx < self.granularity:
                    yield (cx, cy)
