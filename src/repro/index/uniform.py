"""Single-level uniform grid index (the paper's UG baseline).

Segments are registered in every grid cell their bounding box overlaps;
kNN search expands square rings around the query cell and stops once
the next ring cannot contain anything closer than the current K-th
candidate.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from repro.geo.geometry import BBox, Coord
from repro.geo.vectorized import SegmentArray
from repro.index.base import IndexedSegment, SegmentStore
from repro.index.search import KnnCandidates


class UniformGridIndex:
    """A ``granularity`` x ``granularity`` uniform grid over ``bbox``.

    Two segment-assignment modes:

    * ``"overlap"`` (default) — a segment is registered in every cell
      its bounding box overlaps. Queries can prune cells by exact
      MINdist, which makes this the strongest single-level grid; the
      modification pipeline uses it.
    * ``"midpoint"`` — the classic single-cell assignment (the paper's
      UG baseline): a segment lives in the cell of its midpoint only.
      A cell then gives no bound on the extent of its segments, so ring
      expansion must over-scan by the longest indexed segment — the
      "misleading information" the paper's hierarchical index avoids.
    """

    def __init__(
        self,
        bbox: BBox,
        granularity: int = 512,
        assignment: str = "overlap",
    ) -> None:
        if granularity < 1:
            raise ValueError("granularity must be at least 1")
        if assignment not in ("overlap", "midpoint"):
            raise ValueError(f"unknown assignment mode {assignment!r}")
        self.bbox = bbox
        self.granularity = granularity
        self.assignment = assignment
        self._cell_w = max(bbox.width, 1e-9) / granularity
        self._cell_h = max(bbox.height, 1e-9) / granularity
        #: Every segment's geometry and owner; the sid is the row.
        self.store = SegmentStore()
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._cells_of_sid: dict[int, list[tuple[int, int]]] = {}
        #: Lazily-gathered vectorised views ``cell -> (sorted sids,
        #: SegmentArray)``, invalidated per cell on insert/remove. One
        #: numpy distance pass per bucket replaces the per-segment
        #: Python loop, and batched queries over a static index reuse
        #: every view.
        self._views: dict[tuple[int, int], tuple[list[int], SegmentArray]] = {}
        #: Longest segment half-extent, for midpoint-mode ring bounds.
        self._max_half_extent = 0.0
        #: Segments with an endpoint outside ``bbox``. Clamped cell
        #: assignment would break the ring/cell distance bounds (the
        #: protruding geometry can be closer to an outside query than
        #: its clamped cell), so every search checks them exactly.
        self._overflow: set[int] = set()

    # -- geometry helpers -----------------------------------------------------

    def _clamp_cell(self, cx: int, cy: int) -> tuple[int, int]:
        return (
            min(max(cx, 0), self.granularity - 1),
            min(max(cy, 0), self.granularity - 1),
        )

    def cell_of(self, p: Coord) -> tuple[int, int]:
        cx = int(math.floor((p[0] - self.bbox.min_x) / self._cell_w))
        cy = int(math.floor((p[1] - self.bbox.min_y) / self._cell_h))
        return self._clamp_cell(cx, cy)

    def cell_bbox(self, cx: int, cy: int) -> BBox:
        return BBox(
            self.bbox.min_x + cx * self._cell_w,
            self.bbox.min_y + cy * self._cell_h,
            self.bbox.min_x + (cx + 1) * self._cell_w,
            self.bbox.min_y + (cy + 1) * self._cell_h,
        )

    def _cells_overlapping(self, a: Coord, b: Coord) -> list[tuple[int, int]]:
        cx0, cy0 = self.cell_of((min(a[0], b[0]), min(a[1], b[1])))
        cx1, cy1 = self.cell_of((max(a[0], b[0]), max(a[1], b[1])))
        return [
            (cx, cy)
            for cx in range(cx0, cx1 + 1)
            for cy in range(cy0, cy1 + 1)
        ]

    # -- index protocol ---------------------------------------------------------

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        sid = self.store.allocate(a, b, owner)
        if not (self.bbox.contains(a) and self.bbox.contains(b)):
            self._overflow.add(sid)
            self._cells_of_sid[sid] = []
            return sid
        if self.assignment == "overlap":
            cells = self._cells_overlapping(a, b)
        else:
            midpoint = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            cells = [self.cell_of(midpoint)]
            half = math.hypot(b[0] - a[0], b[1] - a[1]) / 2.0
            if half > self._max_half_extent:
                self._max_half_extent = half
        for cell in cells:
            self._cells.setdefault(cell, set()).add(sid)
            self._views.pop(cell, None)
        self._cells_of_sid[sid] = cells
        return sid

    def remove(self, sid: int) -> None:
        self.store.release(sid)
        self._overflow.discard(sid)
        for cell in self._cells_of_sid.pop(sid):
            bucket = self._cells.get(cell)
            if bucket is not None:
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

        In midpoint mode, bounds are slackened by the longest indexed
        segment's half-extent: a cell's bucket can contain geometry
        reaching that far outside the cell.
        """
        if len(self.store) == 0:
            return []
        slack = self._max_half_extent if self.assignment == "midpoint" else 0.0
        candidates = KnnCandidates(k)
        # Out-of-bbox segments carry no valid cell bound; check them
        # exactly up front (this also tightens θ_K before the rings).
        overflow = list(self._overflow)
        distances = self.store.gather(overflow).distances_to(q).tolist()
        for sid, dist in zip(overflow, distances, strict=True):
            candidates.offer(sid, dist)
        qx, qy = self.cell_of(q)
        seen: set[int] = set()
        max_ring = self.granularity  # worst case covers the whole grid
        for ring in range(max_ring + 1):
            # Distance lower bound for cells in this ring: once the ring
            # is entirely farther than θ_K (+ slack), stop.
            if candidates.full and ring > 0:
                ring_min = (ring - 1) * min(self._cell_w, self._cell_h)
                if ring_min > candidates.threshold + slack:
                    break
            for cx, cy in self._ring_cells(qx, qy, ring):
                bucket = self._cells.get((cx, cy))
                if not bucket:
                    continue
                if candidates.full:
                    cell_bound = self.cell_bbox(cx, cy).min_distance(q) - slack
                    if cell_bound > candidates.threshold:
                        continue
                sids, array = self._cell_view((cx, cy))
                distances = array.distances_to(q).tolist()
                for sid, dist in zip(sids, distances, strict=True):
                    if sid in seen:
                        continue
                    seen.add(sid)
                    candidates.offer(sid, dist)
        return candidates.results()

    def knn_batch(self, qs, k: int) -> list[list[tuple[int, float]]]:
        """:meth:`knn` for a batch of queries against one snapshot.

        Ring expansion runs per query, but every touched bucket's
        vectorised segment view is cached across the whole batch (and
        across calls, until the bucket changes).
        """
        return [self.knn(q, k) for q in qs]

    def iter_nearest(self, q: Coord) -> Iterator[tuple[int, float]]:
        """Incremental nearest-segment iteration by ring expansion.

        Rings are scanned outward exactly as in :meth:`knn`; scanned
        candidates wait in a min-heap and are only released once their
        distance is provably smaller than anything an unscanned ring
        can contain (after ring ``r``, unscanned segments sit in rings
        ``>= r + 1`` whose cells are at least ``r`` cell-widths away,
        minus the midpoint-mode slack).
        """
        if len(self.store) == 0:
            return
        slack = self._max_half_extent if self.assignment == "midpoint" else 0.0
        qx, qy = self.cell_of(q)
        min_cell = min(self._cell_w, self._cell_h)
        seen: set[int] = set()
        heap: list[tuple[float, int]] = []
        # Out-of-bbox segments join the heap with exact distances up
        # front; the ring release bound stays valid for them.
        overflow = list(self._overflow)
        distances = self.store.gather(overflow).distances_to(q).tolist()
        for sid, dist in zip(overflow, distances, strict=True):
            seen.add(sid)
            heapq.heappush(heap, (dist, sid))
        for ring in range(self.granularity + 1):
            for cx, cy in self._ring_cells(qx, qy, ring):
                bucket = self._cells.get((cx, cy))
                if not bucket:
                    continue
                sids, array = self._cell_view((cx, cy))
                distances = array.distances_to(q).tolist()
                for sid, dist in zip(sids, distances, strict=True):
                    if sid in seen:
                        continue
                    seen.add(sid)
                    heapq.heappush(heap, (dist, sid))
            safe = ring * min_cell - slack
            while heap and heap[0][0] <= safe:
                dist, sid = heapq.heappop(heap)
                yield sid, dist
        while heap:
            dist, sid = heapq.heappop(heap)
            yield sid, dist

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
