"""The paper's hierarchical grid index (Section IV-C).

A stack of nested uniform grids with power-of-two granularities: level
``L`` has ``2^L`` cells per side, level 0 being the single root cell
covering the whole area. Each segment lives in its **best-fit** cell
(Definition 11) — the finest cell that contains both endpoints. Cells
record parent/children relationships so searches can move both up and
down the hierarchy.

Three K-nearest-segment search strategies are provided:

* ``top_down`` (HGt) — classic best-first descent from the root;
* ``bottom_up`` (HGb) — start from the finest non-empty cell containing
  the query and climb, exploring each newly exposed subtree;
* ``bottom_up_down`` (HG+) — the paper's Algorithm 3: a stack-driven
  bottom-up phase until the root is reached (tightening the pruning
  threshold θ_K early), then a best-first top-down phase over a priority
  queue with early termination (Theorem 4).

Search statistics (cells visited, segments checked) are recorded per
call for the efficiency study.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.geo.geometry import BBox, Coord
from repro.geo.vectorized import SegmentArray, sorted_block
from repro.index.base import IndexedSegment, SegmentStore
from repro.index.search import KnnCandidates

#: Cell address: (level, ix, iy). Level 0 is the 1x1 root grid.
CellKey = tuple[int, int, int]

ROOT: CellKey = (0, 0, 0)

#: The three search strategies of Section IV-C2 (HGt, HGb, HG+).
STRATEGIES = ("top_down", "bottom_up", "bottom_up_down")


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` for a non-negative int64 array.

    The binary exponent from ``frexp`` — exact for values below 2**53,
    far beyond any grid coordinate (< 2**levels).
    """
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


@dataclass(slots=True)
class _Cell:
    """Bookkeeping for one existing cell."""

    segments: set[int] = field(default_factory=set)
    children: set[CellKey] = field(default_factory=set)
    #: Lazily-gathered vectorised view ``(sorted sids, SegmentArray)``
    #: of ``segments``; invalidated whenever the segment set changes.
    #: Lets every search batch a whole cell's exact distances in one
    #: numpy pass instead of one Python call per segment.
    array: tuple[list[int], SegmentArray] | None = None

    @property
    def empty(self) -> bool:
        return not self.segments and not self.children


@dataclass(slots=True)
class SearchStats:
    """Work counters for one kNN call (used by the efficiency study)."""

    cells_visited: int = 0
    segments_checked: int = 0


class HierarchicalGridIndex:
    """Multi-resolution grid with best-fit segment placement."""

    def __init__(self, bbox: BBox, levels: int = 10) -> None:
        """``levels`` grids, the finest having ``2**(levels-1)`` cells/side.

        The paper's finest granularity of 512x512 corresponds to the
        default ``levels=10``.
        """
        if levels < 1:
            raise ValueError("need at least one level")
        self.bbox = bbox
        self.levels = levels
        self._finest = levels - 1
        self._side = 2**self._finest  # cells per side at the finest level
        self._width = max(bbox.width, 1e-9)
        self._height = max(bbox.height, 1e-9)
        #: Every segment's geometry and owner; the sid is the row.
        self.store = SegmentStore()
        self._cells: dict[CellKey, _Cell] = {}
        self._cell_of_sid: dict[int, CellKey | None] = {}
        #: Segments with an endpoint outside ``bbox``. Clamping them
        #: into boundary cells would break MINdist's lower-bound
        #: guarantee (the protruding geometry can be closer to an
        #: outside query than its cell), so they bypass the hierarchy
        #: and every search checks them exactly.
        self._overflow: set[int] = set()
        self.last_stats = SearchStats()

    # -- cell geometry -----------------------------------------------------------

    def _finest_coords(self, p: Coord) -> tuple[int, int]:
        """Cell coordinates of ``p`` at the finest level (clamped into range)."""
        fx = int(math.floor((p[0] - self.bbox.min_x) / self._width * self._side))
        fy = int(math.floor((p[1] - self.bbox.min_y) / self._height * self._side))
        fx = min(max(fx, 0), self._side - 1)
        fy = min(max(fy, 0), self._side - 1)
        return fx, fy

    def best_fit_cell(self, a: Coord, b: Coord) -> CellKey:
        """Finest cell containing both endpoints (Definition 11)."""
        ax, ay = self._finest_coords(a)
        bx, by = self._finest_coords(b)
        diverging_bits = max((ax ^ bx).bit_length(), (ay ^ by).bit_length())
        level = self._finest - diverging_bits
        return (level, ax >> diverging_bits, ay >> diverging_bits)

    def cell_bbox(self, key: CellKey) -> BBox:
        level, ix, iy = key
        cells = 2**level
        w = self._width / cells
        h = self._height / cells
        return BBox(
            self.bbox.min_x + ix * w,
            self.bbox.min_y + iy * h,
            self.bbox.min_x + (ix + 1) * w,
            self.bbox.min_y + (iy + 1) * h,
        )

    def min_distance(self, q: Coord, key: CellKey) -> float:
        """MINdist(q, cell) — Equation (4).

        Inlined (no BBox allocation): this runs once per candidate cell
        on every search, making it the hottest geometry call in the
        modification pipeline.
        """
        level, ix, iy = key
        cells = 1 << level
        w = self._width / cells
        h = self._height / cells
        min_x = self.bbox.min_x + ix * w
        min_y = self.bbox.min_y + iy * h
        dx = min_x - q[0]
        if dx < 0.0:
            dx = q[0] - min_x - w
            if dx < 0.0:
                dx = 0.0
        dy = min_y - q[1]
        if dy < 0.0:
            dy = q[1] - min_y - h
            if dy < 0.0:
                dy = 0.0
        return math.hypot(dx, dy)

    @staticmethod
    def parent_of(key: CellKey) -> CellKey | None:
        level, ix, iy = key
        if level == 0:
            return None
        return (level - 1, ix >> 1, iy >> 1)

    # -- structure maintenance ------------------------------------------------------

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        sid = self.store.allocate(a, b, owner)
        if not (self.bbox.contains(a) and self.bbox.contains(b)):
            self._cell_of_sid[sid] = None
            self._overflow.add(sid)
            return sid
        self._place(sid, self.best_fit_cell(a, b))
        return sid

    def _place(self, sid: int, key: CellKey) -> None:
        """File ``sid`` under its best-fit cell, creating the cell chain."""
        self._cell_of_sid[sid] = key
        cell = self._cells.get(key)
        if cell is None:
            cell = _Cell()
            self._cells[key] = cell
            self._link_ancestors(key)
        cell.segments.add(sid)
        cell.array = None

    def insert_many(
        self,
        pairs,
        owner: str | None = None,
    ) -> list[int]:
        """Bulk :meth:`insert`: one vectorised best-fit pass per batch.

        Allocates the whole batch as one block of store rows, and
        computes every segment's finest-level coordinates, diverging
        bit count, and best-fit cell (Definition 11) in numpy across
        the batch, leaving only the cell bookkeeping in Python.
        Identical placement and sid allocation to the equivalent
        ``insert`` loop.
        """
        if not pairs:
            return []
        starts = np.asarray([a for a, _ in pairs], dtype=np.float64)
        ends = np.asarray([b for _, b in pairs], dtype=np.float64)
        inside = (
            (starts[:, 0] >= self.bbox.min_x)
            & (starts[:, 0] <= self.bbox.max_x)
            & (starts[:, 1] >= self.bbox.min_y)
            & (starts[:, 1] <= self.bbox.max_y)
            & (ends[:, 0] >= self.bbox.min_x)
            & (ends[:, 0] <= self.bbox.max_x)
            & (ends[:, 1] >= self.bbox.min_y)
            & (ends[:, 1] <= self.bbox.max_y)
        )
        fx_a, fy_a = self._finest_coords_batch(starts)
        fx_b, fy_b = self._finest_coords_batch(ends)
        diverging = np.maximum(
            _bit_lengths(fx_a ^ fx_b), _bit_lengths(fy_a ^ fy_b)
        )
        levels = self._finest - diverging
        cxs = fx_a >> diverging
        cys = fy_a >> diverging
        sids = self.store.allocate_many(starts, ends, owner)
        for sid, fits, level, cx, cy in zip(
            sids, inside.tolist(), levels.tolist(), cxs.tolist(), cys.tolist(),
            strict=True,
        ):
            if fits:
                self._place(sid, (level, cx, cy))
            else:
                self._cell_of_sid[sid] = None
                self._overflow.add(sid)
        return list(sids)

    def _finest_coords_batch(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`_finest_coords`: same IEEE operations in
        the same order, so placement matches the scalar path exactly."""
        fx = np.floor(
            (points[:, 0] - self.bbox.min_x) / self._width * self._side
        ).astype(np.int64)
        fy = np.floor(
            (points[:, 1] - self.bbox.min_y) / self._height * self._side
        ).astype(np.int64)
        np.clip(fx, 0, self._side - 1, out=fx)
        np.clip(fy, 0, self._side - 1, out=fy)
        return fx, fy

    def _link_ancestors(self, key: CellKey) -> None:
        """Ensure the chain from ``key`` up to the root exists."""
        child = key
        parent = self.parent_of(child)
        while parent is not None:
            cell = self._cells.get(parent)
            if cell is None:
                cell = _Cell()
                self._cells[parent] = cell
                cell.children.add(child)
                child, parent = parent, self.parent_of(parent)
            else:
                cell.children.add(child)
                break

    def remove(self, sid: int) -> None:
        self.store.release(sid)
        key = self._cell_of_sid.pop(sid)
        if key is None:
            self._overflow.discard(sid)
            return
        cell = self._cells[key]
        cell.segments.discard(sid)
        cell.array = None
        self._prune_upwards(key)

    def _prune_upwards(self, key: CellKey) -> None:
        """Delete now-empty cells and unlink them from their parents."""
        while True:
            cell = self._cells.get(key)
            if cell is None or not cell.empty:
                return
            del self._cells[key]
            parent = self.parent_of(key)
            if parent is None:
                return
            self._cells[parent].children.discard(key)
            key = parent

    def segment(self, sid: int) -> IndexedSegment:
        return self.store.segment(sid)

    def owner_of(self, sid: int) -> str | None:
        return self.store.owner_of(sid)

    def __len__(self) -> int:
        return len(self.store)

    def cell_count(self) -> int:
        """Number of materialised cells (structure-size diagnostic)."""
        return len(self._cells)

    # -- search -----------------------------------------------------------------------

    def knn(
        self, q: Coord, k: int, strategy: str = "bottom_up_down"
    ) -> list[tuple[int, float]]:
        """K-nearest segment search with the chosen strategy."""
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
        stats = SearchStats()
        self.last_stats = stats
        return self._knn_one(q, k, strategy, stats)

    def knn_batch(
        self, qs, k: int, strategy: str = "bottom_up_down"
    ) -> list[list[tuple[int, float]]]:
        """:meth:`knn` for a batch of queries against one index snapshot.

        Every query reuses the same cached per-cell
        :class:`~repro.geo.vectorized.SegmentArray` batches (built at
        most once per cell for the whole call), so a batch over a
        static index does the numpy distance kernels per (query, cell)
        but the Python-side view construction only per cell.
        :attr:`last_stats` accumulates the work of the whole batch.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
        stats = SearchStats()
        self.last_stats = stats
        return [self._knn_one(q, k, strategy, stats) for q in qs]

    def _knn_one(
        self, q: Coord, k: int, strategy: str, stats: SearchStats
    ) -> list[tuple[int, float]]:
        if not self._cells and not self._overflow:
            return []
        candidates = KnnCandidates(k)
        # Out-of-bbox segments carry no valid cell bound; check them
        # exactly up front (this also tightens θ_K before descent).
        overflow = list(self._overflow)
        stats.segments_checked += len(overflow)
        distances = self.store.gather(overflow).distances_to(q).tolist()
        for sid, dist in zip(overflow, distances, strict=True):
            candidates.offer(sid, dist)
        if not self._cells:
            return candidates.results()
        if strategy == "top_down":
            self._search_top_down(q, candidates, stats)
        elif strategy == "bottom_up":
            self._search_bottom_up(q, candidates, stats)
        else:
            self._search_bottom_up_down(q, candidates, stats)
        return candidates.results()

    def _cell_view(self, cell: _Cell) -> tuple[list[int], SegmentArray]:
        """The cell's vectorised segment view: one gather of its sorted
        sids from the store, cached until the cell's segment set next
        changes."""
        if cell.array is None:
            sids = sorted(cell.segments)
            cell.array = (sids, self.store.gather(sids))
        return cell.array

    def iter_nearest(self, q: Coord):
        """Resumable best-first frontier over the cell hierarchy.

        One priority queue holds unexplored cells (keyed by MINdist,
        which lower-bounds every descendant segment) and per-cell
        *cursors* into distance-sorted segment batches (keyed by the
        cursor head's exact distance). Expanding a cell computes every
        contained segment's distance in one vectorised pass but sorts
        only its nearest block (:func:`~repro.geo.vectorized.sorted_block`);
        only the cheapest then enters the heap, and popping it re-arms the
        cursor with the cell's next segment, sorting the next block when
        the current one runs out. Pop order therefore yields
        segments in globally nondecreasing distance, and the frontier
        pauses wherever the consumer stops — no θ_K, no restarts.

        Cells sort ahead of equidistant segments so a tied segment
        inside an unexpanded cell cannot be skipped; segment ties
        resolve by ascending sid exactly like :meth:`knn` (within a
        cell the batch is (distance, sid)-sorted, and every cell's head
        is always on the heap). Work is recorded in :attr:`last_stats`
        like any other search.
        """
        stats = SearchStats()
        self.last_stats = stats
        if not self._cells and not self._overflow:
            return
        # Entries: (distance, kind, key, ...) with kind 0 = cell —
        # (dist, 0, cell key) — and kind 1 = segment cursor —
        # (dist, 1, sid, sids, block, raw distances, position), where
        # sids is the cell's sorted sid list and block/raw stay numpy:
        # only the cursor head is ever converted to Python scalars, so
        # a cell whose tail the consumer never reaches costs nothing
        # beyond its one vectorised distance pass. Comparison never
        # reaches the unorderable payload: kind separates the shapes
        # and sids are unique.
        heap: list[tuple] = []
        if self._cells:
            heap.append((self.min_distance(q, ROOT), 0, ROOT))
        if self._overflow:
            # Out-of-bbox segments have no valid cell bound: enter the
            # frontier as one pre-sorted exact-distance cursor.
            sids = sorted(self._overflow)
            stats.segments_checked += len(sids)
            raw = self.store.gather(sids).distances_to(q)
            block = sorted_block(raw)
            head = int(block[0])
            heap.append((float(raw[head]), 1, sids[head], sids, block, raw, 0))
        heapq.heapify(heap)
        while heap:
            entry = heapq.heappop(heap)
            if entry[1]:
                dist, _, sid, sids, block, raw, position = entry
                yield sid, dist
                position += 1
                if position == len(block) and len(block) < len(raw):
                    # Every row up to ``dist`` has been yielded (blocks
                    # include their ties); sort the next block.
                    block = sorted_block(raw, dist)
                    position = 0
                if position < len(block):
                    head = int(block[position])
                    heapq.heappush(
                        heap,
                        (float(raw[head]), 1, sids[head], sids, block, raw,
                         position),
                    )
                continue
            cell = self._cells.get(entry[2])
            if cell is None:
                continue
            stats.cells_visited += 1
            if cell.segments:
                sids, array = self._cell_view(cell)
                stats.segments_checked += len(sids)
                raw = array.distances_to(q)
                # Stable sort on distance keeps ascending-sid ties
                # (sids is sorted), giving the (distance, sid) order
                # knn's candidate heap produces.
                block = sorted_block(raw)
                head = int(block[0])
                heapq.heappush(
                    heap, (float(raw[head]), 1, sids[head], sids, block, raw, 0)
                )
            for child in cell.children:
                heapq.heappush(heap, (self.min_distance(q, child), 0, child))

    def _check_cell(
        self, q: Coord, key: CellKey, candidates: KnnCandidates,
        stats: SearchStats,
    ) -> None:
        """Compute exact distances for every segment stored in ``key``.

        One vectorised pass over the cell's cached
        :class:`~repro.geo.vectorized.SegmentArray` replaces the old
        per-segment Python distance loop, for every search strategy at
        once; distances beyond θ_K are filtered on the numpy side
        before they reach the candidate heap. A distance equal to θ_K
        passes: it can still displace the worst retained candidate on
        its sid (``offer`` keeps the smallest ``(distance, sid)``
        pairs), so the filter is pure short-circuiting.
        """
        cell = self._cells.get(key)
        if cell is None:
            return
        stats.cells_visited += 1
        if not cell.segments:
            return
        sids, array = self._cell_view(cell)
        stats.segments_checked += len(sids)
        distances = array.distances_to(q)
        if candidates.full:
            positions = np.flatnonzero(distances <= candidates.threshold)
            hits = zip(
                [sids[position] for position in positions.tolist()],
                distances[positions].tolist(),
                strict=True,
            )
        else:
            hits = zip(sids, distances.tolist(), strict=True)
        for sid, dist in hits:
            candidates.offer(sid, dist)

    def _existing_children(self, key: CellKey) -> set[CellKey]:
        cell = self._cells.get(key)
        return cell.children if cell is not None else set()

    def _locate_start(self, q: Coord) -> CellKey:
        """Deepest existing cell on the ancestor path of ``q`` (Alg. 3 line 1)."""
        fx, fy = self._finest_coords(q)
        current = ROOT
        for level in range(1, self.levels):
            shift = self._finest - level
            child = (level, fx >> shift, fy >> shift)
            if child in self._cells:
                current = child
            else:
                break
        return current

    # -- strategy: top-down ---------------------------------------------------------

    def _search_top_down(
        self, q: Coord, candidates: KnnCandidates, stats: SearchStats
    ) -> None:
        heap: list[tuple[float, CellKey]] = [(0.0, ROOT)]
        while heap:
            dist, key = heapq.heappop(heap)
            if candidates.full and dist > candidates.threshold:
                break
            self._check_cell(q, key, candidates, stats)
            for child in self._existing_children(key):
                child_dist = self.min_distance(q, child)
                if not candidates.full or child_dist <= candidates.threshold:
                    heapq.heappush(heap, (child_dist, child))

    # -- strategy: bottom-up ----------------------------------------------------------

    def _search_bottom_up(
        self, q: Coord, candidates: KnnCandidates, stats: SearchStats
    ) -> None:
        """Climb from the query's finest cell, exploring exposed subtrees.

        At each level up, the newly reachable region (the parent minus
        the already-explored child) is searched best-first before
        climbing further.
        """
        visited: set[CellKey] = set()
        current: CellKey | None = self._locate_start(q)
        while current is not None:
            self._explore_subtree(q, current, candidates, visited, stats)
            current = self.parent_of(current)

    def _explore_subtree(
        self,
        q: Coord,
        root: CellKey,
        candidates: KnnCandidates,
        visited: set[CellKey],
        stats: SearchStats,
    ) -> None:
        if root in visited:
            heap: list[tuple[float, CellKey]] = [
                (self.min_distance(q, child), child)
                for child in self._existing_children(root)
                if child not in visited
            ]
            heapq.heapify(heap)
        else:
            heap = [(self.min_distance(q, root), root)]
        while heap:
            dist, key = heapq.heappop(heap)
            if key in visited:
                continue
            if candidates.full and dist > candidates.threshold:
                continue
            visited.add(key)
            self._check_cell(q, key, candidates, stats)
            for child in self._existing_children(key):
                if child not in visited:
                    child_dist = self.min_distance(q, child)
                    if not candidates.full or child_dist <= candidates.threshold:
                        heapq.heappush(heap, (child_dist, child))

    # -- strategy: bottom-up-down (Algorithm 3) -----------------------------------------

    def _search_bottom_up_down(
        self, q: Coord, candidates: KnnCandidates, stats: SearchStats
    ) -> None:
        stack: list[tuple[CellKey, float]] = []
        queue: list[tuple[float, CellKey]] = []
        visited: set[CellKey] = set()
        root_access = False

        start = self._locate_start(q)
        stack.append((start, 0.0))

        while stack or queue:
            if not root_access:
                if not stack:
                    # The bottom-up phase exhausted without an explicit
                    # root hit (start == ROOT); switch to the queue.
                    root_access = True
                    continue
                key, dist = stack.pop()
                if key in visited:
                    continue
                if candidates.full and dist > candidates.threshold:
                    continue
            else:
                if not queue:
                    break
                dist, key = heapq.heappop(queue)
                if key in visited:
                    continue
                if candidates.full and dist > candidates.threshold:
                    break  # Theorem 4: nothing closer can remain.
            visited.add(key)
            self._check_cell(q, key, candidates, stats)

            parent = self.parent_of(key)
            if not root_access and parent is not None and parent not in visited:
                if parent == ROOT:
                    root_access = True
                    heapq.heappush(queue, (0.0, parent))
                else:
                    stack.append((parent, 0.0))
            if key == ROOT:
                root_access = True

            fresh: list[tuple[CellKey, float]] = []
            for child in self._existing_children(key):
                if child in visited:
                    continue
                child_dist = self.min_distance(q, child)
                if candidates.full and child_dist > candidates.threshold:
                    continue  # safe to prune at push time (Theorem 4)
                fresh.append((child, child_dist))
            if root_access:
                for child, child_dist in fresh:
                    heapq.heappush(queue, (child_dist, child))
            else:
                # Push farthest first so the nearest child pops first,
                # checking "the more promising finer-grained grid cells
                # earlier" as the paper prescribes.
                fresh.sort(key=lambda item: item[1], reverse=True)
                stack.extend(fresh)

            if root_access and stack:
                # The parent-before-children push order should leave the
                # stack empty by the time the root is reached; transfer
                # any leftovers so no candidate subtree is dropped.
                for leftover, leftover_dist in stack:
                    heapq.heappush(queue, (leftover_dist, leftover))
                stack.clear()
