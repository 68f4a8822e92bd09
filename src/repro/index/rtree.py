"""STR-packed R-tree over trajectory segments.

Not part of the paper (which argues grids suit segment data), but the
natural alternative any systems reviewer asks about, so it ships as a
fourth backend for the efficiency ablation.

Design: a static Sort-Tile-Recursive (STR) bulk-loaded tree plus an
overflow buffer for dynamic inserts and a tombstone set for removals;
the tree is rebuilt when either side grows past a fraction of the tree
size. kNN is best-first over node MBRs with the overflow buffer
scanned linearly. A node's MBR min-distance, lowered by
:func:`~repro.index.base.kernel_slack`, lower-bounds the column
kernel's distance to every segment under it, so pruning is safe.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.geo.geometry import BBox, Coord
from repro.index.base import IndexedSegment, SegmentStore, kernel_slack
from repro.index.search import KnnCandidates


@dataclass(slots=True)
class _Node:
    """Internal or leaf node; leaves carry segment ids."""

    mbr: BBox
    children: list["_Node"] = field(default_factory=list)
    sids: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _mbr_of(boxes: list[BBox]) -> BBox:
    return BBox(
        min(b.min_x for b in boxes),
        min(b.min_y for b in boxes),
        max(b.max_x for b in boxes),
        max(b.max_y for b in boxes),
    )


class RTreeIndex:
    """Segment index backed by an STR-packed R-tree."""

    def __init__(self, leaf_capacity: int = 16, rebuild_fraction: float = 0.25) -> None:
        if leaf_capacity < 2:
            raise ValueError("leaf capacity must be at least 2")
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError("rebuild fraction must be in (0, 1]")
        self.leaf_capacity = leaf_capacity
        self.rebuild_fraction = rebuild_fraction
        #: Every segment's geometry and owner; the sid is the row.
        self.store = SegmentStore()
        self._root: _Node | None = None
        self._tree_sids: set[int] = set()
        self._buffer: set[int] = set()
        self._tombstones: set[int] = set()

    # -- maintenance -----------------------------------------------------------

    def _needs_rebuild(self) -> bool:
        tree_size = len(self._tree_sids)
        threshold = max(64, int(tree_size * self.rebuild_fraction))
        return len(self._buffer) > threshold or len(self._tombstones) > threshold

    def _rebuild(self) -> None:
        live = (self._tree_sids | self._buffer) - self._tombstones
        self._buffer.clear()
        self._tombstones.clear()
        self._tree_sids = set(live)
        if not live:
            self._root = None
            return
        sids = sorted(live)
        entries = [
            (sid, BBox(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)))
            for sid, ax, ay, bx, by in zip(
                sids, *self.store.endpoints(sids), strict=True
            )
        ]
        self._root = self._str_pack(entries)

    def _str_pack(self, entries: list[tuple[int, BBox]]) -> _Node:
        """Sort-Tile-Recursive leaf packing, then bottom-up node packing."""
        capacity = self.leaf_capacity
        n = len(entries)
        entries = sorted(entries, key=lambda e: e[1].center[0])
        n_leaves = math.ceil(n / capacity)
        n_slices = max(1, math.ceil(math.sqrt(n_leaves)))
        per_slice = math.ceil(n / n_slices)
        leaves: list[_Node] = []
        for s in range(0, n, per_slice):
            vertical = sorted(
                entries[s : s + per_slice], key=lambda e: e[1].center[1]
            )
            for i in range(0, len(vertical), capacity):
                chunk = vertical[i : i + capacity]
                leaves.append(
                    _Node(
                        mbr=_mbr_of([box for _, box in chunk]),
                        sids=[sid for sid, _ in chunk],
                    )
                )
        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            for i in range(0, len(level), capacity):
                chunk = level[i : i + capacity]
                parents.append(
                    _Node(mbr=_mbr_of([c.mbr for c in chunk]), children=chunk)
                )
            level = parents
        return level[0]

    # -- index protocol -------------------------------------------------------------

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        sid = self.store.allocate(a, b, owner)
        self._buffer.add(sid)
        if self._needs_rebuild():
            self._rebuild()
        return sid

    def remove(self, sid: int) -> None:
        self.store.release(sid)
        if sid in self._buffer:
            self._buffer.discard(sid)
            return
        if sid not in self._tree_sids:
            raise KeyError(f"segment {sid} is not in the index")
        self._tombstones.add(sid)
        if self._needs_rebuild():
            self._rebuild()

    def segment(self, sid: int) -> IndexedSegment:
        return self.store.segment(sid)

    def owner_of(self, sid: int) -> str | None:
        return self.store.owner_of(sid)

    def __len__(self) -> int:
        return len(self.store)

    def _exact(self, sids: list[int], q: Coord):
        """``(sid, distance)`` for ``sids`` in order, by the column kernel."""
        return zip(
            sids, self.store.gather(sids).distances_to(q).tolist(), strict=True
        )

    @property
    def tree_height(self) -> int:
        """Height of the packed tree (diagnostic)."""
        height = 0
        node = self._root
        while node is not None:
            height += 1
            node = node.children[0] if node.children else None
        return height

    # -- search ------------------------------------------------------------------------

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        if len(self.store) == 0:
            return []
        candidates = KnnCandidates(k)
        # Overflow buffer: exact scan (small by construction).
        for sid, dist in self._exact(list(self._buffer), q):
            candidates.offer(sid, dist)
        if self._root is not None:
            slack = kernel_slack(q, self._root.mbr)
            counter = 0  # heap tie-breaker (BBox is not orderable)
            heap: list[tuple[float, int, _Node]] = [
                (self._root.mbr.min_distance(q) - slack, counter, self._root)
            ]
            while heap:
                dist, _, node = heapq.heappop(heap)
                if candidates.full and dist > candidates.threshold:
                    break
                if node.is_leaf:
                    live = [s for s in node.sids if s not in self._tombstones]
                    for sid, dist in self._exact(live, q):
                        candidates.offer(sid, dist)
                else:
                    for child in node.children:
                        child_dist = child.mbr.min_distance(q) - slack
                        if not candidates.full or child_dist <= candidates.threshold:
                            counter += 1
                            heapq.heappush(heap, (child_dist, counter, child))
        return candidates.results()

    def iter_nearest(self, q: Coord):
        """Best-first incremental traversal over node MBRs.

        Nodes enter the frontier keyed by MBR min-distance less the
        kernel slack (a lower bound on their contents' kernel
        distances), live segments by their kernel distance, so
        pop order yields segments in nondecreasing distance. Nodes sort
        ahead of equidistant segments; segment ties resolve by
        ascending sid. The overflow buffer is measured up front (it is
        small by construction).
        """
        if len(self.store) == 0:
            return
        # Entries: (distance, kind, tie, node-or-None); kind 0 = node
        # keyed by an insertion counter, kind 1 = segment keyed by sid.
        heap: list[tuple[float, int, int, _Node | None]] = [
            (dist, 1, sid, None) for sid, dist in self._exact(list(self._buffer), q)
        ]
        heapq.heapify(heap)
        counter = 0
        if self._root is not None:
            slack = kernel_slack(q, self._root.mbr)
            heapq.heappush(
                heap,
                (self._root.mbr.min_distance(q) - slack, 0, counter, self._root),
            )
        while heap:
            dist, kind, tie, node = heapq.heappop(heap)
            if kind:
                yield tie, dist
                continue
            assert node is not None
            if node.is_leaf:
                live = [s for s in node.sids if s not in self._tombstones]
                for sid, dist in self._exact(live, q):
                    heapq.heappush(heap, (dist, 1, sid, None))
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (child.mbr.min_distance(q) - slack, 0, counter, child),
                    )

    def knn_batch(self, qs, k: int) -> list[list[tuple[int, float]]]:
        """Per-query best-first traversals."""
        return [self.knn(q, k) for q in qs]
