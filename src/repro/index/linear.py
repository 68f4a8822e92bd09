"""Trivial no-structure index: the paper's *Linear* baseline.

Implements the same protocol as the grid indexes but answers kNN by a
full scan, so the modification machinery can run against it unchanged
for the efficiency comparison (Figure 5). Incremental iteration uses
one vectorised distance pass over a gather of every live segment
instead of a Python-level scan.
"""

from __future__ import annotations

from typing import Iterator

from repro.geo.geometry import Coord
from repro.index.base import IndexedSegment, SegmentStore
from repro.index.search import KnnCandidates


class LinearSegmentIndex:
    """Stores segments in a store; every query scans all of them."""

    def __init__(self) -> None:
        #: Every segment's geometry and owner; the sid is the row.
        self.store = SegmentStore()

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        return self.store.allocate(a, b, owner)

    def remove(self, sid: int) -> None:
        self.store.release(sid)

    def segment(self, sid: int) -> IndexedSegment:
        return self.store.segment(sid)

    def owner_of(self, sid: int) -> str | None:
        return self.store.owner_of(sid)

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        """Brute-force scan with the scalar kernel, offering in
        ascending sid order exactly like
        :func:`~repro.index.search.linear_knn`."""
        candidates = KnnCandidates(k)
        sids = self.store.live_sids().tolist()
        for sid, dist in zip(
            sids, self.store.scalar_distances(sids, q), strict=True
        ):
            candidates.offer(sid, dist)
        return candidates.results()

    def iter_nearest(self, q: Coord) -> Iterator[tuple[int, float]]:
        """All segments in ascending distance order, lazily.

        Snapshots the live sids on first pull, gathers their columns,
        and runs one vectorised distance pass over the whole batch — a
        single numpy pass beats repeated Python-level partial scans as
        soon as the index holds more than a handful of segments.
        """
        sids = self.store.live_sids()
        if len(sids) == 0:
            return
        order = self.store.gather(sids).nearest_order(q)
        sids = sids.tolist()
        for row, dist in order:
            yield sids[row], dist

    def knn_batch(self, qs, k: int) -> list[list[tuple[int, float]]]:
        """Per-query full scans (the honest linear-baseline batch)."""
        return [self.knn(q, k) for q in qs]

    def __len__(self) -> int:
        return len(self.store)
