"""Trivial no-structure index: the paper's *Linear* baseline.

Implements the same protocol as the grid indexes but answers kNN by a
full scan, so the modification machinery can run against it unchanged
for the efficiency comparison (Figure 5). Incremental iteration runs
one vectorised distance pass over every store row in place, with no
gather, and sorts it a block at a time, so a consumer that stops after
a few hits never sorts the rest. That makes it the cheapest structure
for small segment sets: the local stage gives every trajectory one,
and the global stage shares one below
:data:`~repro.core.modification.MIN_SEGMENTS_FOR_GRID` segments.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.geo.geometry import Coord
from repro.geo.vectorized import sorted_block
from repro.index.base import IndexedSegment, SegmentStore
from repro.index.search import KnnCandidates


class LinearSegmentIndex:
    """Stores segments in a store; every query scans all of them."""

    def __init__(self) -> None:
        #: Every segment's geometry and owner; the sid is the row.
        self.store = SegmentStore()

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        return self.store.allocate(a, b, owner)

    def insert_many(self, pairs, owner: str | None = None) -> list[int]:
        """Bulk :meth:`insert`: the whole batch as one block of store
        rows, with the sids the equivalent ``insert`` loop assigns."""
        if not pairs:
            return []
        starts = np.asarray([a for a, _ in pairs], dtype=np.float64)
        ends = np.asarray([b for _, b in pairs], dtype=np.float64)
        return list(self.store.allocate_many(starts, ends, owner))

    def remove(self, sid: int) -> None:
        self.store.release(sid)

    def segment(self, sid: int) -> IndexedSegment:
        return self.store.segment(sid)

    def owner_of(self, sid: int) -> str | None:
        return self.store.owner_of(sid)

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        """Brute-force scan: one column-kernel pass over every live
        segment, then each one offered to the candidate heap in
        ascending sid order exactly like
        :func:`~repro.index.search.linear_knn`."""
        candidates = KnnCandidates(k)
        sids = self.store.live_sids()
        distances = self.store.gather(sids).distances_to(q)
        for sid, dist in zip(sids.tolist(), distances.tolist(), strict=True):
            candidates.offer(sid, dist)
        return candidates.results()

    def iter_nearest(self, q: Coord) -> Iterator[tuple[int, float]]:
        """All segments in ascending (distance, sid) order, lazily.

        On first pull, measures every store row in one kernel pass over
        the block in place (:meth:`SegmentStore.distances_to`, released
        rows at +inf), then sorts the distances one block at a time
        (:func:`~repro.geo.vectorized.sorted_block`): pulling the first
        few hits costs one partition, not a full sort. Rows are sids,
        so the stable sort is already in (distance, sid) order; the
        released rows sort last and are never reached, because the
        cursor stops after the live count taken on first pull.
        """
        live = len(self.store)
        if live == 0:
            return
        raw = self.store.distances_to(q)
        yielded = 0
        block = sorted_block(raw)
        while True:
            block = block[: live - yielded]
            distances = raw[block].tolist()
            yield from zip(block.tolist(), distances, strict=True)
            yielded += len(block)
            if yielded == live:
                return
            # Blocks include their ties, so the rest is everything
            # strictly beyond the last distance yielded.
            block = sorted_block(raw, distances[-1])

    def knn_batch(self, qs, k: int) -> list[list[tuple[int, float]]]:
        """Per-query full scans (the honest linear-baseline batch)."""
        return [self.knn(q, k) for q in qs]

    def __len__(self) -> int:
        return len(self.store)
