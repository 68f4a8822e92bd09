"""Search utilities shared across indexes, plus the linear-scan baseline."""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.geo.geometry import Coord
from repro.geo.vectorized import SegmentArray
from repro.index.base import IndexedSegment


class KnnCandidates:
    """A bounded max-heap of the best ``k`` (distance, sid) candidates.

    Keeps the ``k`` lexicographically smallest ``(distance, sid)``
    pairs offered, whatever the offer order: a candidate tied with the
    worst retained distance still displaces it when its sid is smaller.
    That makes every backend's ``knn`` a function of the data alone,
    not of the order its layout visits segments in.

    Maintains the running pruning threshold θ_K — the distance of the
    current K-th best candidate (``+inf`` until ``k`` candidates exist),
    exactly as Algorithm 3 uses it. A candidate *at* θ_K can still win
    on its sid, so searches prune only what lies strictly beyond it.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        # Stored as (-distance, -sid) so heap[0] is the worst retained:
        # the largest distance, and among those the largest sid.
        self._heap: list[tuple[float, int]] = []

    @property
    def threshold(self) -> float:
        """θ_K: the K-th smallest distance seen so far, or +inf."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    def offer(self, sid: int, distance: float) -> bool:
        """Consider a candidate; returns True when it was retained."""
        entry = (-distance, -sid)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def results(self) -> list[tuple[int, float]]:
        """Candidates sorted by ascending (distance, sid)."""
        return [(-sid, -d) for d, sid in sorted(self._heap, reverse=True)]

    def __len__(self) -> int:
        return len(self._heap)


def linear_knn(
    segments: Iterable[IndexedSegment], q: Coord, k: int
) -> list[tuple[int, float]]:
    """Brute-force K-nearest segment search (the paper's *Linear* baseline),
    measured by the one column kernel every index uses."""
    segments = list(segments)
    candidates = KnnCandidates(k)
    array = SegmentArray.from_pairs([(s.a, s.b) for s in segments])
    for segment, dist in zip(
        segments, array.distances_to(q).tolist(), strict=True
    ):
        candidates.offer(segment.sid, dist)
    return candidates.results()
