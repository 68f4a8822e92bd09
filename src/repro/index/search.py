"""Search utilities shared across indexes, plus the linear-scan baseline."""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.geo.geometry import Coord
from repro.index.base import IndexedSegment


class KnnCandidates:
    """A bounded max-heap of the best ``k`` (distance, sid) candidates.

    Maintains the running pruning threshold θ_K — the distance of the
    current K-th best candidate (``+inf`` until ``k`` candidates exist),
    exactly as Algorithm 3 uses it.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        # Stored as (-distance, sid) so heap[0] is the worst retained.
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
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, sid))
            return True
        if distance < self.threshold:
            heapq.heapreplace(self._heap, (-distance, sid))
            return True
        return False

    def results(self) -> list[tuple[int, float]]:
        """Candidates sorted by ascending distance (ties by sid)."""
        ordered = sorted(((-d, sid) for d, sid in self._heap), key=lambda x: (x[0], x[1]))
        return [(sid, dist) for dist, sid in ordered]

    def __len__(self) -> int:
        return len(self._heap)


def linear_knn(
    segments: Iterable[IndexedSegment], q: Coord, k: int
) -> list[tuple[int, float]]:
    """Brute-force K-nearest segment search (the paper's *Linear* baseline)."""
    candidates = KnnCandidates(k)
    for segment in segments:
        candidates.offer(segment.sid, segment.distance_to(q))
    return candidates.results()
