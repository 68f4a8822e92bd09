"""Shared segment-index protocol and bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.geo.geometry import Coord
from repro.geo.vectorized import (
    SegmentArray,
    segment_columns,
    segment_distances,
)


@dataclass(frozen=True, slots=True)
class IndexedSegment:
    """A segment registered in an index.

    ``owner`` carries the id of the trajectory the segment belongs to,
    which the inter-trajectory modifier uses to aggregate segment-level
    results to trajectory-level candidates.
    """

    sid: int
    a: Coord
    b: Coord
    owner: str | None = None


@runtime_checkable
class SegmentIndex(Protocol):
    """The interface every spatial index in this package implements."""

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        """Register a segment; returns its id."""
        ...

    def remove(self, sid: int) -> None:
        """Unregister a segment by id."""
        ...

    def segment(self, sid: int) -> IndexedSegment:
        """Look up a registered segment."""
        ...

    def insert_many(
        self, pairs: Sequence[tuple[Coord, Coord]], owner: str | None = None
    ) -> list[int]:
        """Register a batch of segments in one block; returns their sids
        in input order, exactly the sids the equivalent :meth:`insert`
        loop assigns."""
        ...

    def owner_of(self, sid: int) -> str | None:
        """The owner of a registered segment: ``segment(sid).owner``
        without building the segment (the candidate-selection loops
        read nothing else per hit)."""
        ...

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest segments to ``q`` as (sid, distance) pairs."""
        ...

    def iter_nearest(self, q: Coord) -> Iterator[tuple[int, float]]:
        """Lazily yield every segment in ascending distance from ``q``.

        The incremental counterpart of :meth:`knn`: consumers that do
        not know ``k`` up front (e.g. "first Δl distinct eligible
        owners") pull candidates one at a time instead of restarting
        the search with a growing ``k``. Ties are yielded in ascending
        sid order, matching :meth:`knn` output. The iterator snapshots
        or walks live structures — mutating the index invalidates it.
        """
        ...

    def knn_batch(self, qs: Sequence[Coord], k: int) -> list[list[tuple[int, float]]]:
        """:meth:`knn` for a batch of queries, one result list per query.

        Answers every query against the *same* index snapshot, which
        lets grid backends share per-cell vectorised segment batches
        across the whole query set instead of rebuilding them per call.
        Each per-query result is exactly what :meth:`knn` returns.
        Backends without shared per-query structure answer
        ``[self.knn(q, k) for q in qs]``.
        """
        ...

    def __len__(self) -> int:
        ...


#: Rows a fresh :class:`SegmentStore` holds before its first doubling.
_INITIAL_CAPACITY = 64


class SegmentStore:
    """Struct-of-arrays storage of every segment one index holds.

    The sid is the row number; rows are allocated in order and never
    reused. The float64 columns are the endpoints ``ax, ay, bx, by``
    exactly as given, plus the column kernel's derived ``dx, dy,
    safe_norm_sq`` (:func:`repro.geo.vectorized.segment_columns`),
    computed once when the row is allocated. They are the rows of one
    2-D block, so :meth:`gather` — an index's cell view — is a single
    fancy-index op. An owner list and a live mask complete the store;
    removing a segment clears its live flag. Capacity doubles as rows
    are allocated.
    """

    #: Block rows. The kernel columns come first so a gather takes one
    #: contiguous slice of the block.
    _AX, _AY, _DX, _DY, _SAFE, _BX, _BY = range(7)

    def __init__(self) -> None:
        self._block = np.empty((7, _INITIAL_CAPACITY))
        self._alive = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._owners: list[str | None] = []
        self._live = 0

    def _reserve(self, rows: int) -> None:
        capacity = self._alive.shape[0]
        if rows <= capacity:
            return
        capacity = max(rows, 2 * capacity)
        used = len(self._owners)
        block = np.empty((7, capacity))
        block[:, :used] = self._block[:, :used]
        alive = np.zeros(capacity, dtype=bool)
        alive[:used] = self._alive[:used]
        self._block = block
        self._alive = alive

    def allocate(self, a: Coord, b: Coord, owner: str | None) -> int:
        """Store one segment; returns its sid."""
        sid = len(self._owners)
        self._reserve(sid + 1)
        ax, ay = float(a[0]), float(a[1])
        bx, by = float(b[0]), float(b[1])
        # The scalar twin of segment_columns: same IEEE operations.
        dx = bx - ax
        dy = by - ay
        norm_sq = dx * dx + dy * dy
        self._block[:, sid] = (
            ax, ay, dx, dy, 1.0 if norm_sq == 0.0 else norm_sq, bx, by
        )
        self._alive[sid] = True
        self._owners.append(owner)
        self._live += 1
        return sid

    def allocate_many(
        self, starts: np.ndarray, ends: np.ndarray, owner: str | None
    ) -> range:
        """Store a block of segments at once; returns their sids.

        ``starts``/``ends`` are float64 ``(n, 2)`` arrays. Same rows
        and sids as ``n`` :meth:`allocate` calls.
        """
        first = len(self._owners)
        count = len(starts)
        stop = first + count
        self._reserve(stop)
        block = self._block[:, first:stop]
        block[self._AX] = starts[:, 0]
        block[self._AY] = starts[:, 1]
        block[self._BX] = ends[:, 0]
        block[self._BY] = ends[:, 1]
        block[self._DX], block[self._DY], block[self._SAFE] = segment_columns(
            starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1]
        )
        self._alive[first:stop] = True
        self._owners.extend([owner] * count)
        self._live += count
        return range(first, stop)

    def _check(self, sid: int) -> None:
        if not (0 <= sid < len(self._owners) and self._alive[sid]):
            raise KeyError(f"segment {sid} is not in the index")

    def release(self, sid: int) -> None:
        self._check(sid)
        self._alive[sid] = False
        self._live -= 1

    def segment(self, sid: int) -> IndexedSegment:
        """The live segment ``sid``, built on demand from its row."""
        self._check(sid)
        ax, ay, _, _, _, bx, by = self._block[:, sid].tolist()
        return IndexedSegment(sid, (ax, ay), (bx, by), self._owners[sid])

    def owner_of(self, sid: int) -> str | None:
        """The owner of the live segment ``sid`` (no row is built)."""
        self._check(sid)
        return self._owners[sid]

    def live_sids(self) -> np.ndarray:
        """Every live sid, ascending."""
        return np.flatnonzero(self._alive[: len(self._owners)])

    def distances_to(self, q: Coord) -> np.ndarray:
        """The kernel distance from ``q`` to every allocated row,
        indexed by sid, with released rows at +inf: one kernel pass
        over the block in place, no gather."""
        used = len(self._owners)
        raw = segment_distances(
            float(q[0]), float(q[1]), *self._block[: self._SAFE + 1, :used]
        )
        raw[~self._alive[:used]] = np.inf
        return raw

    def gather(self, sids) -> SegmentArray:
        """The kernel columns of ``sids`` (live, in the given order) as
        one :class:`~repro.geo.vectorized.SegmentArray`: one gather."""
        rows = np.take(
            self._block[: self._SAFE + 1],
            np.asarray(sids, dtype=np.intp),
            axis=1,
        )
        return SegmentArray.from_columns(*rows)

    def endpoints(
        self, sids
    ) -> tuple[list[float], list[float], list[float], list[float]]:
        """The stored ``ax, ay, bx, by`` of ``sids``, in order, as
        Python floats: one gather."""
        rows = np.take(self._block, np.asarray(sids, dtype=np.intp), axis=1)
        return (
            rows[self._AX].tolist(),
            rows[self._AY].tolist(),
            rows[self._BX].tolist(),
            rows[self._BY].tolist(),
        )

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[IndexedSegment]:
        """Every live segment, ascending by sid."""
        for sid in self.live_sids().tolist():
            yield self.segment(sid)
