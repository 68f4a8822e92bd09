"""Trajectory edit operations with utility-loss accounting (Section IV-A).

:class:`EditableTrajectory` wraps a trajectory in a doubly-linked list of
points and keeps a segment index synchronised through edits, so the
modification optimisers can repeatedly run K-nearest-segment searches
against the *current* shape of the trajectory (the paper's
``ModifyAndUpdate``, Algorithm 3 line 36).

Utility losses follow Definitions 5 and 6:

* inserting ``q`` into segment ``<a, b>`` costs ``dist(q, <a, b>)``;
* deleting the middle point of ``<a, q, b>`` costs ``dist(q, <a, b>)`` —
  the distance from the removed point to the segment that replaces it.

Boundary deletions (head or tail of the trajectory) have no replacement
segment; we charge the distance to the single surviving neighbour, the
natural degenerate case of Definition 6 (the "segment" collapses to a
point).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.geo.geometry import Coord, point_distance, point_segment_distance
from repro.index.base import SegmentIndex
from repro.trajectory.model import LocationKey, Point, Trajectory


class _Node:
    """A point in the doubly-linked edit structure."""

    __slots__ = ("point", "loc", "prev", "next", "out_sid", "seq")

    def __init__(self, point: Point, seq: int) -> None:
        self.point = point
        #: ``point.loc``: every bookkeeping structure is keyed by it.
        self.loc = point.loc
        self.prev: _Node | None = None
        self.next: _Node | None = None
        #: Id of the indexed segment (self -> self.next), if any.
        self.out_sid: int | None = None
        #: Creation order within the node's trajectory, used as a
        #: deterministic tie-breaker when sorting occurrences by cost
        #: (node sets otherwise iterate in memory-address order, which
        #: varies between runs).
        self.seq = seq


@dataclass(slots=True)
class EditOutcome:
    """Result of one edit operation."""

    utility_loss: float
    #: How many points were inserted (positive) or deleted (negative).
    delta_points: int


class EditableTrajectory:
    """A trajectory under modification, with a live segment index.

    Parameters
    ----------
    trajectory:
        The source trajectory (copied; the original is not mutated).
    index:
        Any :class:`repro.index.base.SegmentIndex`. May be shared
        between several editable trajectories (the inter-trajectory
        modifier shares one dataset-wide index); segments are registered
        with ``owner=trajectory.object_id`` so searches can aggregate
        by trajectory.
    """

    def __init__(self, trajectory: Trajectory, index: SegmentIndex) -> None:
        self.object_id = trajectory.object_id
        self.index = index
        self.total_utility_loss = 0.0
        self._seq = itertools.count()
        nodes = [
            _Node(point, seq)
            for point, seq in zip(trajectory, self._seq, strict=False)
        ]
        self._size = len(nodes)
        self._head: _Node | None = nodes[0] if nodes else None
        self._tail: _Node | None = nodes[-1] if nodes else None
        self._nodes_by_loc: dict[LocationKey, set[_Node]] = {}
        for node in nodes:
            self._nodes_by_loc.setdefault(node.loc, set()).add(node)
        for before, after in zip(nodes, nodes[1:], strict=False):
            before.next = after
            after.prev = before
        # The initial segments go in as one block of index rows (one
        # vectorised placement pass on a grid), with the sids the
        # per-segment loop would assign.
        starts = nodes[:-1]
        coords = [point.coord for point in trajectory]
        sids = self.index.insert_many(
            list(zip(coords, coords[1:], strict=False)), owner=self.object_id
        )
        for node, sid in zip(starts, sids, strict=True):
            node.out_sid = sid
        self._node_by_sid: dict[int, _Node] = dict(zip(sids, starts, strict=True))

    # -- bookkeeping -----------------------------------------------------------

    def _register_node(self, node: _Node) -> None:
        self._nodes_by_loc.setdefault(node.loc, set()).add(node)
        self._size += 1

    def _unregister_node(self, node: _Node) -> None:
        bucket = self._nodes_by_loc.get(node.loc)
        if bucket is not None:
            bucket.discard(node)
            if not bucket:
                del self._nodes_by_loc[node.loc]
        self._size -= 1

    def _index_segment(self, start: _Node) -> None:
        assert start.next is not None
        sid = self.index.insert(
            start.point.coord, start.next.point.coord, owner=self.object_id
        )
        start.out_sid = sid
        self._node_by_sid[sid] = start

    def _unindex_segment(self, start: _Node) -> None:
        if start.out_sid is not None:
            self.index.remove(start.out_sid)
            del self._node_by_sid[start.out_sid]
            start.out_sid = None

    def __len__(self) -> int:
        return self._size

    def occurrence_count(self, loc: LocationKey) -> int:
        return len(self._nodes_by_loc.get(loc, ()))

    def contains(self, loc: LocationKey) -> bool:
        return loc in self._nodes_by_loc

    def locations(self):
        """The distinct locations currently on the trajectory (a live
        view; iterate before mutating)."""
        return self._nodes_by_loc.keys()

    def node_for_segment(self, sid: int) -> bool:
        return sid in self._node_by_sid

    # -- insertion (OP_i) ----------------------------------------------------------

    def insertion_cost(self, q: Coord, sid: int) -> float:
        """dist(q, segment sid) — Definition 5."""
        start = self._node_by_sid[sid]
        assert start.next is not None
        return point_segment_distance(q, start.point.coord, start.next.point.coord)

    def insert_into_segment(self, loc: LocationKey, sid: int) -> EditOutcome:
        """Insert an occurrence of ``loc`` into segment ``sid``.

        The segment is replaced in the index by the two halves created
        by the splice.
        """
        start = self._node_by_sid.get(sid)
        if start is None:
            raise KeyError(f"segment {sid} does not belong to {self.object_id}")
        after = start.next
        assert after is not None
        loss = point_segment_distance(loc, start.point.coord, after.point.coord)
        t = (start.point.t + after.point.t) / 2.0
        node = _Node(Point(loc[0], loc[1], t), next(self._seq))
        self._unindex_segment(start)
        start.next = node
        node.prev = start
        node.next = after
        after.prev = node
        self._register_node(node)
        self._index_segment(start)
        self._index_segment(node)
        self.total_utility_loss += loss
        return EditOutcome(utility_loss=loss, delta_points=1)

    def append(self, loc: LocationKey) -> EditOutcome:
        """Append an occurrence at the tail (fallback when no segment exists)."""
        t = self._tail.point.t + 1.0 if self._tail is not None else 0.0
        node = _Node(Point(loc[0], loc[1], t), next(self._seq))
        loss = 0.0
        if self._tail is None:
            self._head = self._tail = node
        else:
            loss = point_distance(self._tail.point.coord, node.point.coord)
            self._tail.next = node
            node.prev = self._tail
            self._index_segment(self._tail)
            self._tail = node
        self._register_node(node)
        self.total_utility_loss += loss
        return EditOutcome(utility_loss=loss, delta_points=1)

    # -- deletion (OP_d) -------------------------------------------------------------

    def deletion_cost(self, node: _Node) -> float:
        """Cost of removing ``node`` — Definition 6 (or its boundary case)."""
        before = node.prev
        after = node.next
        if before is not None and after is not None:
            return point_segment_distance(
                node.point.coord, before.point.coord, after.point.coord
            )
        neighbour = before or after
        if neighbour is None:
            return 0.0
        return point_distance(node.point.coord, neighbour.point.coord)

    def occurrence_costs(self, loc: LocationKey) -> list[tuple[float, _Node]]:
        """Deletion cost of each current occurrence of ``loc``, cheapest first."""
        nodes = self._nodes_by_loc.get(loc, ())
        costs = [(self.deletion_cost(node), node) for node in nodes]
        costs.sort(key=lambda item: (item[0], item[1].seq))
        return costs

    def delete_node(self, node: _Node) -> EditOutcome:
        """Remove one occurrence, reconnecting and re-indexing neighbours."""
        loss = self.deletion_cost(node)
        before = node.prev
        after = node.next
        if before is not None:
            self._unindex_segment(before)
        if after is not None:
            self._unindex_segment(node)
        if before is not None and after is not None:
            before.next = after
            after.prev = before
            self._index_segment(before)
        elif before is not None:  # deleting the tail
            before.next = None
            self._tail = before
        elif after is not None:  # deleting the head
            after.prev = None
            self._head = after
        else:  # deleting the only point
            self._head = self._tail = None
        self._unregister_node(node)
        self.total_utility_loss += loss
        return EditOutcome(utility_loss=loss, delta_points=-1)

    def delete_cheapest(self, loc: LocationKey, count: int) -> EditOutcome:
        """Delete up to ``count`` occurrences of ``loc``, cheapest first.

        Each step removes the occurrence with the smallest current
        ``(cost, seq)``. A node's cost reads only its two neighbours, so
        a deletion changes the costs of the deleted node's neighbours
        and nothing else: a heap built once is kept current by
        re-pushing just those two, and entries whose node is gone or
        whose cost has since changed are skipped when popped.
        """
        nodes = self._nodes_by_loc.get(loc, ())
        current = {node.seq: self.deletion_cost(node) for node in nodes}
        heap = [(current[node.seq], node.seq, node) for node in nodes]
        heapq.heapify(heap)
        total = 0.0
        removed = 0
        while removed < count and heap:
            cost, seq, node = heapq.heappop(heap)
            if current.get(seq) != cost:
                continue  # deleted, or re-pushed at a new cost
            del current[seq]
            before, after = node.prev, node.next
            outcome = self.delete_node(node)
            total += outcome.utility_loss
            removed += 1
            for neighbour in (before, after):
                if neighbour is not None and neighbour.seq in current:
                    cost = self.deletion_cost(neighbour)
                    current[neighbour.seq] = cost
                    heapq.heappush(heap, (cost, neighbour.seq, neighbour))
        return EditOutcome(utility_loss=total, delta_points=-removed)

    def delete_all(self, loc: LocationKey) -> EditOutcome:
        """Remove every occurrence of ``loc`` (TF-decrease semantics)."""
        return self.delete_cheapest(loc, self.occurrence_count(loc))

    def adjacent_locations(self, loc: LocationKey) -> set[LocationKey]:
        """Locations of the surviving neighbours of every ``loc`` run.

        Exactly the locations whose own deletion costs change when
        ``delete_all(loc)`` runs: a node's cost reads only its direct
        neighbours, and deleting every occurrence of ``loc`` re-links
        precisely the nodes flanking each maximal run of them. The
        wave planner uses this as decrease-conflict evidence.
        """
        adjacent: set[LocationKey] = set()
        for node in self._nodes_by_loc.get(loc, ()):
            for neighbour in (node.prev, node.next):
                if neighbour is not None and neighbour.loc != loc:
                    adjacent.add(neighbour.loc)
        return adjacent

    def complete_deletion_cost(self, loc: LocationKey) -> float:
        """L[OP_d(q, τ)]: total cost of removing every occurrence of ``loc``.

        Evaluated non-destructively on the current state (summing the
        current per-occurrence costs), which matches the paper's
        aggregate definition.
        """
        return sum(cost for cost, _ in self.occurrence_costs(loc))

    # -- export -----------------------------------------------------------------------

    def to_trajectory(self) -> Trajectory:
        points = []
        node = self._head
        while node is not None:
            points.append(node.point)
            node = node.next
        return Trajectory(self.object_id, points)

    def detach(self) -> None:
        """Remove all of this trajectory's segments from the shared index."""
        node = self._head
        while node is not None:
            self._unindex_segment(node)
            node = node.next
