"""Tests for EditableTrajectory: edit operations, costs, index sync."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.edits import EditableTrajectory
from repro.geo.geometry import BBox
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.trajectory.model import Point, Trajectory


def traj(coords, object_id="t"):
    return Trajectory(
        object_id,
        [Point(float(x), float(y), 60.0 * i) for i, (x, y) in enumerate(coords)],
    )


def editable(coords, object_id="t", index=None):
    t = traj(coords, object_id)
    return EditableTrajectory(t, index if index is not None else LinearSegmentIndex())


class TestConstruction:
    def test_registers_all_segments(self):
        e = editable([(0, 0), (10, 0), (10, 10)])
        assert len(e) == 3
        assert len(e.index) == 2

    def test_empty_trajectory(self):
        e = editable([])
        assert len(e) == 0
        assert len(e.index) == 0
        assert e.to_trajectory().points == []

    def test_single_point(self):
        e = editable([(5, 5)])
        assert len(e) == 1
        assert len(e.index) == 0

    def test_original_not_mutated(self):
        t = traj([(0, 0), (10, 0)])
        e = EditableTrajectory(t, LinearSegmentIndex())
        e.append((99.0, 99.0))
        assert len(t) == 2

    def test_contains_and_occurrence_count(self):
        e = editable([(0, 0), (5, 5), (0, 0)])
        assert e.contains((0.0, 0.0))
        assert e.occurrence_count((0.0, 0.0)) == 2
        assert not e.contains((9.0, 9.0))


class TestInsertion:
    def test_insert_into_segment_cost_is_point_segment_distance(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 3), 1)[0][0]
        outcome = e.insert_into_segment((5.0, 3.0), sid)
        assert outcome.utility_loss == pytest.approx(3.0)
        assert outcome.delta_points == 1
        assert [p.coord for p in e.to_trajectory()] == [(0, 0), (5.0, 3.0), (10, 0)]

    def test_insert_updates_index(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 3), 1)[0][0]
        e.insert_into_segment((5.0, 3.0), sid)
        assert len(e.index) == 2  # old segment replaced by two halves
        with pytest.raises(KeyError):
            e.index.segment(sid)

    def test_insert_interpolates_timestamp(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 0), 1)[0][0]
        e.insert_into_segment((5.0, 0.0), sid)
        times = [p.t for p in e.to_trajectory()]
        assert times == sorted(times)
        assert times[1] == pytest.approx(30.0)

    def test_insert_takes_the_chosen_segments_midpoint_time(self):
        """OP_i's new point sits midway in time between the endpoints
        of the segment it splits, not of the trajectory."""
        t = Trajectory(
            "t", [Point(0.0, 0.0, 0.0), Point(10.0, 0.0, 60.0), Point(10.0, 10.0, 200.0)]
        )
        e = EditableTrajectory(t, LinearSegmentIndex())
        sid = e.index.knn((12, 5), 1)[0][0]
        e.insert_into_segment((12.0, 5.0), sid)
        result = e.to_trajectory()
        assert [p.coord for p in result] == [(0, 0), (10, 0), (12.0, 5.0), (10, 10)]
        assert result[2].t == pytest.approx(130.0)
        times = [p.t for p in result]
        assert times == sorted(times)

    def test_insert_unknown_segment_raises(self):
        e = editable([(0, 0), (10, 0)])
        with pytest.raises(KeyError):
            e.insert_into_segment((5.0, 0.0), 999)

    def test_append_to_empty(self):
        e = editable([])
        outcome = e.append((3.0, 3.0))
        assert outcome.utility_loss == 0.0
        assert len(e) == 1

    def test_append_extends_and_indexes(self):
        e = editable([(0, 0)])
        outcome = e.append((3.0, 4.0))
        assert outcome.utility_loss == pytest.approx(5.0)
        assert len(e.index) == 1
        assert len(e) == 2

    def test_total_utility_loss_accumulates(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 3), 1)[0][0]
        e.insert_into_segment((5.0, 3.0), sid)
        assert e.total_utility_loss == pytest.approx(3.0)


class TestDeletion:
    def test_delete_middle_cost(self):
        # Deleting (5,3) from <(0,0),(5,3),(10,0)> costs dist to <(0,0),(10,0)> = 3.
        e = editable([(0, 0), (5, 3), (10, 0)])
        costs = e.occurrence_costs((5.0, 3.0))
        assert costs[0][0] == pytest.approx(3.0)
        outcome = e.delete_node(costs[0][1])
        assert outcome.utility_loss == pytest.approx(3.0)
        assert [p.coord for p in e.to_trajectory()] == [(0, 0), (10, 0)]
        assert len(e.index) == 1  # two segments merged into one

    def test_delete_head(self):
        e = editable([(0, 0), (3, 4), (10, 4)])
        nodes = e.occurrence_costs((0.0, 0.0))
        outcome = e.delete_node(nodes[0][1])
        assert outcome.utility_loss == pytest.approx(5.0)  # dist to neighbour
        assert [p.coord for p in e.to_trajectory()] == [(3, 4), (10, 4)]

    def test_delete_tail(self):
        e = editable([(0, 0), (3, 4)])
        nodes = e.occurrence_costs((3.0, 4.0))
        e.delete_node(nodes[0][1])
        assert [p.coord for p in e.to_trajectory()] == [(0, 0)]
        assert len(e.index) == 0

    def test_delete_only_point(self):
        e = editable([(5, 5)])
        nodes = e.occurrence_costs((5.0, 5.0))
        outcome = e.delete_node(nodes[0][1])
        assert outcome.utility_loss == 0.0
        assert len(e) == 0

    def test_delete_cheapest_picks_lowest_cost_occurrence(self):
        # (5,0) at index 1 is on the straight line (cost 0); at index 3
        # it forms a detour (cost > 0).
        e = editable([(0, 0), (5, 0), (10, 0), (5, 8), (20, 8)])
        before = e.occurrence_count((5.0, 0.0))
        outcome = e.delete_cheapest((5.0, 0.0), 1)
        assert before - e.occurrence_count((5.0, 0.0)) == 1
        assert outcome.utility_loss == pytest.approx(0.0, abs=1e-9)

    def test_delete_cheapest_stops_when_exhausted(self):
        e = editable([(0, 0), (5, 5), (0, 0)])
        outcome = e.delete_cheapest((0.0, 0.0), 10)
        assert outcome.delta_points == -2
        assert not e.contains((0.0, 0.0))

    def test_delete_all(self):
        e = editable([(0, 0), (5, 5), (0, 0), (7, 7), (0, 0)])
        e.delete_all((0.0, 0.0))
        assert [p.coord for p in e.to_trajectory()] == [(5, 5), (7, 7)]
        assert len(e.index) == 1

    def test_complete_deletion_cost_non_destructive(self):
        e = editable([(0, 0), (5, 3), (10, 0), (5, 3), (20, 0)])
        cost = e.complete_deletion_cost((5.0, 3.0))
        assert cost > 0
        assert e.occurrence_count((5.0, 3.0)) == 2  # unchanged


class TestLazyHeapDeletion:
    """``delete_cheapest`` keeps one heap and re-costs only the deleted
    node's neighbours; it must remove exactly what recomputing every
    occurrence's cost before each step would remove."""

    @staticmethod
    def positions(e):
        """Node seq -> index along the trajectory as built."""
        seqs = []
        node = e._head
        while node is not None:
            seqs.append(node.seq)
            node = node.next
        return {seq: i for i, seq in enumerate(seqs)}

    @staticmethod
    def reference(e, loc, count):
        """Recompute every occurrence's cost before each deletion."""
        removed, total = [], 0.0
        for _ in range(count):
            costs = e.occurrence_costs(loc)
            if not costs:
                break
            node = costs[0][1]
            removed.append(node.seq)
            total += e.delete_node(node).utility_loss
        return removed, total

    @settings(max_examples=80, deadline=None)
    @given(
        # Few distinct locations on a small lattice: long runs of one
        # location and many equal deletion costs.
        coords=st.lists(
            st.sampled_from([(0, 0), (10, 0), (20, 0), (10, 10), (0, 20)]),
            min_size=1,
            max_size=40,
        ),
        ops=st.lists(
            st.tuples(
                st.sampled_from([(0, 0), (10, 0), (20, 0), (10, 10), (0, 20)]),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_matches_recompute_every_step(self, coords, ops):
        lazy, ref = editable(coords), editable(coords)
        lazy_at, ref_at = self.positions(lazy), self.positions(ref)
        removed = []
        delete_node = lazy.delete_node

        def spy(node):
            removed.append(node.seq)
            return delete_node(node)

        lazy.delete_node = spy
        for (x, y), count in ops:
            loc = (float(x), float(y))
            removed.clear()
            outcome = lazy.delete_cheapest(loc, count)
            want_removed, want_total = self.reference(ref, loc, count)
            assert [lazy_at[seq] for seq in removed] == [
                ref_at[seq] for seq in want_removed
            ]
            assert outcome.utility_loss == want_total
            assert -outcome.delta_points == len(want_removed)
        assert lazy.to_trajectory().points == ref.to_trajectory().points


class TestSharedIndex:
    def test_owner_tagging(self):
        index = LinearSegmentIndex()
        editable([(0, 0), (10, 0)], object_id="a", index=index)
        editable([(100, 0), (110, 0)], object_id="b", index=index)
        assert len(index) == 2
        owners = {index.segment(sid).owner for sid, _ in index.knn((0, 0), 2)}
        assert owners == {"a", "b"}

    def test_detach_removes_only_own_segments(self):
        index = LinearSegmentIndex()
        a = editable([(0, 0), (10, 0), (20, 0)], object_id="a", index=index)
        editable([(100, 0), (110, 0)], object_id="b", index=index)
        a.detach()
        assert len(index) == 1
        assert index.knn((0, 0), 5)[0][0] is not None
        assert all(index.segment(sid).owner == "b" for sid, _ in index.knn((0, 0), 5))

    def test_works_with_hierarchical_index(self):
        index = HierarchicalGridIndex(BBox(-10, -10, 200, 200), levels=5)
        e = editable([(0, 0), (10, 0), (10, 10), (50, 50)], index=index)
        sid = index.knn((5, 2), 1, strategy="bottom_up_down")[0][0]
        e.insert_into_segment((5.0, 2.0), sid)
        e.delete_cheapest((5.0, 2.0), 1)
        result = e.to_trajectory()
        assert [p.coord for p in result] == [(0, 0), (10, 0), (10, 10), (50, 50)]
        assert len(index) == 3
