"""Unit + property tests for the trajectory data model."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.edits import EditableTrajectory
from repro.engine.spill import decode_chunk, encode_chunk
from repro.index.linear import LinearSegmentIndex
from repro.trajectory.io import read_csv, write_csv
from repro.trajectory.model import (
    LOCATION_RESOLUTION,
    Point,
    Trajectory,
    TrajectoryDataset,
    location_key,
)


def make_trajectory(object_id="obj", coords=((0, 0), (10, 0), (10, 10)), t0=0.0):
    points = [Point(float(x), float(y), t0 + 60.0 * i) for i, (x, y) in enumerate(coords)]
    return Trajectory(object_id, points)


class TestLocationKey:
    def test_rounds_to_resolution(self):
        assert location_key(10.4, 20.6) == (10.0, 21.0)

    def test_identity_for_exact_coordinates(self):
        assert location_key(100.0, 200.0) == (100.0, 200.0)

    def test_custom_resolution(self):
        assert location_key(103.0, 207.0, resolution=50.0) == (100.0, 200.0)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_key_within_half_resolution(self, x, y):
        kx, ky = location_key(x, y)
        assert abs(kx - x) <= LOCATION_RESOLUTION / 2 + 1e-9
        assert abs(ky - y) <= LOCATION_RESOLUTION / 2 + 1e-9


class TestPoint:
    def test_coord_and_loc(self):
        p = Point(1.2, 3.4, 10.0)
        assert p.coord == (1.2, 3.4)
        assert p.loc == (1.0, 3.0)

    def test_distance_to(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_points_are_immutable(self):
        with pytest.raises(AttributeError):
            Point(0, 0).x = 1.0


def _assert_keyed(points):
    points = list(points)
    assert points
    for p in points:
        assert p.loc == location_key(p.x, p.y)


class TestStoredLocation:
    """``Point.loc`` is a field set once at construction; every way a
    point is made must leave it equal to ``location_key(x, y)``."""

    COORDS = ((0.4, 0.6), (10.5, -3.5), (1e6 + 0.49, 2.51))

    def dataset(self):
        return TrajectoryDataset(
            [make_trajectory("a", self.COORDS), make_trajectory("b", self.COORDS[::-1])]
        )

    def test_read_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(self.dataset(), path)
        _assert_keyed(p for t in read_csv(path) for p in t)

    def test_decode_chunk(self):
        decoded = decode_chunk(encode_chunk(self.dataset()))
        _assert_keyed(p for t in decoded for p in t)

    def test_replace(self):
        p = Point(0.4, 0.4, 5.0)
        _assert_keyed([dataclasses.replace(p, x=3.7)])
        assert dataclasses.replace(p, y=9.9).loc == (0.0, 10.0)

    def test_inserted_point(self):
        editable = EditableTrajectory(make_trajectory(), LinearSegmentIndex())
        editable.insert_into_segment((4.6, 0.2), 0)
        points = editable.to_trajectory().points
        assert points[1].coord == (4.6, 0.2)
        _assert_keyed(points)

    def test_pickle_round_trip(self):
        p = pickle.loads(pickle.dumps(Point(2.6, 3.4, 1.0)))
        assert (p, p.loc) == (Point(2.6, 3.4, 1.0), (3.0, 3.0))

    def test_not_an_argument_nor_part_of_identity(self):
        p = Point(1.2, 3.4, 10.0)
        assert repr(p) == "Point(x=1.2, y=3.4, t=10.0)"
        assert Point.__match_args__ == ("x", "y", "t")
        with pytest.raises(TypeError):
            Point(1.2, 3.4, 10.0, (1.0, 3.0))
        # A stale key (forced past the frozen guard) changes neither
        # equality nor the hash: both read only x, y and t.
        stale = Point(1.2, 3.4, 10.0)
        object.__setattr__(stale, "loc", (99.0, 99.0))
        assert stale == p
        assert hash(stale) == hash(p)

    def test_assigning_raises(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Point(0.0, 0.0).loc = (1.0, 1.0)


class TestTrajectory:
    def test_len_iter_getitem(self):
        traj = make_trajectory()
        assert len(traj) == 3
        assert [p.coord for p in traj] == [(0, 0), (10, 0), (10, 10)]
        assert traj[1].coord == (10, 0)

    def test_point_frequencies_counts_repeats(self):
        traj = make_trajectory(coords=((0, 0), (5, 5), (0, 0), (0, 0)))
        assert traj.point_frequencies()[(0.0, 0.0)] == 3
        assert traj.point_frequencies()[(5.0, 5.0)] == 1

    def test_distinct_locations(self):
        traj = make_trajectory(coords=((0, 0), (5, 5), (0, 0)))
        assert traj.distinct_locations() == {(0.0, 0.0), (5.0, 5.0)}

    def test_segments(self):
        segs = list(make_trajectory().segments())
        assert len(segs) == 2
        index, start, end = segs[0]
        assert index == 0
        assert start.coord == (0, 0)
        assert end.coord == (10, 0)

    def test_occurrences(self):
        traj = make_trajectory(coords=((0, 0), (5, 5), (0, 0)))
        assert traj.occurrences((0.0, 0.0)) == [0, 2]
        assert traj.occurrences((9.0, 9.0)) == []

    def test_length_and_diameter(self):
        traj = make_trajectory()
        assert traj.length() == pytest.approx(20.0)
        assert traj.diameter() == pytest.approx((10**2 + 10**2) ** 0.5)

    def test_duration(self):
        traj = make_trajectory()
        assert traj.duration() == pytest.approx(120.0)
        assert Trajectory("x", [Point(0, 0, 5.0)]).duration() == 0.0

    def test_copy_is_independent(self):
        traj = make_trajectory()
        clone = traj.copy()
        clone.points.pop(0)
        assert len(traj) == 3
        assert len(clone) == 2


class TestTrajectoryDataset:
    def make_dataset(self):
        return TrajectoryDataset(
            [
                make_trajectory("a", ((0, 0), (10, 0), (0, 0))),
                make_trajectory("b", ((10, 0), (20, 20))),
            ]
        )

    def test_len_and_indexing(self):
        ds = self.make_dataset()
        assert len(ds) == 2
        assert ds[0].object_id == "a"
        assert ds.by_id("b").object_id == "b"

    def test_by_id_missing(self):
        with pytest.raises(KeyError):
            self.make_dataset().by_id("zzz")

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            TrajectoryDataset([make_trajectory("a"), make_trajectory("a")])

    def test_trajectory_frequencies_distinct_per_trajectory(self):
        tf = self.make_dataset().trajectory_frequencies()
        # (0,0) appears twice in trajectory a but counts once.
        assert tf[(0.0, 0.0)] == 1
        # (10,0) appears in both trajectories.
        assert tf[(10.0, 0.0)] == 2

    def test_total_points(self):
        assert self.make_dataset().total_points() == 5

    def test_bbox(self):
        box = self.make_dataset().bbox()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0.0, 0.0, 20.0, 20.0)

    def test_bbox_empty_raises(self):
        with pytest.raises(ValueError):
            TrajectoryDataset().bbox()

    def test_copy_is_deep_for_point_lists(self):
        ds = self.make_dataset()
        clone = ds.copy()
        clone[0].points.pop(0)
        assert len(ds[0]) == 3

    def test_subset(self):
        assert len(self.make_dataset().subset(1)) == 1

    def test_quantized_collapses_nearby_points(self):
        ds = TrajectoryDataset(
            [Trajectory("a", [Point(101.0, 99.0), Point(99.0, 101.0)])]
        )
        snapped = ds.quantized(100.0)
        locs = snapped[0].locations()
        assert locs[0] == locs[1] == (100.0, 100.0)

    def test_map_trajectories(self):
        ds = self.make_dataset()
        reversed_ds = ds.map_trajectories(
            lambda t: Trajectory(t.object_id, list(reversed(t.points)))
        )
        assert reversed_ds[0][0].coord == (0, 0)
        assert reversed_ds[0][0].t == 120.0

    def test_stats(self):
        stats = self.make_dataset().stats()
        assert stats["trajectories"] == 2.0
        assert stats["total_points"] == 5.0
        assert stats["avg_points_per_trajectory"] == pytest.approx(2.5)
        assert stats["avg_point_spacing_m"] > 0

    def test_merge(self):
        ds = self.make_dataset()
        other = TrajectoryDataset([make_trajectory("c", ((1, 1),))])
        merged = ds.merge(other)
        assert len(merged) == 3
        # Deep copy: mutating merged leaves the sources intact.
        merged.by_id("a").points.pop(0)
        assert len(ds.by_id("a")) == 3

    def test_merge_rejects_id_collisions(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError):
            ds.merge(ds)

    @given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)), min_size=1, max_size=40))
    def test_tf_never_exceeds_dataset_size(self, coords):
        ds = TrajectoryDataset(
            [
                make_trajectory("a", coords),
                make_trajectory("b", coords[: max(1, len(coords) // 2)]),
            ]
        )
        for count in ds.trajectory_frequencies().values():
            assert 1 <= count <= len(ds)
