"""Tests for trajectory processing utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.trajectory.model import Point, Trajectory
from repro.trajectory.ops import (
    detect_dwells,
    resample,
    simplify,
    sliding_windows,
    split_trips,
)


def traj(coords, dt=60.0, object_id="t"):
    return Trajectory(
        object_id,
        [Point(float(x), float(y), dt * i) for i, (x, y) in enumerate(coords)],
    )


class TestSimplify:
    def test_collinear_points_removed(self):
        t = traj([(0, 0), (50, 0), (100, 0), (150, 0), (200, 0)])
        result = simplify(t, tolerance=1.0)
        assert [p.coord for p in result] == [(0, 0), (200, 0)]

    def test_corner_preserved(self):
        t = traj([(0, 0), (100, 0), (100, 100)])
        result = simplify(t, tolerance=5.0)
        assert (100.0, 0.0) in [p.coord for p in result]

    def test_small_deviation_dropped_large_kept(self):
        t = traj([(0, 0), (100, 3), (200, 0)])
        assert len(simplify(t, tolerance=5.0)) == 2
        assert len(simplify(t, tolerance=1.0)) == 3

    def test_short_trajectories_unchanged(self):
        assert len(simplify(traj([(0, 0)]), 10.0)) == 1
        assert len(simplify(traj([(0, 0), (5, 5)]), 10.0)) == 2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            simplify(traj([(0, 0)]), -1.0)

    def test_endpoints_always_kept(self):
        t = traj([(0, 0), (10, 50), (20, -50), (30, 0)])
        result = simplify(t, tolerance=1000.0)
        assert result[0].coord == (0, 0)
        assert result[len(result) - 1].coord == (30, 0)

    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
            min_size=3,
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=500.0),
    )
    def test_output_is_subsequence(self, coords, tolerance):
        t = traj(coords)
        result = simplify(t, tolerance)
        original = [p.coord for p in t]
        simplified = [p.coord for p in result]
        it = iter(original)
        assert all(c in it for c in simplified)  # subsequence check


class TestResample:
    def test_fixed_interval(self):
        t = traj([(0, 0), (60, 0), (120, 0)], dt=60.0)
        result = resample(t, interval=30.0)
        times = [p.t for p in result]
        assert times == [0.0, 30.0, 60.0, 90.0, 120.0]

    def test_interpolates_positions(self):
        t = traj([(0, 0), (60, 0)], dt=60.0)
        result = resample(t, interval=30.0)
        assert result[1].coord == pytest.approx((30.0, 0.0))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            resample(traj([(0, 0)]), 0.0)

    def test_short_input_copied(self):
        t = traj([(5, 5)])
        result = resample(t, 10.0)
        assert [p.coord for p in result] == [(5, 5)]

    def test_irregular_input_times(self):
        points = [Point(0, 0, 0.0), Point(100, 0, 10.0), Point(200, 0, 100.0)]
        t = Trajectory("x", points)
        result = resample(t, interval=45.0)
        assert [p.t for p in result] == [0.0, 45.0, 90.0]
        # 45s is between t=10 and t=100: x between 100 and 200.
        assert 100.0 < result[1].x < 200.0


class TestDetectDwells:
    def test_detects_stop(self):
        coords = [(0, 0), (600, 0), (610, 5), (605, -5), (615, 0), (1200, 0)]
        t = traj(coords, dt=120.0)
        dwells = detect_dwells(t, radius=50.0, min_duration=300.0)
        assert len(dwells) == 1
        dwell = dwells[0]
        assert dwell.start == 1
        assert dwell.end == 4
        assert dwell.duration == pytest.approx(360.0)
        assert dwell.centre[0] == pytest.approx(607.5)

    def test_no_dwell_when_moving(self):
        t = traj([(i * 500, 0) for i in range(10)], dt=60.0)
        assert detect_dwells(t, radius=50.0, min_duration=60.0) == []

    def test_short_stop_ignored(self):
        coords = [(0, 0), (600, 0), (605, 0), (1200, 0)]
        t = traj(coords, dt=60.0)
        assert detect_dwells(t, radius=50.0, min_duration=300.0) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            detect_dwells(traj([(0, 0)]), radius=0.0)
        with pytest.raises(ValueError):
            detect_dwells(traj([(0, 0)]), min_duration=-1.0)

    def test_empty_trajectory(self):
        assert detect_dwells(Trajectory("x")) == []


class TestSplitTrips:
    def test_splits_at_dwell(self):
        coords = (
            [(i * 500, 0) for i in range(5)]
            + [(2500, 0)] * 5  # dwell
            + [(2500, i * 500) for i in range(1, 6)]
        )
        t = traj(coords, dt=120.0)
        trips = split_trips(t, radius=50.0, min_duration=300.0)
        assert len(trips) == 2
        assert trips[0].object_id == "t#0"
        assert trips[1].object_id == "t#1"

    def test_no_dwell_single_trip(self):
        t = traj([(i * 500, 0) for i in range(6)], dt=60.0)
        trips = split_trips(t, radius=50.0, min_duration=300.0)
        assert len(trips) == 1
        assert len(trips[0]) == 6

    def test_tiny_trips_discarded(self):
        t = traj([(0, 0)])
        assert split_trips(t) == []


class TestSlidingWindows:
    def test_non_overlapping(self):
        t = traj([(i, 0) for i in range(10)])
        windows = sliding_windows(t, size=4)
        assert [len(w) for w in windows] == [4, 4]
        assert windows[0].object_id == "t@0"
        assert windows[1].object_id == "t@4"

    def test_overlapping(self):
        t = traj([(i, 0) for i in range(6)])
        windows = sliding_windows(t, size=4, stride=2)
        assert len(windows) == 2
        assert windows[1][0].coord == (2.0, 0.0)

    def test_window_larger_than_trajectory(self):
        t = traj([(0, 0), (1, 1)])
        windows = sliding_windows(t, size=10)
        assert len(windows) == 1
        assert len(windows[0]) == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            sliding_windows(traj([(0, 0)]), size=0)
        with pytest.raises(ValueError):
            sliding_windows(traj([(0, 0)]), size=2, stride=0)
