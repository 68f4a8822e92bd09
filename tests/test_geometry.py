"""Unit + property tests for repro.geo.geometry."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geo.geometry import (
    BBox,
    diameter,
    path_length,
    point_distance,
    point_segment_distance,
    project_onto_segment,
    segment_length,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
coords = st.tuples(finite, finite)


class TestPointDistance:
    def test_zero_for_identical_points(self):
        assert point_distance((3.0, 4.0), (3.0, 4.0)) == 0.0

    def test_pythagorean_triple(self):
        assert point_distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    @given(coords, coords)
    def test_symmetry(self, p, q):
        assert point_distance(p, q) == pytest.approx(point_distance(q, p))

    @given(coords, coords, coords)
    def test_triangle_inequality(self, p, q, r):
        assert point_distance(p, r) <= (
            point_distance(p, q) + point_distance(q, r) + 1e-6
        )


class TestProjectOntoSegment:
    def test_projects_interior(self):
        closest, t = project_onto_segment((5.0, 5.0), (0.0, 0.0), (10.0, 0.0))
        assert closest == pytest.approx((5.0, 0.0))
        assert t == pytest.approx(0.5)

    def test_clamps_before_start(self):
        closest, t = project_onto_segment((-5.0, 3.0), (0.0, 0.0), (10.0, 0.0))
        assert closest == (0.0, 0.0)
        assert t == 0.0

    def test_clamps_after_end(self):
        closest, t = project_onto_segment((15.0, 3.0), (0.0, 0.0), (10.0, 0.0))
        assert closest == (10.0, 0.0)
        assert t == 1.0

    def test_degenerate_segment(self):
        closest, t = project_onto_segment((1.0, 1.0), (2.0, 2.0), (2.0, 2.0))
        assert closest == (2.0, 2.0)
        assert t == 0.0


class TestPointSegmentDistance:
    def test_perpendicular_distance(self):
        assert point_segment_distance((5.0, 3.0), (0.0, 0.0), (10.0, 0.0)) == pytest.approx(3.0)

    def test_distance_to_endpoint(self):
        assert point_segment_distance((-3.0, 4.0), (0.0, 0.0), (10.0, 0.0)) == pytest.approx(5.0)

    def test_point_on_segment_is_zero(self):
        assert point_segment_distance((4.0, 0.0), (0.0, 0.0), (10.0, 0.0)) == 0.0

    @given(coords, coords, coords)
    def test_never_exceeds_endpoint_distances(self, q, a, b):
        d = point_segment_distance(q, a, b)
        assert d <= point_distance(q, a) + 1e-6
        assert d <= point_distance(q, b) + 1e-6

    @given(coords, coords, coords)
    def test_non_negative(self, q, a, b):
        assert point_segment_distance(q, a, b) >= 0.0


class TestBBox:
    def test_from_points(self):
        box = BBox.from_points([(1.0, 5.0), (-2.0, 3.0), (4.0, -1.0)])
        assert box == BBox(-2.0, -1.0, 4.0, 5.0)

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            BBox.from_points([])

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox(1.0, 0.0, 0.0, 1.0)

    def test_contains_boundary(self):
        box = BBox(0.0, 0.0, 10.0, 10.0)
        assert box.contains((0.0, 0.0))
        assert box.contains((10.0, 10.0))
        assert not box.contains((10.0001, 5.0))

    def test_contains_bbox(self):
        outer = BBox(0.0, 0.0, 10.0, 10.0)
        assert outer.contains_bbox(BBox(1.0, 1.0, 9.0, 9.0))
        assert not outer.contains_bbox(BBox(1.0, 1.0, 11.0, 9.0))

    def test_min_distance_inside_is_zero(self):
        box = BBox(0.0, 0.0, 10.0, 10.0)
        assert box.min_distance((5.0, 5.0)) == 0.0

    def test_min_distance_to_edge(self):
        box = BBox(0.0, 0.0, 10.0, 10.0)
        assert box.min_distance((15.0, 5.0)) == pytest.approx(5.0)

    def test_min_distance_to_corner(self):
        box = BBox(0.0, 0.0, 10.0, 10.0)
        assert box.min_distance((13.0, 14.0)) == pytest.approx(5.0)

    def test_expand(self):
        box = BBox(0.0, 0.0, 10.0, 10.0).expand(2.0)
        assert box == BBox(-2.0, -2.0, 12.0, 12.0)

    def test_center_and_dims(self):
        box = BBox(0.0, 2.0, 10.0, 6.0)
        assert box.center == (5.0, 4.0)
        assert box.width == 10.0
        assert box.height == 4.0

    @given(st.lists(coords, min_size=1, max_size=30))
    def test_from_points_contains_all(self, points):
        box = BBox.from_points(points)
        assert all(box.contains(p) for p in points)

    @given(st.lists(coords, min_size=1, max_size=30), coords)
    def test_min_distance_lower_bounds_member_distance(self, points, q):
        """MINdist(q, bbox) <= dist(q, p) for every p inside — Theorem 4's basis."""
        box = BBox.from_points(points)
        lower = box.min_distance(q)
        for p in points:
            assert lower <= point_distance(q, p) + 1e-6


class TestPathAndDiameter:
    def test_path_length(self):
        assert path_length([(0.0, 0.0), (3.0, 4.0), (3.0, 10.0)]) == pytest.approx(11.0)

    def test_path_length_single_point(self):
        assert path_length([(1.0, 1.0)]) == 0.0

    def test_diameter_small(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
        assert diameter(pts) == pytest.approx(math.hypot(1.0, 2.0))

    def test_diameter_trivial(self):
        assert diameter([(5.0, 5.0)]) == 0.0
        assert diameter([]) == 0.0

    def test_diameter_large_input_approximation(self):
        # A straight line: the double-sweep approximation is exact.
        pts = [(float(i), 0.0) for i in range(1000)]
        assert diameter(pts) == pytest.approx(999.0)

    @given(st.lists(coords, min_size=2, max_size=50))
    def test_diameter_at_least_any_consecutive_gap(self, points):
        d = diameter(points)
        assert d >= point_distance(points[0], points[-1]) - 1e-6

    def test_segment_length_matches_point_distance(self):
        assert segment_length((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
