"""Tests for the numpy-vectorised geometry kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.geometry import point_segment_distance
from repro.geo.vectorized import SORT_BLOCK, SegmentArray, sorted_block

finite = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)
coord = st.tuples(finite, finite)


class TestConstruction:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            SegmentArray(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            SegmentArray(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_from_pairs(self):
        array = SegmentArray.from_pairs([((0, 0), (1, 1)), ((2, 2), (3, 3))])
        assert len(array) == 2

    def test_from_pairs_empty(self):
        assert len(SegmentArray.from_pairs([])) == 0

    def test_from_polyline(self):
        array = SegmentArray.from_polyline([(0, 0), (1, 0), (2, 0)])
        assert len(array) == 2

    def test_from_polyline_too_short(self):
        assert len(SegmentArray.from_polyline([(0, 0)])) == 0


class TestDistances:
    def test_known_values(self):
        array = SegmentArray.from_pairs(
            [((0, 0), (10, 0)), ((0, 5), (10, 5)), ((20, 20), (30, 30))]
        )
        distances = array.distances_to((5.0, 3.0))
        assert distances[0] == pytest.approx(3.0)
        assert distances[1] == pytest.approx(2.0)

    def test_degenerate_segment(self):
        array = SegmentArray.from_pairs([((5, 5), (5, 5))])
        assert array.distances_to((8.0, 9.0))[0] == pytest.approx(5.0)

    def test_min_distance_empty_is_inf(self):
        assert SegmentArray.from_pairs([]).min_distance_to((0, 0)) == float("inf")

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(coord, coord), min_size=1, max_size=20),
        q=coord,
    )
    def test_matches_scalar_implementation(self, pairs, q):
        array = SegmentArray.from_pairs(pairs)
        vectorised = array.distances_to(q)
        for i, (a, b) in enumerate(pairs):
            scalar = point_segment_distance(q, a, b)
            assert vectorised[i] == pytest.approx(scalar, abs=1e-6)


class TestKnn:
    def test_orders_by_distance(self):
        array = SegmentArray.from_pairs(
            [((100, 0), (200, 0)), ((0, 1), (10, 1)), ((0, 50), (10, 50))]
        )
        result = array.knn((0.0, 0.0), 2)
        assert [i for i, _ in result] == [1, 2]

    def test_k_exceeds_population(self):
        array = SegmentArray.from_pairs([((0, 0), (1, 1))])
        assert len(array.knn((0, 0), 10)) == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SegmentArray.from_pairs([((0, 0), (1, 1))]).knn((0, 0), 0)

    def test_empty(self):
        assert SegmentArray.from_pairs([]).knn((0, 0), 3) == []

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(st.tuples(coord, coord), min_size=1, max_size=25),
        q=coord,
        k=st.integers(1, 6),
    )
    def test_knn_matches_sorted_distances(self, pairs, q, k):
        array = SegmentArray.from_pairs(pairs)
        result = array.knn(q, k)
        all_distances = sorted(array.distances_to(q))
        assert [round(d, 6) for _, d in result] == [
            round(d, 6) for d in all_distances[: len(result)]
        ]


B = SORT_BLOCK


class TestSortedBlock:
    """Blocks chained by their last value must reproduce the full stable
    argsort, ties included, whatever the length."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        length=st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 1, 10 * B]),
        pool=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
    )
    def test_concatenated_blocks_equal_stable_argsort(self, data, length, pool):
        raw = np.array(
            data.draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length)),
            dtype=np.float64,
        )
        got: list[int] = []
        block = sorted_block(raw)
        while len(block):
            got.extend(block.tolist())
            block = sorted_block(raw, float(raw[block[-1]]))
        assert got == np.argsort(raw, kind="stable").tolist()
