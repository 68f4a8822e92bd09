"""Tests for the incremental nearest-segment iterators.

Every backend's ``iter_nearest`` must enumerate the whole index in
exactly the (distance, sid) order the one-shot ``knn`` uses — the
inter-trajectory modifier's lazy consumption depends on it.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.geometry import BBox, point_segment_distance
from repro.geo.vectorized import SORT_BLOCK, SegmentArray
from repro.index import (
    HierarchicalGridIndex,
    LinearSegmentIndex,
    RTreeIndex,
    UniformGridIndex,
    linear_knn,
)

BOX = BBox(0.0, 0.0, 1000.0, 1000.0)

BACKENDS = {
    "linear": lambda: LinearSegmentIndex(),
    "uniform-overlap": lambda: UniformGridIndex(BOX, granularity=32),
    "uniform-midpoint": lambda: UniformGridIndex(
        BOX, granularity=32, assignment="midpoint"
    ),
    "hierarchical": lambda: HierarchicalGridIndex(BOX, levels=6),
    "rtree": lambda: RTreeIndex(leaf_capacity=4),
}

QUERIES = [(0.0, 0.0), (500.0, 500.0), (999.0, 999.0), (250.0, 750.0)]


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def index(request):
    return BACKENDS[request.param]()


def fill(index, n=70, seed=5):
    rng = random.Random(seed)
    segments = []
    for _ in range(n):
        x = rng.uniform(0, 1000)
        y = rng.uniform(0, 1000)
        a = (x, y)
        b = (x + rng.uniform(-60, 60), y + rng.uniform(-60, 60))
        sid = index.insert(a, b, owner=f"o{rng.randrange(5)}")
        segments.append(index.segment(sid))
    return segments


class TestIterNearest:
    def test_empty_index_yields_nothing(self, index):
        assert list(index.iter_nearest((5.0, 5.0))) == []

    def test_full_enumeration_matches_linear_reference(self, index):
        segments = fill(index)
        for q in QUERIES:
            got = list(index.iter_nearest(q))
            want = linear_knn(segments, q, len(segments))
            assert [sid for sid, _ in got] == [sid for sid, _ in want], q
            for (_, d1), (_, d2) in zip(got, want, strict=True):
                assert d1 == pytest.approx(d2, abs=1e-9)

    def test_distances_nondecreasing(self, index):
        fill(index, n=50, seed=9)
        distances = [d for _, d in index.iter_nearest((400.0, 600.0))]
        assert distances == sorted(distances)

    def test_prefix_matches_knn(self, index):
        fill(index, n=60, seed=11)
        for q in QUERIES:
            prefix = list(itertools.islice(index.iter_nearest(q), 8))
            want = index.knn(q, 8)
            assert [sid for sid, _ in prefix] == [sid for sid, _ in want]

    def test_each_segment_yielded_once(self, index):
        fill(index, n=45, seed=13)
        sids = [sid for sid, _ in index.iter_nearest((100.0, 100.0))]
        assert len(sids) == 45
        assert len(set(sids)) == 45

    def test_reflects_removals(self, index):
        fill(index, n=30, seed=15)
        victims = [sid for sid, _ in index.knn((500.0, 500.0), 5)]
        for sid in victims:
            index.remove(sid)
        remaining = [sid for sid, _ in index.iter_nearest((500.0, 500.0))]
        assert len(remaining) == 25
        assert not set(victims) & set(remaining)

    def test_lazy_consumption_is_cheap_on_hierarchical(self):
        """Pulling one candidate must not enumerate the whole index."""
        index = HierarchicalGridIndex(BOX, levels=8)
        fill(index, n=200, seed=17)
        first = next(iter(index.iter_nearest((500.0, 500.0))))
        assert first is not None
        assert index.last_stats.segments_checked < 200


class TestHierarchicalBlockCursors:
    """The hierarchical frontier sorts big cells one block at a time;
    its yield order must still be the exact (distance, sid) order."""

    BOX = BBox(0.0, 0.0, 10.0, 10.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        q=st.tuples(st.integers(-2, 12), st.integers(-2, 12)),
    )
    def test_matches_brute_force_with_churn_and_overflow(self, seed, q):
        rng = random.Random(seed)
        q = (float(q[0]), float(q[1]))
        index = HierarchicalGridIndex(self.BOX, levels=4)
        live: dict[int, tuple] = {}

        def lattice(low, high):
            return float(rng.randrange(low, high))

        shapes = []
        # Lattice segments crossing the vertical centre line share the
        # root cell, on three rows only: ties abound, often more than a
        # block's worth at one distance.
        for _ in range(2 * SORT_BLOCK + 1 + rng.randrange(3 * SORT_BLOCK)):
            y = lattice(4, 7)
            shapes.append(((lattice(3, 5), y), (lattice(6, 8), y)))
        for _ in range(rng.randrange(30)):  # short ones in finer cells
            x, y = lattice(0, 10), lattice(0, 10)
            shapes.append(((x, y), (x + rng.randrange(2), y)))
        for _ in range(rng.randrange(3 * SORT_BLOCK)):  # outside the bbox
            shapes.append(((lattice(-4, 0), lattice(0, 11)), (lattice(0, 11), lattice(0, 11))))
        for a, b in shapes:
            live[index.insert(a, b, owner="o")] = (a, b)
        list(itertools.islice(index.iter_nearest(q), 5))  # cache views
        for sid in rng.sample(sorted(live), len(live) // 3):
            a, b = live.pop(sid)
            index.remove(sid)
            live[index.insert(a, b, owner="o")] = (a, b)

        assert max(len(cell.segments) for cell in index._cells.values()) > (
            2 * SORT_BLOCK
        )

        def distance(a, b):
            if self.BOX.contains(a) and self.BOX.contains(b):
                return float(SegmentArray.from_pairs([(a, b)]).distances_to(q)[0])
            return point_segment_distance(q, a, b)  # overflow: scalar kernel

        want = sorted((distance(a, b), sid) for sid, (a, b) in live.items())
        assert list(index.iter_nearest(q)) == [(sid, d) for d, sid in want]
