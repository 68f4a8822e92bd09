"""Tests for the incremental nearest-segment iterators.

The linear and hierarchical ``iter_nearest`` must enumerate the whole
index in exactly the (distance, sid) order the one-shot ``knn`` uses —
the inter-trajectory modifier's lazy consumption depends on it.
"""

import itertools
import random

import pytest

from repro.geo.geometry import BBox
from repro.index import HierarchicalGridIndex, LinearSegmentIndex, linear_knn

BOX = BBox(0.0, 0.0, 1000.0, 1000.0)

BACKENDS = {
    "linear": lambda: LinearSegmentIndex(),
    "hierarchical": lambda: HierarchicalGridIndex(BOX, levels=6),
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

    def test_churn_with_more_released_rows_than_live_ones(self, index):
        """Released rows outnumber live ones, and some live rows repeat
        a released geometry: the scan still equals the brute-force
        (distance, sid) sort of the live segments, with exactly
        ``len(index)`` yields (the flat scan measures released rows
        too and must stop before any of them)."""
        rng = random.Random(19)
        segments = {s.sid: s for s in fill(index, n=90, seed=19)}
        for sid in rng.sample(sorted(segments), 60):
            index.remove(sid)
            segments.pop(sid)
        for old in rng.sample(sorted(segments.values(), key=lambda s: s.sid), 8):
            sid = index.insert(old.a, old.b, owner=old.owner)
            segments[sid] = index.segment(sid)
        for sid in rng.sample(sorted(segments), 10):
            index.remove(sid)
            segments.pop(sid)
        live = sorted(segments.values(), key=lambda s: s.sid)
        assert len(index) == len(live) == 28
        for q in QUERIES + [(-5000.0, 3000.0)]:
            got = list(index.iter_nearest(q))
            want = linear_knn(live, q, len(live))
            assert len(got) == len(index)
            assert [sid for sid, _ in got] == [sid for sid, _ in want], q
            for (_, d1), (_, d2) in zip(got, want, strict=True):
                assert d1 == pytest.approx(d2, abs=1e-9)
