"""Tests for the segment indexes: uniform grid, hierarchical grid, searches.

The key property (tested exhaustively with hypothesis) is that every
index/strategy returns exactly the same k-nearest distances as the
brute-force linear scan.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.geometry import BBox
from repro.index.base import IndexedSegment, SegmentStore
from repro.index.hierarchical import ROOT, HierarchicalGridIndex
from repro.index.search import KnnCandidates, linear_knn
from repro.index.uniform import UniformGridIndex

BOX = BBox(0.0, 0.0, 1000.0, 1000.0)


def random_segments(n, seed=0, box=BOX):
    rng = random.Random(seed)
    segments = []
    for _ in range(n):
        x = rng.uniform(box.min_x, box.max_x)
        y = rng.uniform(box.min_y, box.max_y)
        dx = rng.uniform(-80, 80)
        dy = rng.uniform(-80, 80)
        segments.append(((x, y), (x + dx, y + dy)))
    return segments


class TestKnnCandidates:
    def test_threshold_infinite_until_full(self):
        c = KnnCandidates(2)
        c.offer(1, 5.0)
        assert c.threshold == float("inf")
        c.offer(2, 3.0)
        assert c.threshold == 5.0

    def test_keeps_best_k(self):
        c = KnnCandidates(2)
        for sid, d in [(1, 5.0), (2, 3.0), (3, 4.0), (4, 10.0)]:
            c.offer(sid, d)
        assert c.results() == [(2, 3.0), (3, 4.0)]

    def test_rejects_worse(self):
        c = KnnCandidates(1)
        assert c.offer(1, 2.0)
        assert not c.offer(2, 3.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KnnCandidates(0)

    def test_results_sorted(self):
        c = KnnCandidates(5)
        for sid, d in enumerate([9.0, 1.0, 4.0, 7.0, 2.0]):
            c.offer(sid, d)
        dists = [d for _, d in c.results()]
        assert dists == sorted(dists)


class TestSegmentStore:
    def test_allocate_and_get(self):
        store = SegmentStore()
        sid = store.allocate((0, 0), (1, 1), "t")
        assert store.segment(sid) == IndexedSegment(sid, (0.0, 0.0), (1.0, 1.0), "t")
        assert store.owner_of(sid) == "t"
        assert len(store) == 1

    def test_ids_unique(self):
        store = SegmentStore()
        a = store.allocate((0, 0), (1, 1), None)
        b = store.allocate((0, 0), (1, 1), None)
        assert a != b

    def test_release(self):
        store = SegmentStore()
        sid = store.allocate((0, 0), (1, 1), None)
        store.release(sid)
        assert len(store) == 0
        with pytest.raises(KeyError, match=f"segment {sid} is not in the index"):
            store.segment(sid)

    def test_release_missing(self):
        with pytest.raises(KeyError):
            SegmentStore().release(99)


class TestLinearKnn:
    def test_empty(self):
        assert linear_knn([], (0, 0), 3) == []

    def test_finds_nearest(self):
        segments = [
            IndexedSegment(0, (100, 0), (200, 0)),
            IndexedSegment(1, (0, 10), (0, 20)),
            IndexedSegment(2, (500, 500), (600, 600)),
        ]
        result = linear_knn(segments, (0, 0), 2)
        assert [sid for sid, _ in result] == [1, 0]

    def test_k_larger_than_population(self):
        segments = [IndexedSegment(0, (1, 1), (2, 2))]
        assert len(linear_knn(segments, (0, 0), 5)) == 1


class TestUniformGridIndex:
    def test_insert_remove_len(self):
        index = UniformGridIndex(BOX, granularity=8)
        sid = index.insert((10, 10), (20, 20), "t")
        assert len(index) == 1
        assert index.segment(sid).owner == "t"
        index.remove(sid)
        assert len(index) == 0

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            UniformGridIndex(BOX, granularity=8).remove(5)

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            UniformGridIndex(BOX, granularity=0)

    def test_knn_matches_linear(self):
        index = UniformGridIndex(BOX, granularity=16)
        registry = []
        for a, b in random_segments(120, seed=3):
            sid = index.insert(a, b)
            registry.append(index.segment(sid))
        for q in [(0, 0), (500, 500), (999, 1), (1500, 1500)]:
            got = index.knn(q, 5)
            want = linear_knn(registry, q, 5)
            assert [round(d, 6) for _, d in got] == [round(d, 6) for _, d in want]

    def test_knn_empty(self):
        assert UniformGridIndex(BOX, granularity=4).knn((0, 0), 3) == []

    def test_segment_outside_bbox_clamped(self):
        index = UniformGridIndex(BOX, granularity=8)
        sid = index.insert((-100, -100), (-50, -50))
        got = index.knn((-75, -75), 1)
        assert got[0][0] == sid


class TestHierarchicalStructure:
    def test_best_fit_root_for_spanning_segment(self):
        index = HierarchicalGridIndex(BOX, levels=4)
        key = index.best_fit_cell((10, 10), (990, 990))
        assert key == ROOT

    def test_best_fit_finest_for_tiny_segment(self):
        index = HierarchicalGridIndex(BOX, levels=4)  # finest = 8x8 cells of 125m
        key = index.best_fit_cell((10, 10), (20, 20))
        assert key[0] == 3  # finest level

    def test_best_fit_midlevel(self):
        index = HierarchicalGridIndex(BOX, levels=4)
        # Crosses a 125 m boundary but stays in one 250 m cell.
        key = index.best_fit_cell((110, 10), (140, 10))
        assert key[0] == 2

    def test_parent_of(self):
        assert HierarchicalGridIndex.parent_of((2, 3, 1)) == (1, 1, 0)
        assert HierarchicalGridIndex.parent_of(ROOT) is None

    def test_ancestor_chain_created_and_pruned(self):
        index = HierarchicalGridIndex(BOX, levels=5)
        sid = index.insert((10, 10), (15, 15))
        assert index.cell_count() >= 2  # leaf chain up to root
        index.remove(sid)
        assert index.cell_count() == 0

    def test_cell_bbox_nesting(self):
        index = HierarchicalGridIndex(BOX, levels=4)
        child = index.cell_bbox((2, 1, 1))
        parent = index.cell_bbox((1, 0, 0))
        assert parent.contains_bbox(child)

    def test_min_distance_zero_inside(self):
        index = HierarchicalGridIndex(BOX, levels=4)
        assert index.min_distance((10.0, 10.0), ROOT) == 0.0

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            HierarchicalGridIndex(BOX, levels=0)

    def test_unknown_strategy(self):
        index = HierarchicalGridIndex(BOX, levels=3)
        index.insert((1, 1), (2, 2))
        with pytest.raises(ValueError):
            index.knn((0, 0), 1, strategy="sideways")


@pytest.mark.parametrize("strategy", ["top_down", "bottom_up", "bottom_up_down"])
class TestHierarchicalKnn:
    def build(self, n=150, seed=7, levels=6):
        index = HierarchicalGridIndex(BOX, levels=levels)
        registry = []
        for a, b in random_segments(n, seed=seed):
            sid = index.insert(a, b)
            registry.append(index.segment(sid))
        return index, registry

    def test_matches_linear(self, strategy):
        index, registry = self.build()
        for q in [(0, 0), (500, 500), (123, 456), (999, 999), (-50, 500)]:
            got = index.knn(q, 7, strategy=strategy)
            want = linear_knn(registry, q, 7)
            assert [round(d, 6) for _, d in got] == [round(d, 6) for _, d in want]

    def test_k_one(self, strategy):
        index, registry = self.build(n=40, seed=2)
        got = index.knn((321, 321), 1, strategy=strategy)
        want = linear_knn(registry, (321, 321), 1)
        assert got[0][1] == pytest.approx(want[0][1])

    def test_k_exceeds_population(self, strategy):
        index, registry = self.build(n=5, seed=5)
        got = index.knn((100, 100), 50, strategy=strategy)
        assert len(got) == 5

    def test_empty_index(self, strategy):
        index = HierarchicalGridIndex(BOX, levels=4)
        assert index.knn((0, 0), 3, strategy=strategy) == []

    def test_after_removals(self, strategy):
        index, registry = self.build(n=60, seed=9)
        # Remove the 20 nearest to the query, then re-query.
        q = (400.0, 400.0)
        for sid, _ in index.knn(q, 20, strategy=strategy):
            index.remove(sid)
        remaining = [s for s in registry if s.sid in {seg.sid for seg in index.store}]
        got = index.knn(q, 5, strategy=strategy)
        want = linear_knn(remaining, q, 5)
        assert [round(d, 6) for _, d in got] == [round(d, 6) for _, d in want]

    def test_stats_recorded(self, strategy):
        index, _ = self.build(n=100, seed=1)
        index.knn((500, 500), 3, strategy=strategy)
        assert index.last_stats.segments_checked >= 3
        assert index.last_stats.cells_visited >= 1


class TestOutOfBoundsSegments:
    """Segments protruding outside the index bbox must not be missed.

    Clamping them into boundary cells breaks the MINdist lower bound
    (the protruding geometry can be closer to an outside query than
    its cell), so both grid indexes route them through an exact-check
    overflow set. Regression for a hypothesis-found counterexample:
    seed=3, n=21, k=3, q=(671, 1125).
    """

    def _build(self):
        segments = random_segments(21, seed=3)
        hier = HierarchicalGridIndex(BOX, levels=5)
        unif = UniformGridIndex(BOX, granularity=16)
        registry = []
        for a, b in segments:
            sid = hier.insert(a, b)
            unif.insert(a, b)
            registry.append(hier.segment(sid))
        return hier, unif, registry

    def test_knn_finds_protruding_neighbour(self):
        hier, unif, registry = self._build()
        q = (671.0, 1125.0)
        want = [round(d, 6) for _, d in linear_knn(registry, q, 3)]
        for strategy in ("top_down", "bottom_up", "bottom_up_down"):
            got = [round(d, 6) for _, d in hier.knn(q, 3, strategy=strategy)]
            assert got == want, strategy
        assert [round(d, 6) for _, d in unif.knn(q, 3)] == want

    def test_iter_nearest_covers_overflow(self):
        hier, _, registry = self._build()
        q = (671.0, 1125.0)
        want = [sid for sid, _ in linear_knn(registry, q, len(registry))]
        assert [sid for sid, _ in hier.iter_nearest(q)] == want

    def test_remove_clears_overflow(self):
        hier = HierarchicalGridIndex(BOX, levels=5)
        unif = UniformGridIndex(BOX, granularity=16)
        outside = ((900.0, 990.0), (905.0, 1100.0))
        for index in (hier, unif):
            sid = index.insert(*outside)
            assert index.knn((900.0, 1150.0), 1)[0][0] == sid
            index.remove(sid)
            assert index.knn((900.0, 1150.0), 1) == []
            assert len(index) == 0


class TestStrategyEquivalenceProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        k=st.integers(1, 8),
        qx=st.floats(min_value=-200, max_value=1200, allow_nan=False),
        qy=st.floats(min_value=-200, max_value=1200, allow_nan=False),
    )
    def test_all_indexes_agree_with_linear(self, seed, n, k, qx, qy):
        segments = random_segments(n, seed=seed)
        hier = HierarchicalGridIndex(BOX, levels=5)
        unif = UniformGridIndex(BOX, granularity=16)
        registry = []
        for a, b in segments:
            sid = hier.insert(a, b)
            unif.insert(a, b)
            registry.append(hier.segment(sid))
        q = (qx, qy)
        want = [round(d, 6) for _, d in linear_knn(registry, q, k)]
        for strategy in ("top_down", "bottom_up", "bottom_up_down"):
            got = [round(d, 6) for _, d in hier.knn(q, k, strategy=strategy)]
            assert got == want, strategy
        got_unif = [round(d, 6) for _, d in unif.knn(q, k)]
        assert got_unif == want


class TestPruningPower:
    def test_bottom_up_down_checks_fewer_segments_than_top_down(self):
        """The paper's headline claim for HG+: earlier threshold tightening.

        Averaged over queries on clustered data, HG+ should check no
        more segments than the top-down strategy.
        """
        rng = random.Random(4)
        index_td = HierarchicalGridIndex(BOX, levels=8)
        index_bud = HierarchicalGridIndex(BOX, levels=8)
        # Clustered tiny segments in hotspots plus long spanning segments
        # that live near the root (the Example 1 structure).
        cluster_centres = []
        for _ in range(40):
            cx = rng.uniform(100, 900)
            cy = rng.uniform(100, 900)
            cluster_centres.append((cx, cy))
            for _ in range(15):
                x = cx + rng.uniform(-30, 30)
                y = cy + rng.uniform(-30, 30)
                a, b = (x, y), (x + rng.uniform(-10, 10), y + rng.uniform(-10, 10))
                index_td.insert(a, b)
                index_bud.insert(a, b)
        for _ in range(60):
            a = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            b = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            index_td.insert(a, b)
            index_bud.insert(a, b)
        checked_td = 0
        checked_bud = 0
        # Queries land inside clusters: the modification workload queries
        # trajectory points, which live where the data is dense.
        for _ in range(60):
            cx, cy = rng.choice(cluster_centres)
            q = (cx + rng.uniform(-40, 40), cy + rng.uniform(-40, 40))
            index_td.knn(q, 3, strategy="top_down")
            checked_td += index_td.last_stats.segments_checked
            index_bud.knn(q, 3, strategy="bottom_up_down")
            checked_bud += index_bud.last_stats.segments_checked
        assert checked_bud <= checked_td * 1.1
