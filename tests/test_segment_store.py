"""The columnar segment store shared by every index, and its one kernel.

Three properties carry the array-native kNN:

* the column kernel (:func:`repro.geo.vectorized.segment_distances`)
  equals, bit for bit, a pure-Python evaluation of the same operations
  with ``math.sqrt`` — so cell views, ``SegmentArray`` and gathers all
  agree exactly, whatever numpy does internally;
* the store hands back exactly what went in (floats and owner) across
  capacity doublings, interleaved single and block allocation, and
  removals, on the linear and hierarchical indexes;
* cell views gathered from the store never go stale: after any
  remove-and-reinsert sequence every search sees exactly the live
  segments (``knn`` only on the uniform-grid baseline, which has no
  other search).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.geometry import BBox
from repro.geo.vectorized import SegmentArray, segment_columns, segment_distances
from repro.index.base import _INITIAL_CAPACITY, IndexedSegment, SegmentStore
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.index.uniform import UniformGridIndex

BOX = BBox(0.0, 0.0, 1000.0, 1000.0)
INDEXES = {
    "linear": lambda: LinearSegmentIndex(),
    "uniform": lambda: UniformGridIndex(BOX, granularity=16),
    "hierarchical": lambda: HierarchicalGridIndex(BOX, levels=5),
}

big = st.floats(min_value=-1e7, max_value=1e7, allow_nan=False)
point = st.tuples(big, big)


def reference_distance(q, a, b) -> float:
    """The column kernel's operation order, in plain Python floats."""
    qx, qy = q
    ax, ay = a
    dx = b[0] - ax
    dy = b[1] - ay
    norm_sq = dx * dx + dy * dy
    safe = 1.0 if norm_sq == 0.0 else norm_sq
    t = ((qx - ax) * dx + (qy - ay) * dy) / safe
    t = max(t, 0.0)
    t = min(t, 1.0)
    gx = qx - (ax + t * dx)
    gy = qy - (ay + t * dy)
    return math.sqrt(gx * gx + gy * gy)


@st.composite
def kernel_case(draw):
    """Segments (some degenerate) and a query, often on a segment."""
    segments = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(point)
        b = a if draw(st.booleans()) and draw(st.booleans()) else draw(point)
        segments.append((a, b))
    if draw(st.booleans()):
        a, b = segments[draw(st.integers(0, len(segments) - 1))]
        t = draw(st.floats(0.0, 1.0))
        q = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    else:
        q = draw(point)
    return segments, q


class TestColumnKernel:
    @settings(max_examples=200, deadline=None)
    @given(case=kernel_case())
    def test_bitwise_equal_to_python_reference(self, case):
        segments, q = case
        a = np.array([s[0] for s in segments], dtype=np.float64)
        b = np.array([s[1] for s in segments], dtype=np.float64)
        dx, dy, safe = segment_columns(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        got = segment_distances(q[0], q[1], a[:, 0], a[:, 1], dx, dy, safe)
        want = [reference_distance(q, *s) for s in segments]
        assert got.tolist() == want
        assert SegmentArray.from_pairs(segments).distances_to(q).tolist() == want

    def test_vector_loop_block_is_bitwise_equal_and_read_only(self):
        """A block long enough for numpy's vector loops (and its
        unrolled tails) still equals the reference bit for bit, and the
        kernel, which computes in place on scratch arrays, leaves its
        five input columns untouched."""
        rng = np.random.default_rng(4096)
        n = 4099
        a = rng.uniform(-1e6, 1e6, (n, 2))
        b = a + rng.normal(0.0, 500.0, (n, 2))
        b[::9] = a[::9]  # degenerate segments
        dx, dy, safe = segment_columns(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        columns = (np.ascontiguousarray(a[:, 0]), np.ascontiguousarray(a[:, 1]),
                   dx, dy, safe)
        before = [column.copy() for column in columns]
        segments = [
            (tuple(s), tuple(e))
            for s, e in zip(a.tolist(), b.tolist(), strict=True)
        ]
        queries = [tuple(q) for q in rng.uniform(-1.2e6, 1.2e6, (3, 2)).tolist()]
        queries.append(segments[5][0])  # on a segment's start
        for q in queries:
            got = segment_distances(q[0], q[1], *columns)
            want = np.array([reference_distance(q, *seg) for seg in segments])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for column, original in zip(columns, before, strict=True):
            assert np.array_equal(column.view(np.int64), original.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(case=kernel_case())
    def test_store_gather_equals_fresh_array(self, case):
        """A gathered view (derived columns computed at allocation,
        scalar or block, across a capacity doubling) is the same kernel
        input as a fresh array, and so is the block measured in place,
        where released rows read +inf."""
        segments, q = case
        rows = segments * (_INITIAL_CAPACITY // len(segments) + 1)
        store = SegmentStore()
        for start in range(0, len(rows), 4):
            a, b = rows[start]
            store.allocate(a, b, None)
            block = rows[start + 1 : start + 4]
            if block:
                store.allocate_many(
                    np.array([s[0] for s in block], dtype=np.float64),
                    np.array([s[1] for s in block], dtype=np.float64),
                    None,
                )
        want = [reference_distance(q, *s) for s in rows]
        assert store.gather(range(len(rows))).distances_to(q).tolist() == want
        assert store.distances_to(q).tolist() == want
        for sid in range(0, len(rows), 3):
            store.release(sid)
        assert store.distances_to(q).tolist() == [
            math.inf if sid % 3 == 0 else d for sid, d in enumerate(want)
        ]


class TestSegmentStore:
    def test_round_trips_exact_floats_and_owner(self):
        store = SegmentStore()
        a, b = (0.1 + 0.2, 1e7 / 3), (-0.0, 5e-324)
        sid = store.allocate(a, b, "t")
        assert store.segment(sid) == IndexedSegment(sid, a, b, "t")
        assert math.copysign(1.0, store.segment(sid).b[0]) == -1.0

    def test_dead_and_unknown_sids_raise(self):
        store = SegmentStore()
        sid = store.allocate((0, 0), (1, 1), None)
        store.release(sid)
        for bad in (sid, -1, 5):
            with pytest.raises(KeyError, match=f"segment {bad} is not in the index"):
                store.segment(bad)
            with pytest.raises(KeyError):
                store.owner_of(bad)
            with pytest.raises(KeyError):
                store.release(bad)

    @pytest.mark.parametrize("backend", ["linear", "hierarchical"])
    def test_growth_with_interleaved_edits(self, backend):
        """Grow far past the initial capacity through single inserts,
        block inserts and removals; every live row stays exact."""
        rng = random.Random(backend)
        index = INDEXES[backend]()
        expected: dict[int, tuple] = {}

        def coord():
            return (rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0))

        for step in range(400):
            roll = rng.random()
            if roll < 0.4:
                a, b = coord(), coord()
                owner = f"o{step % 7}"
                expected[index.insert(a, b, owner=owner)] = (a, b, owner)
            elif roll < 0.7:
                pairs = [(coord(), coord()) for _ in range(rng.randint(1, 9))]
                owner = None if step % 3 else "bulk"
                for sid, (a, b) in zip(
                    index.insert_many(pairs, owner=owner), pairs, strict=True
                ):
                    expected[sid] = (a, b, owner)
            elif expected:
                sid = rng.choice(sorted(expected))
                index.remove(sid)
                del expected[sid]
            assert len(index) == len(expected)
        # several doublings past the initial capacity
        assert len(expected) > 4 * _INITIAL_CAPACITY
        for sid, (a, b, owner) in expected.items():
            assert index.segment(sid) == IndexedSegment(sid, a, b, owner)
            assert index.owner_of(sid) == owner
        assert [s.sid for s in index.store] == sorted(expected)


operation = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 19)),
    st.tuples(st.just("remove"), st.integers(0, 10_000)),
    st.tuples(st.just("reinsert"), st.integers(0, 10_000)),
    st.tuples(st.just("query"), st.integers(0, 10_000)),
)


class TestViewsNeverStale:
    """Remove-and-reinsert in the same cell, with views cached in
    between: searches must see exactly the live segments."""

    @pytest.mark.parametrize("backend", sorted(INDEXES))
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(operation, min_size=1, max_size=40), seed=st.integers(0, 99))
    def test_searches_match_live_segments(self, backend, ops, seed):
        rng = random.Random(seed)
        # A few short segments clustered in two cells, so removals and
        # reinsertions keep hitting cells whose views are cached.
        shapes = [
            ((cx + rng.uniform(0, 20), cy + rng.uniform(0, 20)),
             (cx + rng.uniform(0, 20), cy + rng.uniform(0, 20)))
            for cx, cy in [(100.0, 100.0), (700.0, 300.0)] * 10
        ]
        index = INDEXES[backend]()
        live: dict[int, tuple] = {}
        queries = [(110.0, 110.0), (710.0, 310.0), (400.0, 200.0)]
        for kind, value in ops:
            if kind == "insert":
                a, b = shapes[value]
                live[index.insert(a, b, owner=str(value))] = (a, b)
            elif kind in ("remove", "reinsert") and live:
                sid = sorted(live)[value % len(live)]
                a, b = live.pop(sid)
                index.remove(sid)
                if kind == "reinsert":
                    live[index.insert(a, b, owner="again")] = (a, b)
            else:
                q = queries[value % len(queries)]
                self.check(index, live, q)
        for q in queries:
            self.check(index, live, q)

    @staticmethod
    def check(index, live, q):
        want = sorted(
            SegmentArray.from_pairs(list(live.values())).distances_to(q).tolist()
        )
        k = max(1, len(live) // 2)
        searches = [index.knn(q, k)]
        if not isinstance(index, UniformGridIndex):
            frontier = list(index.iter_nearest(q))
            assert sorted(sid for sid, _ in frontier) == sorted(live)
            assert [d for _, d in frontier] == want
            searches.append(index.knn_batch([q], k)[0])
        for hits in searches:
            assert all(sid in live for sid, _ in hits)
            assert [d for _, d in hits] == want[:k]
