"""Protocol-compliance tests: the indexes the pipeline builds honour
SegmentIndex.

The linear and hierarchical indexes get the full behavioural contract.
The paper's uniform-grid baseline (a kNN search baseline only) keeps
the part it implements: insert, remove, lookup and ``knn``.
"""

import random

import pytest

from repro.geo.geometry import BBox
from repro.index import (
    HierarchicalGridIndex,
    LinearSegmentIndex,
    SegmentIndex,
    UniformGridIndex,
)
from repro.index.search import linear_knn

BOX = BBox(0.0, 0.0, 1000.0, 1000.0)

PROTOCOL_BACKENDS = {
    "linear": lambda: LinearSegmentIndex(),
    "hierarchical": lambda: HierarchicalGridIndex(BOX, levels=6),
}
BACKENDS = {
    **PROTOCOL_BACKENDS,
    "uniform-midpoint": lambda: UniformGridIndex(BOX, granularity=32),
}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def index(request):
    return BACKENDS[request.param]()


@pytest.fixture(params=sorted(PROTOCOL_BACKENDS), ids=sorted(PROTOCOL_BACKENDS))
def protocol_index(request):
    return PROTOCOL_BACKENDS[request.param]()


def fill(index, n=60, seed=5):
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


class TestProtocolCompliance:
    def test_satisfies_runtime_protocol(self, protocol_index):
        assert isinstance(protocol_index, SegmentIndex)

    def test_len_tracks_inserts_and_removes(self, index):
        assert len(index) == 0
        sid = index.insert((1, 1), (2, 2))
        assert len(index) == 1
        index.remove(sid)
        assert len(index) == 0

    def test_segment_lookup(self, index):
        sid = index.insert((1, 1), (2, 2), owner="me")
        segment = index.segment(sid)
        assert segment.sid == sid
        assert segment.owner == "me"
        assert segment.a == (1, 1)
        assert segment.b == (2, 2)

    def test_lookup_after_remove_raises(self, index):
        sid = index.insert((1, 1), (2, 2))
        index.remove(sid)
        with pytest.raises(KeyError):
            index.segment(sid)

    def test_double_remove_raises(self, index):
        sid = index.insert((1, 1), (2, 2))
        index.remove(sid)
        with pytest.raises(KeyError):
            index.remove(sid)

    def test_ids_never_reused(self, index):
        sids = set()
        for i in range(10):
            sid = index.insert((float(i), 0.0), (float(i), 1.0))
            assert sid not in sids
            sids.add(sid)
            if i % 2 == 0:
                index.remove(sid)

    def test_knn_on_empty(self, index):
        assert index.knn((5, 5), 3) == []

    def test_knn_matches_linear_reference(self, index):
        segments = fill(index)
        for q in [(0, 0), (500, 500), (999, 999)]:
            got = [round(d, 6) for _, d in index.knn(q, 5)]
            want = [round(d, 6) for _, d in linear_knn(segments, q, 5)]
            assert got == want

    def test_knn_after_churn(self, index):
        fill(index, n=40, seed=7)
        # Remove half of what kNN finds near the centre, twice.
        for _ in range(2):
            for sid, _ in index.knn((500, 500), 10):
                index.remove(sid)
        live = []
        for sid, _ in index.knn((500, 500), 10_000):
            live.append(index.segment(sid))
        got = [round(d, 6) for _, d in index.knn((500, 500), 4)]
        want = [round(d, 6) for _, d in linear_knn(live, (500, 500), 4)]
        assert got == want

    def test_owner_optional(self, index):
        sid = index.insert((0, 0), (1, 1))
        assert index.segment(sid).owner is None


class TestBatchedQueries:
    """knn_batch agrees with per-query knn on every backend (the wave
    planner's contract)."""

    @pytest.fixture
    def index(self, protocol_index):
        return protocol_index

    def test_knn_batch_matches_knn(self, index):
        fill(index)
        queries = [(0.0, 0.0), (500.0, 500.0), (999.0, 999.0), (250.0, 750.0)]
        assert index.knn_batch(queries, 5) == [
            index.knn(q, 5) for q in queries
        ]

    def test_knn_batch_empty(self, index):
        assert index.knn_batch([(1.0, 2.0)], 3) == [[]]
        assert index.knn_batch([], 3) == []

    def test_batches_see_mutations_between_calls(self, index):
        fill(index, n=20)
        before = index.knn_batch([(500.0, 500.0)], 3)[0]
        index.remove(before[0][0])
        after = index.knn_batch([(500.0, 500.0)], 3)[0]
        assert before[0][0] not in [sid for sid, _ in after]
        assert after == [index.knn((500.0, 500.0), 3)[i] for i in range(3)]


class TestBulkInsert:
    def test_bulk_insert_matches_loop(self, protocol_index):
        index = protocol_index
        rng = random.Random(3)
        pairs = []
        for _ in range(40):
            x, y = rng.uniform(-50, 1050), rng.uniform(-50, 1050)
            pairs.append(
                ((x, y), (x + rng.uniform(-40, 40), y + rng.uniform(-40, 40)))
            )
        sids = index.insert_many(pairs, owner="bulk")
        assert sids == sorted(sids)  # allocation order preserved
        for sid, (a, b) in zip(sids, pairs, strict=True):
            segment = index.segment(sid)
            assert (segment.a, segment.b, segment.owner) == (a, b, "bulk")
        # Searches over a bulk-loaded index match the linear reference
        # (includes out-of-bbox segments routed through overflow).
        segments = [index.segment(sid) for sid in sids]
        for q in [(0.0, 0.0), (500.0, 500.0), (1049.0, -49.0)]:
            got = [round(d, 6) for _, d in index.knn(q, 6)]
            want = [round(d, 6) for _, d in linear_knn(segments, q, 6)]
            assert got == want
