"""The kNN contract every index keeps.

For any index state and query ``q``: ``knn(q, k)`` equals the first
``k`` of ``iter_nearest(q)``, which equals the first ``k`` of a brute
force ``(distance, sid)`` sort of every live segment under the one
column kernel, :meth:`repro.geo.vectorized.SegmentArray.distances_to`.
So which of several equidistant segments a search keeps is a function
of the data, never of the index, its shape, or its search strategy.
The linear and hierarchical indexes keep the whole contract; the
paper's uniform-grid baseline answers only ``knn``, and keeps that.

The fixtures are built to break that: lattice segments sharing
endpoints and lying on cell boundaries (ties everywhere), runs of
ties longer than a frontier sort block, degenerate segments, rows
outside the index extent, churn that frees and re-allocates sids, and
extents whose cell edges do not fall on representable lattice values.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.geo.geometry import BBox
from repro.geo.vectorized import SORT_BLOCK, SegmentArray
from repro.index.hierarchical import STRATEGIES, HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.index.uniform import UniformGridIndex

BACKENDS = ("linear", "uniform", "hierarchical")

#: (origin, lattice step) pairs: an exact dyadic lattice, one whose
#: points are inexact decimals, and one far from the origin, where the
#: kernel's rounding is relative to large coordinates.
LATTICES = ((0.0, 1.0), (-0.3, 0.1), (4321.7, 0.35))


def build_index(backend, levels, granularity, extent):
    if backend == "linear":
        return LinearSegmentIndex()
    if backend == "uniform":
        return UniformGridIndex(extent, granularity=granularity)
    return HierarchicalGridIndex(extent, levels=levels)


def brute_force(live, q):
    """Every live segment as ``(sid, distance)``, in ``(distance, sid)``
    order, by the column kernel."""
    sids = sorted(live)
    distances = SegmentArray.from_pairs([live[sid] for sid in sids]).distances_to(q)
    ranked = sorted(zip(distances.tolist(), sids, strict=True))
    return [(sid, d) for d, sid in ranked]


class TestKnnContract:
    @settings(max_examples=200, deadline=None)
    @given(
        backend=st.sampled_from(BACKENDS),
        levels=st.integers(2, 10),
        granularity=st.sampled_from((1, 3, 8, 32, 64)),
        lattice=st.sampled_from(LATTICES),
        seed=st.integers(0, 10**6),
        k=st.integers(1, 40),
    )
    def test_knn_equals_iter_nearest_equals_brute_force(
        self, backend, levels, granularity, lattice, seed, k
    ):
        rng = random.Random(seed)
        origin, step = lattice

        def point(low, high):
            return (
                origin + step * rng.randrange(low, high),
                origin + step * rng.randrange(low, high),
            )

        # The extent covers lattice 0..10 with an edge that rounds
        # differently from the lattice values; some rows fall outside.
        extent = BBox(origin - 0.013 * step, origin - 0.007 * step,
                      origin + 10.029 * step, origin + 10.011 * step)
        index = build_index(backend, levels, granularity, extent)
        hubs = [point(0, 11) for _ in range(6)]
        shapes = []
        # Segments crossing the centre lines on three rows share a big
        # cell and tie in runs longer than a frontier sort block.
        for _ in range(2 * SORT_BLOCK + 1 + rng.randrange(SORT_BLOCK)):
            y = origin + step * rng.randrange(4, 7)
            shapes.append(((origin + step * rng.randrange(3, 5), y),
                           (origin + step * rng.randrange(6, 8), y)))
        for _ in range(60 + rng.randrange(120)):
            roll = rng.random()
            if roll < 0.5:  # spokes: many segments share a hub endpoint
                shapes.append((rng.choice(hubs), point(0, 11)))
            elif roll < 0.75:  # axis-aligned runs on cell edges
                a = point(0, 11)
                b = (a[0], origin + step * rng.randrange(0, 11))
                shapes.append((a, b) if rng.random() < 0.5 else (b, a))
            elif roll < 0.85:  # degenerate
                a = point(0, 11)
                shapes.append((a, a))
            else:  # partly or wholly outside the extent
                shapes.append((point(-4, 15), point(-4, 15)))
        live = {}
        for a, b in shapes:
            live[index.insert(a, b, owner="o")] = (a, b)
        queries = [point(-3, 14) for _ in range(6)] + rng.sample(hubs, 2)
        index.knn(queries[0], len(live))  # cache cell views before the churn
        for sid in rng.sample(sorted(live), len(live) // 3):
            a, b = live.pop(sid)
            index.remove(sid)
            if rng.random() < 0.7:
                live[index.insert(a, b, owner="o")] = (a, b)

        for q in queries:
            want = brute_force(live, q)
            assert index.knn(q, k) == want[:k]
            if isinstance(index, UniformGridIndex):
                continue
            assert list(index.iter_nearest(q)) == want
            assert index.knn_batch([q], k) == [want[:k]]
            if isinstance(index, HierarchicalGridIndex):
                for strategy in STRATEGIES:
                    assert index.knn(q, k, strategy=strategy) == want[:k]
