#!/usr/bin/env python
"""Index playground: the hierarchical grid and its search strategies.

Walks through the machinery behind Figure 5: builds the three index
backends over the same fleet, runs identical kNN workloads, and shows
wall-clock plus pruning-work numbers per strategy, ending with the
best-fit cell anatomy of one trajectory.

Run with::

    python examples/index_playground.py
"""

import time

from repro import FleetConfig, generate_fleet
from repro.core.signature import SignatureExtractor
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.index.uniform import UniformGridIndex


def main() -> None:
    fleet = generate_fleet(
        FleetConfig(n_objects=60, points_per_trajectory=200, rows=20, cols=20, seed=13)
    )
    dataset = fleet.dataset
    bbox = dataset.bbox().expand(10.0)

    print("== building indexes over", dataset.total_points(), "points ==")
    linear = LinearSegmentIndex()
    uniform = UniformGridIndex(bbox, granularity=512)
    hierarchical = HierarchicalGridIndex(bbox, levels=10)
    for trajectory in dataset:
        for _, a, b in trajectory.segments():
            linear.insert(a.coord, b.coord)
            uniform.insert(a.coord, b.coord)
            hierarchical.insert(a.coord, b.coord)
    print(f"segments: {len(linear)}  "
          f"hierarchical cells materialised: {hierarchical.cell_count()}")

    # The realistic query workload: the modification step searches for
    # the dataset's signature locations.
    queries = sorted(
        SignatureExtractor(m=5).extract(dataset).candidate_set
    )[:150]
    print(f"query workload: {len(queries)} signature locations, k=8\n")

    def bench(label, search, work=None):
        started = time.perf_counter()
        for q in queries:
            search(q)
        elapsed = time.perf_counter() - started
        extra = f"  work={work():,} distances" if work else ""
        print(f"  {label:<22s} {elapsed * 1000:8.1f} ms{extra}")

    print("== kNN search comparison ==")
    bench("linear scan", lambda q: linear.knn(q, 8),
          lambda: len(linear) * len(queries))
    bench("uniform grid (paper)", lambda q: uniform.knn(q, 8))
    for label, strategy in (
        ("HG top-down", "top_down"),
        ("HG bottom-up", "bottom_up"),
        ("HG bottom-up-down", "bottom_up_down"),
    ):
        checked = [0]

        def search(q, _s=strategy, _c=checked):
            hierarchical.knn(q, 8, strategy=_s)
            _c[0] += hierarchical.last_stats.segments_checked

        bench(label, search, lambda _c=checked: _c[0])

    print("\n== best-fit anatomy of one trajectory ==")
    trajectory = dataset[0]
    by_level = {}
    for _, a, b in trajectory.segments():
        level, _, _ = hierarchical.best_fit_cell(a.coord, b.coord)
        by_level[level] = by_level.get(level, 0) + 1
    for level in sorted(by_level):
        side = 2**level
        cell = bbox.width / side
        print(f"  level {level:>2d} ({side:>3d}x{side:<3d} grid, "
              f"~{cell:6.0f} m cells): {by_level[level]:4d} segments")
    print("\nShort segments (dwells) sink to fine levels; road-length")
    print("segments sit where the cell size matches their extent —")
    print("the structure Definition 11's best-fit rule creates.")


if __name__ == "__main__":
    main()
