"""Spatial indexes for K-nearest trajectory-segment search.

Three families, mirroring the paper's efficiency study (Section V-C):

* :class:`repro.index.linear.LinearSegmentIndex` (and the list-based
  :func:`repro.index.search.linear_knn`) — brute-force scan baseline;
* :class:`repro.index.uniform.UniformGridIndex` — single-level grid (UG),
  a kNN search baseline only;
* :class:`repro.index.hierarchical.HierarchicalGridIndex` — the paper's
  multi-resolution grid with best-fit segment placement (Definition 11)
  and three search strategies: top-down (HGt), bottom-up (HGb), and the
  novel bottom-up-down of Algorithm 3 (HG+).

Segments are inserted and removed by id, and ``knn(q, k)`` returns the
``k`` segments with the smallest point-to-segment distance (Equation 3)
to the query point, ties broken by sid. The linear and hierarchical
indexes implement the whole :class:`~repro.index.base.SegmentIndex`
protocol the modification stages search (bulk inserts, incremental
``iter_nearest``, batched ``knn_batch``). The local stage gives each
trajectory a linear store. The global stage shares one linear store
below :data:`~repro.core.modification.MIN_SEGMENTS_FOR_GRID` segments
and the hierarchical grid at or above it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.index.base": ("IndexedSegment", "SegmentIndex"),
    "repro.index.hierarchical": ("HierarchicalGridIndex",),
    "repro.index.linear": ("LinearSegmentIndex",),
    "repro.index.uniform": ("UniformGridIndex",),
    "repro.index.search": ("linear_knn",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
