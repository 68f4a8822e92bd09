"""Spatial indexes for K-nearest trajectory-segment search.

Three families, mirroring the paper's efficiency study (Section V-C):

* :func:`repro.index.search.linear_knn` — brute-force scan baseline;
* :class:`repro.index.uniform.UniformGridIndex` — single-level grid (UG);
* :class:`repro.index.hierarchical.HierarchicalGridIndex` — the paper's
  multi-resolution grid with best-fit segment placement (Definition 11)
  and three search strategies: top-down (HGt), bottom-up (HGb), and the
  novel bottom-up-down of Algorithm 3 (HG+).

All indexes share the same protocol: segments are inserted and removed
by id, and ``knn(q, k)`` returns the ``k`` segments with the smallest
point-to-segment distance (Equation 3) to the query point.
"""

from repro.index.base import IndexedSegment, SegmentIndex
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.index.rtree import RTreeIndex
from repro.index.uniform import UniformGridIndex
from repro.index.search import linear_knn

__all__ = [
    "HierarchicalGridIndex",
    "IndexedSegment",
    "LinearSegmentIndex",
    "RTreeIndex",
    "SegmentIndex",
    "UniformGridIndex",
    "linear_knn",
]
