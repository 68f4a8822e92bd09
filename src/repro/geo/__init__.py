"""Geometry primitives shared across the library.

Everything in :mod:`repro` works in a local planar coordinate system
measured in metres, which matches how the paper treats distances (its
utility-loss definitions are plain Euclidean point-segment distances).
Helpers for converting latitude/longitude data into this plane live in
:mod:`repro.trajectory.io`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.geo.geometry": (
        "BBox", "point_distance", "point_segment_distance",
        "project_onto_segment", "segment_length",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
