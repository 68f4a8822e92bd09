"""Trajectory data model, I/O, distances, and processing operations."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.trajectory.model": (
        "LocationKey", "Point", "Trajectory", "TrajectoryDataset",
    ),
    "repro.trajectory.ops": (
        "detect_dwells", "resample", "simplify", "sliding_windows",
        "split_trips",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
