"""Synthetic data substrate: road network + T-Drive-like taxi fleet.

The paper evaluates on T-Drive (10,357 Beijing taxis, one week). That
dataset is not redistributable here, so this package builds the closest
synthetic equivalent: a planar road network and a fleet generator whose
output reproduces the *structure* the paper's mechanisms exploit —
per-object anchor locations (high PF, low TF signatures), shared
hotspots (high TF), road-constrained movement (so map-matching recovery
is meaningful), and T-Drive's scale knobs (~600 m point spacing, ~3.1
minute sampling interval, ~1.8k points per object).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.datagen.road_network": ("RoadNetwork", "build_road_network"),
    "repro.datagen.generator": ("FleetConfig", "generate_fleet"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
