"""repro — Frequency-based randomization for DP spatial trajectory publishing.

A reproduction of Jin, Hua, Ruan, Zhou, *"Frequency-based Randomization
for Guaranteeing Differential Privacy in Spatial Trajectories"* (ICDE
2022), including the signature-based DP mechanisms, trajectory
modification machinery, hierarchical grid index, every baseline the
paper compares against, the attack models it evaluates with, and a
synthetic T-Drive-like data substrate.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.trajectory.model": ("Point", "Trajectory", "TrajectoryDataset"),
    "repro.datagen.generator": (
        "FleetConfig", "FleetResult", "generate_fleet",
    ),
    "repro.datagen.road_network": ("RoadNetwork", "build_road_network"),
    "repro.core.pipeline": ("GL", "FrequencyAnonymizer", "PureG", "PureL"),
    "repro.api.spec": ("MethodSpec",),
    "repro.api.session": ("RunResult", "publish", "run"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"
