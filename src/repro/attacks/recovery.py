"""The recovery attack: reconstructing original paths from anonymized data.

Section V-B3 of the paper: an attacker applies HMM map matching to the
*published* (anonymized) trajectories, hoping to recover the road paths
the original trajectories followed. The attack succeeds to the extent
the recovered routes coincide with the ground-truth routes.

:class:`RecoveryAttack` runs the matcher over a dataset and returns the
recovered edge sequences; scoring against ground truth lives in
:mod:`repro.metrics.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.hmm import HmmMapMatcher, MatchResult
from repro.datagen.road_network import RoadNetwork
from repro.trajectory.model import TrajectoryDataset


@dataclass(slots=True)
class RecoveryOutput:
    """Recovered routes for a dataset (positional, like the attack input)."""

    results: list[MatchResult] = field(default_factory=list)


class RecoveryAttack:
    """Map-matching-based trajectory recovery."""

    def __init__(
        self,
        network: RoadNetwork,
        sigma: float = 50.0,
        beta: float = 200.0,
        candidate_radius: float = 250.0,
        max_candidates: int = 5,
        max_points_per_trajectory: int | None = None,
    ) -> None:
        self.matcher = HmmMapMatcher(
            network,
            sigma=sigma,
            beta=beta,
            candidate_radius=candidate_radius,
            max_candidates=max_candidates,
        )
        self.max_points_per_trajectory = max_points_per_trajectory

    def run(self, dataset: TrajectoryDataset) -> RecoveryOutput:
        """Match every trajectory of ``dataset`` against the network.

        ``max_points_per_trajectory`` (when set) truncates long
        trajectories before matching, a standard efficiency measure that
        leaves the *rate* metrics unbiased.
        """
        output = RecoveryOutput()
        for trajectory in dataset:
            probe = trajectory
            if (
                self.max_points_per_trajectory is not None
                and len(trajectory) > self.max_points_per_trajectory
            ):
                probe = type(trajectory)(
                    trajectory.object_id,
                    trajectory.points[: self.max_points_per_trajectory],
                )
            output.results.append(self.matcher.match(probe))
        return output
