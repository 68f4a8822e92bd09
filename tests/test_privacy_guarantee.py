"""Empirical differential-privacy checks for the mechanisms.

These tests verify the *definition* (Definition 1) directly: for
adjacent inputs x, x' and any output z,
``P[M(x) = z] <= e^eps * P[M(x') = z]``. We estimate output
distributions over many runs and assert the ratio bound (with sampling
slack) for:

* the global TF mechanism on two datasets differing in one trajectory;
* the local PF mechanism on two trajectories differing in one point
  (the adjacency notion of Theorem 3);
* the non-zero-mean Laplace mechanism in isolation at several means —
  the load-bearing claim of Theorem 2.
"""

import math
import random
from collections import Counter

import pytest

from repro.core.global_mechanism import GlobalTFMechanism
from repro.core.laplace import LaplaceMechanism
from repro.core.local_mechanism import LocalPFMechanism
from repro.core.signature import SignatureExtractor
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

RUNS = 40_000
#: Slack multiplier for sampling error on the e^eps bound.
SLACK = 1.2
#: Ignore output buckets whose probability is below this (noise).
MIN_MASS = 0.01


def traj(object_id, coords):
    return Trajectory(
        object_id,
        [Point(float(x), float(y), 60.0 * i) for i, (x, y) in enumerate(coords)],
    )


def assert_ratio_bound(hist_x: Counter, hist_y: Counter, epsilon: float, n: int):
    bound = math.exp(epsilon) * SLACK
    checked = 0
    for z in set(hist_x) | set(hist_y):
        px = hist_x.get(z, 0) / n
        py = hist_y.get(z, 0) / n
        if min(px, py) < MIN_MASS:
            continue
        checked += 1
        assert px <= bound * py, (z, px, py)
        assert py <= bound * px, (z, px, py)
    assert checked > 0, "no overlapping mass to check — test is vacuous"


class TestNonZeroMeanLaplace:
    """Theorem 2: a shifted mean does not weaken the guarantee."""

    @pytest.mark.parametrize("mu", (-5.0, -1.0, 3.0))
    def test_ratio_bound_various_means(self, mu):
        epsilon = 1.0
        mech = LaplaceMechanism(epsilon)
        rng = random.Random(17)
        hist_x: Counter = Counter()
        hist_y: Counter = Counter()
        for _ in range(RUNS):
            hist_x[mech.perturb_count(4, rng, mu=mu, lower=0, upper=30)] += 1
            hist_y[mech.perturb_count(5, rng, mu=mu, lower=0, upper=30)] += 1
        assert_ratio_bound(hist_x, hist_y, epsilon, RUNS)


class TestGlobalMechanismAdjacency:
    """Algorithm 1 on datasets differing in exactly one trajectory."""

    def test_tf_output_distribution_bounded(self):
        epsilon = 1.0
        # The probe location is visited by 3 trajectories in D and by
        # 4 in D' (adjacent: D' adds one trajectory through it).
        probe = (0.0, 0.0)
        mech = GlobalTFMechanism(epsilon)
        rng = random.Random(23)
        hist_x: Counter = Counter()
        hist_y: Counter = Counter()
        for _ in range(RUNS):
            hist_x[
                mech.perturb({probe: 3}, dataset_size=10, rng=rng).perturbed[probe]
            ] += 1
            hist_y[
                mech.perturb({probe: 4}, dataset_size=10, rng=rng).perturbed[probe]
            ] += 1
        assert_ratio_bound(hist_x, hist_y, epsilon, RUNS)


class TestLocalMechanismAdjacency:
    """Theorem 3: Algorithm 2 on trajectories differing in one point."""

    def _perturbed_vector(self, mech, trajectory, index, rng):
        result = mech.perturb_trajectory(trajectory, index, rng)
        return tuple(sorted(result.perturbed.items()))

    def test_pf_output_distribution_bounded(self):
        epsilon = 1.0
        # Adjacent trajectories: tau' has one extra occurrence of the
        # signature location (1,1). Use a 2-location world so the full
        # output vector is enumerable.
        base = [(1, 1), (1, 1), (2, 2), (1, 1), (2, 2)]
        ds_x = TrajectoryDataset([traj("a", base)])
        ds_y = TrajectoryDataset([traj("a", base + [(1, 1)])])
        mech = LocalPFMechanism(epsilon=epsilon, m=1)
        rng = random.Random(31)
        hist_x: Counter = Counter()
        hist_y: Counter = Counter()
        index_x = SignatureExtractor(m=1).extract(ds_x)
        index_y = SignatureExtractor(m=1).extract(ds_y)
        for _ in range(RUNS // 2):
            hist_x[self._perturbed_vector(mech, ds_x[0], index_x, rng)] += 1
            hist_y[self._perturbed_vector(mech, ds_y[0], index_y, rng)] += 1
        assert_ratio_bound(hist_x, hist_y, epsilon, RUNS // 2)

    def test_total_epsilon_composition_bound(self):
        """GL's advertised budget equals the sum of its stages' budgets
        and its ledger, capped at that budget, blocks anything beyond
        it."""
        from repro.core.pipeline import GL

        base = [(1, 1), (1, 1), (2, 2), (1, 1), (2, 2)]
        dataset = TrajectoryDataset(
            [traj("a", base), traj("b", base[::-1])]
        )
        _, report = GL(epsilon=1.0, signature_size=1, seed=3).anonymize_with_report(
            dataset
        )
        ledger = report.accounting
        assert ledger.budget == 1.0
        assert [draw.epsilon for draw in ledger.draws] == [0.5, 0.5]
        assert ledger.epsilon_total == report.epsilon_total == 1.0
        with pytest.raises(ValueError, match="over its budget"):
            ledger.record("extra", 0.01)
