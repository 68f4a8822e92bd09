"""Tests for signature extraction (PF/TF weights, top-m, candidate set)."""

import random
from collections import Counter

import pytest

from repro.core.signature import (
    SignatureExtractor,
    SignatureIndex,
    select_perturbation_targets,
)
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset


def traj(object_id, coords):
    return Trajectory(
        object_id,
        [Point(float(x), float(y), 60.0 * i) for i, (x, y) in enumerate(coords)],
    )


@pytest.fixture
def dataset():
    """Three users; (0,0) is a shared hotspot, each has a private home.

    User a's home (1,1) is visited 3 times; user b's home (2,2) twice;
    user c never dwells anywhere private.
    """
    return TrajectoryDataset(
        [
            traj("a", [(1, 1), (0, 0), (1, 1), (5, 5), (1, 1)]),
            traj("b", [(2, 2), (0, 0), (2, 2), (6, 6)]),
            traj("c", [(0, 0), (7, 7), (8, 8)]),
        ]
    )


class TestSignatureExtractor:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            SignatureExtractor(m=0)

    def test_weights_favor_private_frequent_locations(self, dataset):
        extractor = SignatureExtractor(m=2)
        tf = dataset.trajectory_frequencies()
        weights = extractor.weights(dataset[0], tf, len(dataset))
        # Home (1,1): PF=3, TF=1 -> strongly weighted.
        # Hotspot (0,0): TF=3 = |D| -> log(1) = 0 weight.
        assert weights[(1.0, 1.0)] > weights[(5.0, 5.0)]
        assert weights[(0.0, 0.0)] == pytest.approx(0.0)

    def test_signature_of_orders_by_weight(self, dataset):
        extractor = SignatureExtractor(m=2)
        tf = dataset.trajectory_frequencies()
        entries = extractor.signature_of(dataset[0], tf, len(dataset))
        assert entries[0].loc == (1.0, 1.0)
        assert entries[0].point_frequency == 3
        assert entries[0].trajectory_frequency == 1
        assert len(entries) == 2
        assert entries[0].weight >= entries[1].weight

    def test_signature_shorter_than_m_for_tiny_trajectory(self):
        extractor = SignatureExtractor(m=10)
        ds = TrajectoryDataset([traj("a", [(0, 0), (1, 1)])])
        tf = ds.trajectory_frequencies()
        entries = extractor.signature_of(ds[0], tf, 1)
        assert len(entries) == 2

    def test_empty_trajectory(self):
        extractor = SignatureExtractor(m=3)
        assert extractor.weights(Trajectory("x"), Counter(), 1) == {}

    def test_extract_builds_candidate_set(self, dataset):
        index = SignatureExtractor(m=2).extract(dataset)
        assert index.m == 2
        assert set(index.signatures) == {"a", "b", "c"}
        # Every signature location must be in P.
        for entries in index.signatures.values():
            for entry in entries:
                assert entry.loc in index.candidate_set
        assert index.dimensionality == len(index.candidate_set)
        # TF restricted to P matches the dataset TF.
        tf = dataset.trajectory_frequencies()
        for loc, value in index.tf.items():
            assert value == tf[loc]

    def test_dimensionality_bounded_by_m_times_n(self, dataset):
        index = SignatureExtractor(m=2).extract(dataset)
        assert index.dimensionality <= 2 * len(dataset)

    def test_deterministic(self, dataset):
        a = SignatureExtractor(m=2).extract(dataset)
        b = SignatureExtractor(m=2).extract(dataset)
        assert a.signatures == b.signatures

    def test_signature_locations_helper(self, dataset):
        index = SignatureExtractor(m=2).extract(dataset)
        locs = index.signature_locations("a")
        assert locs[0] == (1.0, 1.0)


class TestSelectPerturbationTargets:
    def test_signature_first(self, dataset):
        index = SignatureExtractor(m=2).extract(dataset)
        rng = random.Random(0)
        targets = select_perturbation_targets(
            dataset[0], index.signatures["a"], index.candidate_set, 2, rng
        )
        assert targets[0] == (1.0, 1.0)
        assert len(targets) <= 4
        assert len(set(targets)) == len(targets)  # no duplicates

    def test_prefers_candidate_set_members(self):
        # Build a dataset where user a's trajectory contains user b's
        # signature location (3,3), which therefore sits in P.
        ds = TrajectoryDataset(
            [
                traj("a", [(1, 1), (1, 1), (3, 3), (4, 4), (5, 5)]),
                traj("b", [(3, 3), (3, 3), (3, 3), (9, 9)]),
                traj("c", [(8, 8), (8, 8), (6, 6)]),
            ]
        )
        index = SignatureExtractor(m=1).extract(ds)
        assert (3.0, 3.0) in index.candidate_set
        rng = random.Random(0)
        targets = select_perturbation_targets(
            ds[0], index.signatures["a"], index.candidate_set, 1, rng
        )
        assert len(targets) == 2
        assert targets[0] == (1.0, 1.0)  # own signature first
        assert targets[1] == (3.0, 3.0)  # then trajectory locations in P

    def test_caps_at_distinct_locations(self):
        ds = TrajectoryDataset([traj("a", [(0, 0), (0, 0), (1, 1)])])
        index = SignatureExtractor(m=5).extract(ds)
        rng = random.Random(0)
        targets = select_perturbation_targets(
            ds[0], index.signatures["a"], index.candidate_set, 5, rng
        )
        assert len(targets) == 2  # only two distinct locations exist

    def test_deterministic_given_seed(self, dataset):
        index = SignatureExtractor(m=2).extract(dataset)
        t1 = select_perturbation_targets(
            dataset[0], index.signatures["a"], index.candidate_set, 2, random.Random(9)
        )
        t2 = select_perturbation_targets(
            dataset[0], index.signatures["a"], index.candidate_set, 2, random.Random(9)
        )
        assert t1 == t2


class TestOnePassExtraction:
    """``extract`` reads each trajectory's locations once; the index it
    builds must equal the per-trajectory, multi-pass definition."""

    @staticmethod
    def reference(extractor, dataset, tf=None):
        if tf is None:
            tf = dataset.trajectory_frequencies()
        signatures = {
            t.object_id: extractor.signature_of(t, tf, len(dataset)) for t in dataset
        }
        candidate_set = {e.loc for entries in signatures.values() for e in entries}
        return SignatureIndex(
            m=extractor.m,
            signatures=signatures,
            candidate_set=candidate_set,
            tf={loc: tf[loc] for loc in candidate_set},
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_multi_pass_definition(self, seed):
        dataset = generate_fleet(
            FleetConfig(n_objects=30, points_per_trajectory=60, rows=10, cols=10,
                        seed=seed)
        ).dataset
        for m in (1, 3, 10):
            extractor = SignatureExtractor(m=m)
            assert extractor.extract(dataset) == self.reference(extractor, dataset)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_with_publisher_tf(self, seed):
        """The publisher passes the whole stream's TF with each chunk."""
        dataset = generate_fleet(
            FleetConfig(n_objects=30, points_per_trajectory=60, rows=10, cols=10,
                        seed=seed)
        ).dataset
        tf = dataset.trajectory_frequencies()
        chunk = TrajectoryDataset(list(dataset)[:12])
        extractor = SignatureExtractor(m=5)
        assert extractor.extract(chunk, tf=tf) == self.reference(extractor, chunk, tf)
