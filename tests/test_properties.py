"""Deep property-based tests (hypothesis) for the core invariants.

These complement the per-module unit tests by exercising randomly
generated inputs against the properties the paper's correctness rests
on:

* editable trajectories keep their segment index exactly synchronised
  through arbitrary edit sequences;
* intra-trajectory modification realises *any* valid PF perturbation
  exactly;
* best-fit cell placement satisfies Definition 11;
* CSV round-trips preserve data;
* signature weights behave as the formula dictates.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.edits import EditableTrajectory
from repro.core.local_mechanism import PFPerturbation
from repro.core.modification import IntraTrajectoryModifier
from repro.core.signature import SignatureExtractor
from repro.geo.geometry import BBox
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.trajectory.io import read_csv, write_csv
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

coords_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    min_size=2,
    max_size=25,
)


def build_trajectory(coords, object_id="t"):
    return Trajectory(
        object_id,
        [Point(float(x) * 10, float(y) * 10, 60.0 * i) for i, (x, y) in enumerate(coords)],
    )


class TestEditableTrajectoryConsistency:
    """After any edit sequence: index contents == linked-list segments."""

    def check_consistency(self, editable):
        trajectory = editable.to_trajectory()
        expected_segments = sorted(
            (a.coord, b.coord) for _, a, b in trajectory.segments()
        )
        indexed = sorted(
            (editable.index.segment(sid).a, editable.index.segment(sid).b)
            for sid in editable._node_by_sid
        )
        assert indexed == expected_segments
        assert len(editable.index) == max(len(trajectory) - 1, 0)
        assert len(editable) == len(trajectory)

    @settings(max_examples=40, deadline=None)
    @given(coords=coords_strategy, seed=st.integers(0, 9999), n_ops=st.integers(1, 15))
    def test_random_edit_sequences(self, coords, seed, n_ops):
        rng = random.Random(seed)
        editable = EditableTrajectory(
            build_trajectory(coords), LinearSegmentIndex()
        )
        for _ in range(n_ops):
            op = rng.random()
            locations = sorted(editable._nodes_by_loc)
            if op < 0.4 and len(editable.index) > 0:
                # Insert a random location into its nearest segment.
                loc = (float(rng.randint(0, 40)) * 10, float(rng.randint(0, 40)) * 10)
                hits = editable.index.knn(loc, 1)
                editable.insert_into_segment(loc, hits[0][0])
            elif op < 0.7 and locations:
                loc = rng.choice(locations)
                editable.delete_cheapest(loc, rng.randint(1, 2))
            elif op < 0.9 and locations:
                loc = rng.choice(locations)
                editable.delete_all(loc)
            else:
                loc = (float(rng.randint(0, 40)) * 10, float(rng.randint(0, 40)) * 10)
                editable.append(loc)
            self.check_consistency(editable)

    @settings(max_examples=30, deadline=None)
    @given(coords=coords_strategy)
    def test_utility_loss_non_negative_monotone(self, coords):
        editable = EditableTrajectory(
            build_trajectory(coords), LinearSegmentIndex()
        )
        previous = 0.0
        for loc in sorted(editable._nodes_by_loc)[:5]:
            editable.delete_cheapest(loc, 1)
            assert editable.total_utility_loss >= previous - 1e-9
            previous = editable.total_utility_loss


class TestModificationRealisesPerturbations:
    @settings(max_examples=30, deadline=None)
    @given(
        coords=coords_strategy,
        seed=st.integers(0, 9999),
    )
    def test_arbitrary_pf_targets_satisfied(self, coords, seed):
        """Any target PF over existing locations is realised exactly."""
        trajectory = build_trajectory(coords)
        pf = trajectory.point_frequencies()
        rng = random.Random(seed)
        locations = sorted(pf)[:4]
        original = {loc: pf[loc] for loc in locations}
        perturbed = {loc: max(0, pf[loc] + rng.randint(-3, 3)) for loc in locations}
        perturbation = PFPerturbation(
            object_id="t",
            original=original,
            perturbed=perturbed,
            stage1_mean_noise=0.0,
            epsilon=1.0,
        )
        modifier = IntraTrajectoryModifier()
        modified, report = modifier.apply(trajectory, perturbation)
        new_pf = modified.point_frequencies()
        for loc, target in perturbed.items():
            assert new_pf.get(loc, 0) == target, loc
        assert report.utility_loss >= 0.0


class TestBestFitProperty:
    BOX = BBox(0.0, 0.0, 1024.0, 1024.0)

    @settings(max_examples=60, deadline=None)
    @given(
        ax=st.floats(0, 1023.9), ay=st.floats(0, 1023.9),
        bx=st.floats(0, 1023.9), by=st.floats(0, 1023.9),
    )
    def test_definition_11(self, ax, ay, bx, by):
        """Both endpoints share the best-fit cell; at the next finer
        level they do not (unless best-fit is already the finest)."""
        index = HierarchicalGridIndex(self.BOX, levels=6)
        level, ix, iy = index.best_fit_cell((ax, ay), (bx, by))

        def cell_at(level_, p):
            fx, fy = index._finest_coords(p)
            shift = index._finest - level_
            return (fx >> shift, fy >> shift)

        assert cell_at(level, (ax, ay)) == (ix, iy)
        assert cell_at(level, (bx, by)) == (ix, iy)
        if level < index._finest:
            finer_a = cell_at(level + 1, (ax, ay))
            finer_b = cell_at(level + 1, (bx, by))
            assert finer_a != finer_b

    @settings(max_examples=40, deadline=None)
    @given(ax=st.floats(0, 1023.9), ay=st.floats(0, 1023.9))
    def test_degenerate_segment_lands_at_finest(self, ax, ay):
        index = HierarchicalGridIndex(self.BOX, levels=6)
        level, _, _ = index.best_fit_cell((ax, ay), (ax, ay))
        assert level == index._finest


class TestCsvRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(-1e5, 1e5, allow_nan=False),
                st.floats(-1e5, 1e5, allow_nan=False),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_round_trip_preserves_everything(self, data, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("csv")
        points = [Point(x, y, float(i)) for i, (x, y) in enumerate(data)]
        dataset = TrajectoryDataset([Trajectory("obj", points)])
        target = tmp / "round.csv"
        write_csv(dataset, target)
        restored = read_csv(target)
        assert len(restored) == 1
        for p, q in zip(dataset[0], restored[0], strict=True):
            assert q.x == pytest.approx(p.x, abs=1e-3)
            assert q.y == pytest.approx(p.y, abs=1e-3)
            assert q.t == pytest.approx(p.t, abs=1e-3)


class TestSignatureWeightProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        coords_a=coords_strategy,
        coords_b=coords_strategy,
    )
    def test_weights_non_negative_and_shared_everywhere_is_zero(
        self, coords_a, coords_b
    ):
        ds = TrajectoryDataset(
            [build_trajectory(coords_a, "a"), build_trajectory(coords_b, "b")]
        )
        extractor = SignatureExtractor(m=3)
        tf = ds.trajectory_frequencies()
        for trajectory in ds:
            weights = extractor.weights(trajectory, tf, len(ds))
            for loc, weight in weights.items():
                assert weight >= 0.0
                if tf[loc] == len(ds):  # visited by everyone
                    assert weight == pytest.approx(0.0)

    @settings(max_examples=30, deadline=None)
    @given(coords=coords_strategy, m=st.integers(1, 8))
    def test_signature_size_bounded(self, coords, m):
        ds = TrajectoryDataset([build_trajectory(coords, "a")])
        extractor = SignatureExtractor(m=m)
        entries = extractor.signature_of(
            ds[0], ds.trajectory_frequencies(), len(ds)
        )
        assert len(entries) <= m
        weights = [e.weight for e in entries]
        assert weights == sorted(weights, reverse=True)


class TestBatchedKnnProperty:
    """knn_batch must agree with per-query knn on both indexes, for
    arbitrary segment sets and query batches (integer endpoints make
    exact distance ties frequent)."""

    segments_strategy = st.lists(
        st.tuples(
            st.integers(0, 30), st.integers(0, 30),
            st.integers(0, 30), st.integers(0, 30),
        ),
        min_size=1,
        max_size=40,
    )
    queries_strategy = st.lists(
        st.tuples(st.integers(-5, 35), st.integers(-5, 35)),
        min_size=1,
        max_size=6,
    )

    @staticmethod
    def build_index(backend):
        box = BBox(0.0, 0.0, 30.0, 30.0)
        return {
            "linear": lambda: LinearSegmentIndex(),
            "hierarchical": lambda: HierarchicalGridIndex(box, levels=5),
        }[backend]()

    @pytest.mark.parametrize("backend", ["linear", "hierarchical"])
    @settings(max_examples=25, deadline=None)
    @given(segments=segments_strategy, queries=queries_strategy, k=st.integers(1, 8))
    def test_knn_batch_agrees_with_knn(self, backend, segments, queries, k):
        index = self.build_index(backend)
        for ax, ay, bx, by in segments:
            index.insert((float(ax), float(ay)), (float(bx), float(by)))
        qs = [(float(x), float(y)) for x, y in queries]
        assert index.knn_batch(qs, k) == [index.knn(q, k) for q in qs]
