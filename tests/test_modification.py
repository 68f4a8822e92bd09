"""Tests for intra-/inter-trajectory modification.

The central invariant: after modification, the data *satisfies the
perturbed frequency distributions* (that is what carries the DP
guarantee to the published trajectories).
"""

import pytest

from repro.core.edits import EditableTrajectory
from repro.core.global_mechanism import TFPerturbation
from repro.core.local_mechanism import PFPerturbation
from repro.core import modification
from repro.core.modification import (
    InterTrajectoryModifier,
    IntraTrajectoryModifier,
    index_extent,
    nearest_live_segment_of_owner,
)
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.geo.geometry import BBox
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset


def traj(object_id, coords):
    return Trajectory(
        object_id,
        [Point(float(x), float(y), 60.0 * i) for i, (x, y) in enumerate(coords)],
    )


def pf_perturbation(object_id, original, perturbed):
    return PFPerturbation(
        object_id=object_id,
        original=original,
        perturbed=perturbed,
        stage1_mean_noise=0.0,
        epsilon=1.0,
    )


def hierarchical(levels):
    """An ``index_factory`` building a ``levels``-level grid."""
    return lambda extent: HierarchicalGridIndex(extent, levels=levels)


class TestIntraTrajectoryModifier:
    def make(self):
        return IntraTrajectoryModifier()

    def test_satisfies_perturbed_pf(self):
        trajectory = traj(
            "a", [(0, 0), (10, 0), (0, 0), (20, 0), (0, 0), (30, 0), (40, 0)]
        )
        perturbation = pf_perturbation(
            "a",
            original={(0.0, 0.0): 3, (10.0, 0.0): 1},
            perturbed={(0.0, 0.0): 1, (10.0, 0.0): 3},
        )
        modified, report = self.make().apply(trajectory, perturbation)
        pf = modified.point_frequencies()
        assert pf[(0.0, 0.0)] == 1
        assert pf[(10.0, 0.0)] == 3
        assert report.deletions == 2
        assert report.insertions == 2

    def test_untouched_locations_preserved(self):
        trajectory = traj("a", [(0, 0), (10, 0), (20, 0), (30, 0)])
        perturbation = pf_perturbation(
            "a", original={(0.0, 0.0): 1}, perturbed={(0.0, 0.0): 0}
        )
        modified, _ = self.make().apply(trajectory, perturbation)
        pf = modified.point_frequencies()
        for loc in [(10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]:
            assert pf[loc] == 1

    def test_no_change_for_identity_perturbation(self):
        trajectory = traj("a", [(0, 0), (10, 0), (20, 0)])
        perturbation = pf_perturbation(
            "a", original={(0.0, 0.0): 1}, perturbed={(0.0, 0.0): 1}
        )
        modified, report = self.make().apply(trajectory, perturbation)
        assert [p.coord for p in modified] == [p.coord for p in trajectory]
        assert report.utility_loss == 0.0

    def test_insertions_choose_near_segments(self):
        # Target location (5, 1) is 1m from segment <(0,0),(10,0)> but
        # far from the distant tail segments.
        trajectory = traj(
            "a", [(0, 0), (10, 0), (1000, 1000), (2000, 2000), (5, 1)]
        )
        perturbation = pf_perturbation(
            "a", original={(5.0, 1.0): 1}, perturbed={(5.0, 1.0): 2}
        )
        modified, report = self.make().apply(trajectory, perturbation)
        assert modified.point_frequencies()[(5.0, 1.0)] == 2
        assert report.utility_loss <= 2.0  # near-segment insertion

    def test_empty_trajectory(self):
        perturbation = pf_perturbation("a", original={}, perturbed={})
        modified, report = self.make().apply(Trajectory("a"), perturbation)
        assert len(modified) == 0
        assert report.utility_loss == 0.0

    def test_original_not_mutated(self):
        trajectory = traj("a", [(0, 0), (10, 0), (0, 0)])
        perturbation = pf_perturbation(
            "a", original={(0.0, 0.0): 2}, perturbed={(0.0, 0.0): 0}
        )
        self.make().apply(trajectory, perturbation)
        assert len(trajectory) == 3


class TestInterTrajectoryModifier:
    def make_dataset(self):
        return TrajectoryDataset(
            [
                traj("a", [(0, 0), (10, 0), (20, 0), (30, 0)]),
                traj("b", [(0, 100), (10, 100), (20, 100)]),
                traj("c", [(0, 200), (10, 200), (20, 200), (10, 200)]),
                traj("d", [(5, 0), (15, 0), (25, 0)]),
            ]
        )

    def make(self):
        return InterTrajectoryModifier(hierarchical(6))

    def test_tf_increase_inserts_into_nearest_missing_trajectories(self):
        dataset = self.make_dataset()
        loc = (10.0, 0.0)  # present only in trajectory a
        perturbation = TFPerturbation(
            original={loc: 1}, perturbed={loc: 3}, epsilon=1.0
        )
        modified, report = self.make().apply(dataset, perturbation)
        tf = modified.trajectory_frequencies()
        assert tf[loc] == 3
        assert report.insertions == 2
        # Trajectory d runs along y=0 so it must be one of the targets;
        # b (y=100) is the second nearest; far-away c (y=200) must lose.
        assert modified.by_id("d").point_frequencies()[loc] >= 1
        assert modified.by_id("c").point_frequencies()[loc] == 0

    def test_tf_decrease_removes_all_occurrences(self):
        dataset = TrajectoryDataset(
            [
                traj("a", [(0, 0), (50, 50), (0, 0), (60, 60)]),
                traj("b", [(0, 0), (70, 70)]),
                traj("c", [(80, 80), (0, 0), (90, 90)]),
            ]
        )
        loc = (0.0, 0.0)
        perturbation = TFPerturbation(
            original={loc: 3}, perturbed={loc: 1}, epsilon=1.0
        )
        modified, report = self.make().apply(dataset, perturbation)
        tf = modified.trajectory_frequencies()
        assert tf[loc] == 1
        # The remaining trajectory keeps *all* its occurrences.
        keeper = [t for t in modified if t.point_frequencies()[loc] > 0]
        assert len(keeper) == 1

    def test_identity_perturbation_changes_nothing(self):
        dataset = self.make_dataset()
        loc = (10.0, 0.0)
        perturbation = TFPerturbation(
            original={loc: 1}, perturbed={loc: 1}, epsilon=1.0
        )
        modified, report = self.make().apply(dataset, perturbation)
        assert report.utility_loss == 0.0
        for original, new in zip(dataset, modified, strict=True):
            assert [p.coord for p in original] == [p.coord for p in new]

    def test_unrealisable_increase_reported(self):
        dataset = TrajectoryDataset([traj("a", [(0, 0), (10, 0)])])
        loc = (0.0, 0.0)
        # Asking TF=2 with only one trajectory (which already contains it).
        perturbation = TFPerturbation(
            original={loc: 1}, perturbed={loc: 2}, epsilon=1.0
        )
        _, report = self.make().apply(dataset, perturbation)
        assert report.unrealised >= 1

    def test_multiple_locations_processed(self):
        dataset = self.make_dataset()
        loc_up = (10.0, 100.0)  # in b only
        loc_down = (10.0, 200.0)  # in c only
        perturbation = TFPerturbation(
            original={loc_up: 1, loc_down: 1},
            perturbed={loc_up: 2, loc_down: 0},
            epsilon=1.0,
        )
        modified, _ = self.make().apply(dataset, perturbation)
        tf = modified.trajectory_frequencies()
        assert tf[loc_up] == 2
        assert tf.get(loc_down, 0) == 0

    def test_empty_dataset(self):
        perturbation = TFPerturbation(original={}, perturbed={}, epsilon=1.0)
        modified, report = self.make().apply(TrajectoryDataset(), perturbation)
        assert len(modified) == 0
        assert report.utility_loss == 0.0

    def test_original_not_mutated(self):
        dataset = self.make_dataset()
        loc = (10.0, 0.0)
        perturbation = TFPerturbation(
            original={loc: 1}, perturbed={loc: 0}, epsilon=1.0
        )
        self.make().apply(dataset, perturbation)
        assert dataset.by_id("a").point_frequencies()[loc] == 1


class TestIndexExtent:
    """The bbox margin must scale with the data, not with a fixed unit.

    Regression for the old flat ``_BBOX_MARGIN = 10.0``: on a
    lat/lon-degree-scale dataset a 10-unit margin inflated the extent
    ~100x per side, so every grid level collapsed onto a handful of
    cells and kNN degenerated to a linear scan.
    """

    def test_margin_is_relative_on_degree_scale_data(self):
        bbox = BBox(116.3, 39.9, 116.5, 40.1)  # Beijing-ish, degrees
        extent = index_extent(bbox)
        assert extent.contains_bbox(bbox)
        # Old behaviour: width jumped from 0.2 to 20.2. New: ~2 %.
        assert extent.width < 1.1 * bbox.width
        assert extent.height < 1.1 * bbox.height

    def test_margin_is_relative_on_metre_scale_data(self):
        bbox = BBox(0.0, 0.0, 10_000.0, 10_000.0)
        extent = index_extent(bbox)
        assert extent.contains_bbox(bbox)
        assert extent.width < 1.1 * bbox.width

    def test_degenerate_bbox_gets_positive_extent(self):
        extent = index_extent(BBox(5.0, 5.0, 5.0, 5.0))
        assert extent.width > 0.0
        assert extent.height > 0.0

    def test_grid_resolution_preserved_on_degree_scale(self):
        """Nearby-but-distinct points must resolve to distinct cells.

        Two points 1 % of the data extent apart: with the relative
        margin they map to different finest-level cells; under the old
        flat 10-unit margin the whole dataset collapsed onto a handful
        of cells and they became indistinguishable.
        """
        bbox = BBox(116.3, 39.9, 116.5, 40.1)
        p1 = (116.4, 40.0)
        p2 = (116.402, 40.0)
        index = HierarchicalGridIndex(index_extent(bbox), levels=10)
        assert index._finest_coords(p1) != index._finest_coords(p2)
        inflated = HierarchicalGridIndex(bbox.expand(10.0), levels=10)
        assert inflated._finest_coords(p1) == inflated._finest_coords(p2)


class TestInterTrajectoryModifierEdgeCases:
    def make(self, **kwargs):
        return InterTrajectoryModifier(hierarchical(6), **kwargs)

    def test_increase_with_fewer_eligible_owners_than_delta(self):
        """Δl = 4 but only two trajectories can accept the location."""
        loc = (10.0, 0.0)
        dataset = TrajectoryDataset(
            [
                traj("has", [(0, 0), (10, 0), (20, 0)]),  # already contains loc
                traj("a", [(0, 50), (20, 50)]),
                traj("b", [(0, 90), (20, 90)]),
            ]
        )
        perturbation = TFPerturbation(
            original={loc: 1}, perturbed={loc: 5}, epsilon=1.0
        )
        modified, report = self.make().apply(dataset, perturbation)
        assert report.insertions == 2
        assert report.unrealised == 2
        assert modified.trajectory_frequencies()[loc] == 3

    def test_vanished_segment_falls_back_to_live_segment(self):
        """A stale sid (owner matches, segment gone from the editable)
        must be replaced by the owner's nearest *live* segment, never
        re-selected from the shared index."""
        modifier = self.make()
        dataset = TrajectoryDataset(
            [
                traj("a", [(0, 100), (20, 100)]),
                traj("b", [(0, 200), (20, 200)]),
            ]
        )
        shared = modifier.index_factory(index_extent(dataset.bbox()))
        editables = {
            t.object_id: EditableTrajectory(t, shared) for t in dataset
        }
        loc = (10.0, 0.0)
        # Phantom: registered in the shared index under owner "a" but
        # unknown to a's editable — and nearer to loc than anything real.
        phantom = shared.insert((0.0, 0.0), (20.0, 0.0), owner="a")
        assert not editables["a"].node_for_segment(phantom)
        report = modifier._insert_into_nearest_trajectories(
            shared, editables, loc, 1, ineligible=set()
        )
        assert report.insertions == 1
        assert report.unrealised == 0
        assert editables["a"].contains(loc)

    def test_nearest_segment_of_owner_skips_stale_sids(self):
        modifier = self.make()
        dataset = TrajectoryDataset([traj("a", [(0, 100), (20, 100)])])
        shared = modifier.index_factory(index_extent(dataset.bbox()))
        editable = EditableTrajectory(dataset[0], shared)
        phantom = shared.insert((0.0, 0.0), (20.0, 0.0), owner="a")
        found = nearest_live_segment_of_owner(shared, (10.0, 0.0), editable)
        assert found is not None
        assert found != phantom
        assert editable.node_for_segment(found)

    def test_nearest_segment_of_owner_without_live_segments(self):
        modifier = self.make()
        dataset = TrajectoryDataset([traj("a", [(0, 100), (20, 100)])])
        shared = modifier.index_factory(index_extent(dataset.bbox()))
        editable = EditableTrajectory(dataset[0], shared)
        editable.detach()
        assert nearest_live_segment_of_owner(shared, (10.0, 0.0), editable) is None

    def test_rejects_unknown_candidate_source(self):
        with pytest.raises(ValueError):
            InterTrajectoryModifier(candidate_source="oracle")

    def test_rejects_unknown_strategy(self):
        """The modifier takes no search strategy any more."""
        with pytest.raises(TypeError, match="'strategy'"):
            InterTrajectoryModifier(strategy="foo")

    def test_default_index_is_the_paper_grid(self, monkeypatch):
        """Without the test seam, a fleet of at least
        ``MIN_SEGMENTS_FOR_GRID`` segments (here exactly that many) is
        searched through the paper's hierarchical grid with a 512x512
        finest level."""
        monkeypatch.setattr(modification, "MIN_SEGMENTS_FOR_GRID", 1)
        dataset = TrajectoryDataset([traj("a", [(0, 0), (100, 100)])])
        index = InterTrajectoryModifier().shared_index(dataset)
        assert isinstance(index, HierarchicalGridIndex)
        assert index.levels == 10
        assert index.bbox == index_extent(dataset.bbox())


class TestSharedIndexRule:
    """The global stage picks its shared index from the fleet's segment
    count: the flat scan below ``MIN_SEGMENTS_FOR_GRID``, the paper's
    10-level grid at or above it (``test_default_index_is_the_paper_grid``
    above). The wave planner always gets the grid, and a passed
    ``index_factory`` always wins."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(
            FleetConfig(
                n_objects=6, points_per_trajectory=20, rows=6, cols=6, seed=3
            )
        ).dataset

    @staticmethod
    def segments(dataset):
        return dataset.total_points() - len(dataset)

    def index_for(self, fleet, monkeypatch, threshold, **kwargs):
        monkeypatch.setattr(modification, "MIN_SEGMENTS_FOR_GRID", threshold)
        return InterTrajectoryModifier(**kwargs).shared_index(fleet)

    def test_flat_scan_below_the_constant(self, fleet, monkeypatch):
        index = self.index_for(fleet, monkeypatch, self.segments(fleet) + 1)
        assert isinstance(index, LinearSegmentIndex)
        assert len(index) == 0

    @pytest.mark.parametrize("offset", [0, 1], ids=["at", "below"])
    def test_wave_always_gets_the_grid(self, fleet, monkeypatch, offset):
        index = self.index_for(
            fleet,
            monkeypatch,
            self.segments(fleet) + offset,
            candidate_source="wave",
        )
        assert isinstance(index, HierarchicalGridIndex)
        assert index.levels == 10

    @pytest.mark.parametrize("offset", [0, 1], ids=["at", "below"])
    @pytest.mark.parametrize("source", ["incremental", "wave"])
    def test_passed_factory_wins(self, fleet, monkeypatch, offset, source):
        grid = self.index_for(
            fleet,
            monkeypatch,
            self.segments(fleet) + offset,
            index_factory=hierarchical(3),
            candidate_source=source,
        )
        assert isinstance(grid, HierarchicalGridIndex)
        assert grid.levels == 3
        flat = InterTrajectoryModifier(
            lambda extent: LinearSegmentIndex(), candidate_source=source
        ).shared_index(fleet)
        assert isinstance(flat, LinearSegmentIndex)

    def test_apply_searches_the_chosen_index(self, fleet, monkeypatch):
        """``apply`` runs the stage over the index the rule picks, and
        both sides of the constant give the same trajectories and
        report."""
        tf = fleet.trajectory_frequencies()
        locations = sorted(tf)
        perturbed = {loc: tf[loc] + 2 for loc in locations[:6]}
        perturbed.update({loc: tf[loc] - 1 for loc in locations[6:12]})
        perturbation = TFPerturbation(
            original={loc: tf[loc] for loc in perturbed},
            perturbed=perturbed,
            epsilon=1.0,
        )
        built = []
        real = InterTrajectoryModifier.shared_index

        def spy(self, dataset):
            built.append(real(self, dataset))
            return built[-1]

        monkeypatch.setattr(InterTrajectoryModifier, "shared_index", spy)
        outcomes = []
        for threshold in (self.segments(fleet) + 1, self.segments(fleet)):
            monkeypatch.setattr(
                modification, "MIN_SEGMENTS_FOR_GRID", threshold
            )
            out, report = InterTrajectoryModifier().apply(fleet, perturbation)
            outcomes.append(
                (
                    [[(p.x, p.y, p.t) for p in t] for t in out],
                    (report.utility_loss, report.insertions, report.deletions),
                )
            )
        assert [type(index) for index in built] == [
            LinearSegmentIndex,
            HierarchicalGridIndex,
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1][1] > 0 and outcomes[0][1][2] > 0


class TestBBoxPrunedSelection:
    """The bounding-box selection (the paper's future work) is retired:
    TF increases always scan the shared index."""

    def test_rejects_unknown_selection(self):
        with pytest.raises(TypeError, match="'trajectory_selection'"):
            InterTrajectoryModifier(trajectory_selection="bbox")
