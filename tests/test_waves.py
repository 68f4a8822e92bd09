"""Wave-parallel global stage: planner/executor correctness.

The load-bearing property: for any dataset, TF perturbation, and shared
index (the hierarchical grid or the brute-force linear scan),
``candidate_source="wave"`` must produce output **byte
identical** to the serial per-location reference
(``candidate_source="incremental"``) — point sequences, timestamps, and
report tallies. Hypothesis drives datasets onto a small integer lattice
so exact distance ties (the classic wave-reordering hazard) are common.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cross_backend_bytes import (
    FACTORIES,
    churned_factory,
    lattice_fleet,
    random_perturbation,
    report_key,
    snapshot,
)

from repro.core.edits import EditableTrajectory
from repro.core.global_mechanism import TFPerturbation
from repro.core.modification import InterTrajectoryModifier, index_extent
from repro.core.waves import WavePlanner, WaveStats, _CreatedGeometry
from repro.index.linear import LinearSegmentIndex
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

BACKENDS = tuple(FACTORIES)


def apply_source(dataset, perturbation, backend, source, factory=None):
    modifier = InterTrajectoryModifier(
        factory or FACTORIES[backend],
        candidate_source=source,
    )
    copy = TrajectoryDataset([t.copy() for t in dataset])
    out, report = modifier.apply(copy, perturbation)
    return modifier, out, report


class TestWaveByteIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identical_to_serial_reference(self, backend, seed):
        rng = random.Random(seed)
        dataset = lattice_fleet(rng, rng.randint(2, 8), 8)
        perturbation = random_perturbation(rng, dataset)
        _, serial_out, serial_report = apply_source(
            dataset, perturbation, backend, "incremental"
        )
        modifier, wave_out, wave_report = apply_source(
            dataset, perturbation, backend, "wave"
        )
        assert snapshot(wave_out) == snapshot(serial_out)
        assert report_key(wave_report) == report_key(serial_report)
        stats = modifier.last_wave_stats
        assert stats is not None and stats.operations > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identical_after_same_cell_churn(self, backend, seed):
        """Wave and serial runs on pre-churned indexes (see
        :func:`churned_factory`) equal the serial run on a fresh one."""
        rng = random.Random(seed)
        dataset = lattice_fleet(rng, rng.randint(2, 8), 8)
        perturbation = random_perturbation(rng, dataset)
        _, fresh_out, fresh_report = apply_source(
            dataset, perturbation, backend, "incremental"
        )
        factory = churned_factory(backend, dataset, seed)
        for source in ("incremental", "wave"):
            _, out, report = apply_source(
                dataset, perturbation, backend, source, factory=factory
            )
            assert snapshot(out) == snapshot(fresh_out)
            assert report_key(report) == report_key(fresh_report)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fleet_scale_identity(self, backend):
        """One generator-produced fleet per backend, beyond the tiny
        lattice examples."""
        from repro.core.signature import SignatureExtractor
        from repro.datagen.generator import FleetConfig, generate_fleet
        from repro.core.global_mechanism import GlobalTFMechanism

        fleet = generate_fleet(
            FleetConfig(
                n_objects=20, points_per_trajectory=60, rows=12, cols=12,
                n_hotspots=8, seed=5,
            )
        )
        index = SignatureExtractor(m=4).extract(fleet.dataset)
        perturbation = GlobalTFMechanism(0.5).perturb(
            index.tf, len(fleet.dataset), random.Random(2)
        )
        _, serial_out, serial_report = apply_source(
            fleet.dataset, perturbation, backend, "incremental"
        )
        _, wave_out, wave_report = apply_source(
            fleet.dataset, perturbation, backend, "wave"
        )
        assert snapshot(wave_out) == snapshot(serial_out)
        assert report_key(wave_report) == report_key(serial_report)


class TestWaveMachinery:
    def test_empty_dataset(self):
        modifier = InterTrajectoryModifier(candidate_source="wave")
        perturbation = TFPerturbation(
            original={(0.0, 0.0): 1}, perturbed={(0.0, 0.0): 2}, epsilon=1.0
        )
        out, report = modifier.apply(TrajectoryDataset([]), perturbation)
        assert len(out) == 0
        assert report.insertions == 0

    def test_rejects_unknown_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            WavePlanner(None, {}, chunk_size=0)

    def test_rejects_unknown_kind(self):
        planner = WavePlanner(None, {})
        with pytest.raises(ValueError, match="kind"):
            planner.plan_wave("sideways", [])

    def test_chunk_size_one_still_identical(self):
        rng = random.Random(9)
        dataset = lattice_fleet(rng, 6, 8)
        perturbation = random_perturbation(rng, dataset)
        _, serial_out, _ = apply_source(
            dataset, perturbation, "hierarchical", "incremental"
        )
        # Drive the planner/executor manually with chunk_size=1.
        from repro.core import waves

        factory = FACTORIES["hierarchical"]
        copy = TrajectoryDataset([t.copy() for t in dataset])
        shared = factory(index_extent(copy.bbox()))
        editables = {
            t.object_id: EditableTrajectory(t, shared) for t in copy
        }
        from repro.core.modification import ModificationReport

        planner = waves.WavePlanner(shared, editables, chunk_size=1)
        executor = waves.WaveExecutor(shared, editables)
        report = ModificationReport()
        for kind, pending in perturbation.schedule():
            while pending:
                wave, pending = planner.plan_wave(kind, pending)
                executor.apply_wave(kind, wave, report)
        out = TrajectoryDataset(
            editables[t.object_id].to_trajectory() for t in copy
        )
        assert snapshot(out) == snapshot(serial_out)

    def test_stats_shape(self):
        stats = WaveStats()
        assert stats.mean_wave_size == 1.0
        stats.waves = 4
        stats.operations = 12
        assert stats.mean_wave_size == pytest.approx(3.0)

    def test_created_geometry_prefilter_and_exact(self):
        geometry = _CreatedGeometry()
        assert not geometry.intrudes((0.0, 0.0), 10.0)
        geometry.extend([((5.0, 0.0), (5.0, 10.0))])
        assert geometry.intrudes((4.0, 5.0), 1.0)  # distance exactly 1
        assert geometry.intrudes((0.0, 0.0), 5.0)  # boundary inclusive
        assert not geometry.intrudes((0.0, 0.0), 4.9)
        assert not geometry.intrudes((0.0, 0.0), -math.inf)
        assert geometry.intrudes((100.0, 100.0), math.inf)

    def test_adjacent_locations(self):
        index = LinearSegmentIndex()
        trajectory = Trajectory(
            "a",
            [
                Point(0.0, 0.0, 0.0),
                Point(1.0, 0.0, 1.0),
                Point(1.0, 0.0, 2.0),
                Point(2.0, 0.0, 3.0),
                Point(3.0, 0.0, 4.0),
                Point(1.0, 0.0, 5.0),
            ],
        )
        editable = EditableTrajectory(trajectory, index)
        # Runs of (1, 0): positions 1-2 (flanked by (0,0) and (2,0))
        # and position 5 (flanked by (3,0), tail side open).
        assert editable.adjacent_locations((1.0, 0.0)) == {
            (0.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
        }
        assert editable.adjacent_locations((9.0, 9.0)) == set()
