"""Tests for the synthetic fleet generator."""

import hashlib

import pytest

from repro.cli import main
from repro.datagen.generator import FleetConfig, generate_fleet


@pytest.fixture(scope="module")
def fleet():
    config = FleetConfig(
        n_objects=12,
        points_per_trajectory=150,
        rows=15,
        cols=15,
        n_hotspots=8,
        seed=11,
    )
    return generate_fleet(config)


class TestGenerateFleet:
    def test_object_count_and_lengths(self, fleet):
        assert len(fleet.dataset) == 12
        for trajectory in fleet.dataset:
            assert len(trajectory) == 150

    def test_deterministic(self):
        config = FleetConfig(n_objects=3, points_per_trajectory=50, rows=8, cols=8, seed=5)
        a = generate_fleet(config)
        b = generate_fleet(config)
        for ta, tb in zip(a.dataset, b.dataset, strict=True):
            assert [p.coord for p in ta] == [p.coord for p in tb]
            assert [p.t for p in ta] == [p.t for p in tb]

    def test_cli_fleet_bytes_pinned(self, tmp_path, capsys):
        """A seeded fleet's CSV is pinned byte for byte, not only run to
        run: a faster route search or generator must leave it as is."""
        path = tmp_path / "fleet.csv"
        assert main([
            "generate", "--objects", "30", "--points", "100", "--rows", "16",
            "--cols", "16", "--hotspots", "12", "--seed", "7", "-o", str(path),
        ]) == 0
        assert capsys.readouterr().out == (
            f"wrote 30 trajectories (3000 points) to {path}\n"
        )
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a48675d3b2166b502721b886f6eefbf5d08c5f5e9164d38d4a07a074140a0fc6"
        )

    def test_timestamps_strictly_increasing(self, fleet):
        for trajectory in fleet.dataset:
            times = [p.t for p in trajectory]
            assert all(t1 < t2 for t1, t2 in zip(times, times[1:], strict=False))

    def test_point_spacing_near_target(self, fleet):
        stats = fleet.dataset.stats()
        # Dwell samples (distance 0) pull the mean below the 600 m lattice.
        assert 200.0 < stats["avg_point_spacing_m"] < 700.0

    def test_home_anchor_has_high_point_frequency(self, fleet):
        for trajectory in fleet.dataset:
            home = fleet.anchors[trajectory.object_id][0]
            home_loc = (
                round(fleet.network.node_coord(home)[0]),
                round(fleet.network.node_coord(home)[1]),
            )
            pf = trajectory.point_frequencies()
            # Home is visited repeatedly: among top frequencies.
            counts = sorted(pf.values(), reverse=True)
            home_count = pf[(float(home_loc[0]), float(home_loc[1]))]
            assert home_count >= counts[min(10, len(counts) - 1)]

    def test_anchors_are_distinctive(self, fleet):
        """Personal anchors should be visited by few trajectories (low TF)."""
        tf = fleet.dataset.trajectory_frequencies()
        n = len(fleet.dataset)
        low_tf = 0
        total = 0
        for anchors in fleet.anchors.values():
            for anchor in anchors:
                coord = fleet.network.node_coord(anchor)
                key = (float(round(coord[0])), float(round(coord[1])))
                if key in tf:
                    total += 1
                    if tf[key] <= max(2, n // 4):
                        low_tf += 1
        assert total > 0
        assert low_tf / total > 0.5

    def test_hotspots_are_popular(self, fleet):
        """Shared hotspots should be crossed by many trajectories (high TF)."""
        tf = fleet.dataset.trajectory_frequencies()
        n = len(fleet.dataset)
        popular = 0
        for hotspot in fleet.hotspots:
            coord = fleet.network.node_coord(hotspot)
            key = (float(round(coord[0])), float(round(coord[1])))
            if tf.get(key, 0) >= n // 3:
                popular += 1
        assert popular >= len(fleet.hotspots) // 3

    def test_routes_recorded(self, fleet):
        edge_keys = {e.key for e in fleet.network.edges}
        for object_id, route in fleet.routes.items():
            assert route, f"{object_id} has an empty route"
            for key in route:
                assert key in edge_keys

    def test_gps_noise_perturbs_points(self):
        base = FleetConfig(n_objects=2, points_per_trajectory=40, rows=8, cols=8, seed=5)
        noisy = FleetConfig(
            n_objects=2, points_per_trajectory=40, rows=8, cols=8, seed=5, gps_noise=30.0
        )
        clean_fleet = generate_fleet(base)
        noisy_fleet = generate_fleet(noisy)
        moved = sum(
            1
            for ta, tb in zip(clean_fleet.dataset, noisy_fleet.dataset, strict=True)
            for p, q in zip(ta, tb, strict=True)
            if p.coord != q.coord
        )
        assert moved > 0

    def test_network_too_small_raises(self):
        config = FleetConfig(
            n_objects=1, rows=2, cols=2, n_hotspots=10, anchors_on_spurs=False
        )
        with pytest.raises(ValueError):
            generate_fleet(config)

    def test_anchors_prefer_spur_tips(self, fleet):
        tips = set(fleet.network.spur_tips)
        assert tips, "expected the network to have spur streets"
        on_tips = sum(
            1
            for anchors in fleet.anchors.values()
            for anchor in anchors
            if anchor in tips
        )
        total = sum(len(a) for a in fleet.anchors.values())
        assert on_tips / total > 0.9

    def test_homes_globally_unique(self, fleet):
        homes = [anchors[0] for anchors in fleet.anchors.values()]
        assert len(homes) == len(set(homes))

    def test_some_anchors_shared(self):
        fleet = generate_fleet(
            FleetConfig(
                n_objects=30,
                points_per_trajectory=60,
                rows=12,
                cols=12,
                seed=3,
                shared_anchor_probability=0.8,
            )
        )
        from collections import Counter

        usage = Counter()
        for anchors in fleet.anchors.values():
            usage.update(set(anchors[1:]))
        assert any(count >= 2 for count in usage.values())

    def test_points_lie_on_network_nodes_or_edges(self, fleet):
        """Noise-free samples must sit on the road polyline (within epsilon)."""
        network = fleet.network
        trajectory = fleet.dataset[0]
        for point in trajectory.points[:50]:
            hits = network.edges_near(point.coord, radius=1.0)
            near_node = any(
                abs(network.node_coord(n)[0] - point.x) < 1.0
                and abs(network.node_coord(n)[1] - point.y) < 1.0
                for n in range(len(network))
            )
            assert hits or near_node
