"""Tests for the synthetic road network substrate."""

import heapq
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.road_network import RoadNetwork, build_road_network
from repro.geo.geometry import point_distance


@pytest.fixture(scope="module")
def network():
    return build_road_network(rows=10, cols=10, spacing=600.0, seed=1)


class TestBuildRoadNetwork:
    def test_node_count(self, network):
        assert len(network) == 100

    def test_deterministic_for_seed(self):
        a = build_road_network(rows=5, cols=5, seed=3)
        b = build_road_network(rows=5, cols=5, seed=3)
        assert a.coords == b.coords
        assert [e.key for e in a.edges] == [e.key for e in b.edges]

    def test_different_seeds_differ(self):
        a = build_road_network(rows=5, cols=5, seed=3)
        b = build_road_network(rows=5, cols=5, seed=4)
        assert a.coords != b.coords

    def test_connected(self, network):
        # BFS from node 0 must reach everything.
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for edge in network.adjacency[node]:
                neighbour = edge.other(node)
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        assert len(seen) == len(network)

    def test_some_edges_removed(self, network):
        full_lattice = 2 * 10 * 9  # horizontal + vertical edges of a 10x10 grid
        assert len(network.edges) < full_lattice

    def test_edge_lengths_close_to_spacing(self, network):
        lengths = [e.length for e in network.edges]
        mean = sum(lengths) / len(lengths)
        assert 400.0 < mean < 800.0


class TestQueries:
    def test_nearest_node_exact(self, network):
        coord = network.node_coord(42)
        assert network.nearest_node(coord) == 42

    def test_nearest_node_offset(self, network):
        coord = network.node_coord(42)
        found = network.nearest_node((coord[0] + 50.0, coord[1] + 50.0))
        # Must be at least as close as node 42 itself.
        d_found = point_distance(network.node_coord(found), (coord[0] + 50.0, coord[1] + 50.0))
        assert d_found <= point_distance(coord, (coord[0] + 50.0, coord[1] + 50.0)) + 1e-9

    def test_nearest_node_brute_force_agreement(self, network):
        query = (1234.0, 2345.0)
        found = network.nearest_node(query)
        best = min(range(len(network)), key=lambda n: point_distance(query, network.node_coord(n)))
        assert point_distance(query, network.node_coord(found)) == pytest.approx(
            point_distance(query, network.node_coord(best))
        )

    def test_edges_near_radius(self, network):
        coord = network.node_coord(0)
        hits = network.edges_near(coord, radius=100.0)
        assert hits, "expected at least the incident edges"
        for _edge, dist in hits:
            assert dist <= 100.0
        dists = [d for _, d in hits]
        assert dists == sorted(dists)

    def test_edges_near_empty_far_away(self, network):
        assert network.edges_near((1e9, 1e9), radius=10.0) == []

    def test_project_onto_edge(self, network):
        edge = network.edges[0]
        mid = (
            (network.node_coord(edge.u)[0] + network.node_coord(edge.v)[0]) / 2,
            (network.node_coord(edge.u)[1] + network.node_coord(edge.v)[1]) / 2,
        )
        closest, offset = network.project(mid, edge)
        assert point_distance(closest, mid) < 1e-6
        assert offset == pytest.approx(edge.length / 2, rel=1e-6)


class TestRouting:
    def test_shortest_path_endpoints(self, network):
        path = network.shortest_path(0, 99)
        assert path[0] == 0
        assert path[-1] == 99

    def test_path_edges_exist(self, network):
        path = network.shortest_path(0, 99)
        edge_keys = {e.key for e in network.edges}
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            assert ((u, v) if u < v else (v, u)) in edge_keys

    def test_self_path(self, network):
        assert network.shortest_path(7, 7) == [7]

    def test_network_distance_at_least_euclidean(self, network):
        d_net = network.network_distance(0, 99)
        d_euc = point_distance(network.node_coord(0), network.node_coord(99))
        assert d_net >= d_euc - 1e-6

    def test_route_points_spacing(self, network):
        path = network.shortest_path(0, 99)
        pts = network.route_points(path, step=600.0)
        assert pts[0] == network.node_coord(0)
        assert pts[-1] == network.node_coord(99)
        for i in range(len(pts) - 1):
            assert point_distance(pts[i], pts[i + 1]) <= 600.0 + 1e-6

    def test_route_points_short_path(self, network):
        assert network.route_points([5], step=600.0) == [network.node_coord(5)]


def reference_dijkstra(network, source, target):
    """Plain Dijkstra over ``network.adjacency``: the routing reference.

    Returns ``(length, path, unique)``. ``unique`` is False when some
    node on the way to ``target`` was reached by two routes whose
    lengths agree to within 1e-9 relative — only then may a correct
    search legitimately pick a different path of the same length.
    """
    tolerance = 1e-9
    dist = {source: 0.0}
    parent = {}
    tied = set()
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for edge in network.adjacency[node]:
            neighbour = edge.other(node)
            candidate = d + edge.length
            best = dist.get(neighbour, math.inf)
            if abs(candidate - best) <= tolerance * max(1.0, best):
                tied.add(neighbour)
            if candidate < best and neighbour not in done:
                dist[neighbour] = candidate
                parent[neighbour] = node
                heapq.heappush(heap, (candidate, neighbour))
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    unique = not any(node in tied for node in path)
    return dist[target], path, unique


def reference_astar(network, source, target):
    """A* over every edge of ``network.adjacency``, with the same heap
    entries as ``shortest_path``: the path the 2-core search must
    return exactly, ties included."""
    tx, ty = network.node_coord(target)
    dist = {source: 0.0}
    parent = {}
    sx, sy = network.node_coord(source)
    heap = [(math.hypot(sx - tx, sy - ty), 0.0, source)]
    while heap:
        _, d, node = heapq.heappop(heap)
        if node == target:
            break
        if d > dist.get(node, math.inf):
            continue
        for edge in network.adjacency[node]:
            neighbour = edge.other(node)
            candidate = d + edge.length
            if candidate < dist.get(neighbour, math.inf):
                dist[neighbour] = candidate
                parent[neighbour] = node
                x, y = network.node_coord(neighbour)
                heapq.heappush(
                    heap, (candidate + math.hypot(x - tx, y - ty), candidate, neighbour)
                )
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def path_length(network, path):
    lengths = {e.key: e.length for e in network.edges}
    total = 0.0
    for u, v in zip(path, path[1:], strict=False):
        total += lengths[(u, v) if u < v else (v, u)]
    return total


class TestAStarRouting:
    """``shortest_path`` is A*; it must stay a shortest path, and the
    same path as Dijkstra whenever the shortest route is unique."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(2, 9),
        cols=st.integers(2, 9),
        jitter=st.sampled_from([0.0, 0.01, 0.15, 0.3]),
        removal=st.sampled_from([0.0, 0.12, 0.3]),
        n_spurs=st.integers(0, 40),
        seed=st.integers(0, 10_000),
        ends=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
    )
    def test_matches_reference_dijkstra(
        self, rows, cols, jitter, removal, n_spurs, seed, ends
    ):
        network = build_road_network(
            rows=rows, cols=cols, spacing=600.0, jitter=jitter,
            removal_fraction=removal, n_spurs=n_spurs, seed=seed,
        )
        source = ends[0] % len(network.coords)
        target = ends[1] % len(network.coords)
        path = network.shortest_path(source, target)
        assert path[0] == source and path[-1] == target
        if source == target:
            assert path == [source]
            return
        length, reference, unique = reference_dijkstra(network, source, target)
        assert path_length(network, path) == pytest.approx(length, rel=1e-12)
        if unique:
            assert path == reference
        assert path == reference_astar(network, source, target)

    def test_tree_network_routes(self):
        """A tree has an empty 2-core: every node is pendant and keeps
        its whole neighbour list, so any two nodes still connect."""
        #      3   5
        #      |   |
        #  0 - 1 - 2 - 4
        #              |
        #              6
        coords = [(0, 0), (600, 0), (1200, 0), (600, 600), (1800, 0),
                  (1200, 600), (1800, -600)]
        edges = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (4, 6)]
        network = RoadNetwork(coords, edges)
        assert network.shortest_path(3, 6) == [3, 1, 2, 4, 6]
        assert network.shortest_path(6, 0) == [6, 4, 2, 1, 0]
        assert network.shortest_path(5, 3) == [5, 2, 1, 3]

    def test_no_path_across_components_raises(self):
        """``PathInferenceAttack`` treats the ValueError as a gap."""
        # A square with a spur (0-3 core, 4-5 pendant), a separate
        # triangle with a spur (6-8 core, 9 pendant), and a lone path.
        coords = [(0, 0), (600, 0), (600, 600), (0, 700), (-600, 0),
                  (-1200, 0), (3000, 0), (3600, 0), (3300, 600),
                  (4200, 0), (0, 3000), (600, 3000)]
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5),
                 (6, 7), (7, 8), (8, 6), (7, 9), (10, 11)]
        network = RoadNetwork(coords, edges)
        assert network.shortest_path(5, 2) == [5, 4, 0, 1, 2]
        assert network.shortest_path(3, 5) == [3, 0, 4, 5]
        assert network.shortest_path(6, 9) == [6, 7, 9]
        for source, target in ((5, 9), (1, 9), (5, 6), (9, 5), (0, 11), (10, 4)):
            with pytest.raises(ValueError, match="no path"):
                network.shortest_path(source, target)
