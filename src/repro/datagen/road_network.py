"""A synthetic planar road network with shortest-path routing.

The network is a jittered grid: nodes sit near lattice positions, edges
connect lattice neighbours, and a fraction of edges is removed (while
keeping the graph connected) so the result has the irregular block
structure of a real street map rather than a perfect mesh. This is the
substrate for both the trajectory generator (vehicles move along
shortest paths) and the HMM map-matching recovery attack (candidate
edges, route distances).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from repro.geo.geometry import BBox, Coord, point_distance, point_segment_distance, project_onto_segment


@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected road segment between two node ids."""

    u: int
    v: int
    length: float

    def other(self, node: int) -> int:
        return self.v if node == self.u else self.u

    @property
    def key(self) -> tuple[int, int]:
        """Canonical (sorted) endpoint pair identifying this edge."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class RoadNetwork:
    """An undirected planar road graph with spatial lookup helpers.

    ``spur_tips`` lists the dead-end nodes of residential spur streets
    (cul-de-sacs); the fleet generator anchors personal places (homes,
    haunts) there, reproducing the excursion structure that makes
    signature points matter for map-matching recovery.
    """

    def __init__(
        self,
        coords: list[Coord],
        edges: list[tuple[int, int]],
        spur_tips: list[int] | None = None,
    ) -> None:
        self.spur_tips: list[int] = list(spur_tips or [])
        self.coords: list[Coord] = list(coords)
        self.adjacency: list[list[Edge]] = [[] for _ in self.coords]
        #: Flat routing view of ``adjacency``: ``(neighbour, length)``
        #: per incident edge, in the same order.
        self._neighbours: list[list[tuple[int, float]]] = [[] for _ in self.coords]
        self.edges: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            key = (u, v) if u < v else (v, u)
            if key in seen or u == v:
                continue
            seen.add(key)
            edge = Edge(u, v, point_distance(self.coords[u], self.coords[v]))
            self.edges.append(edge)
            self.adjacency[u].append(edge)
            self.adjacency[v].append(edge)
            self._neighbours[u].append((v, edge.length))
            self._neighbours[v].append((u, edge.length))
        self._core_neighbours, self._gates = self._split_core()
        self._cell_size = 0.0
        self._node_grid: dict[tuple[int, int], list[int]] = {}
        self._edge_grid: dict[tuple[int, int], list[Edge]] = {}
        self._build_spatial_grids()

    # -- construction helpers ------------------------------------------------

    def _split_core(self) -> tuple[list[list[tuple[int, float]]], list[int]]:
        """The routing view of the graph's 2-core.

        Peeling nodes of degree at most 1 until none is left leaves the
        2-core. Every peeled node sits in a pendant tree (spur streets,
        dead-end lattice branches) that meets the core through one edge,
        at its *gate*. Returns, per node, its neighbour list with pendant
        neighbours dropped from core nodes' lists (pendant nodes keep
        theirs whole), and its gate: the node itself for a core node,
        -1 in a component that is a tree.
        """
        neighbours = self._neighbours
        degree = [len(adjacent) for adjacent in neighbours]
        peeled = [d <= 1 for d in degree]
        queue = [node for node, gone in enumerate(peeled) if gone]
        for node in queue:  # grows while it is walked
            for neighbour, _ in neighbours[node]:
                if not peeled[neighbour]:
                    degree[neighbour] -= 1
                    if degree[neighbour] <= 1:
                        peeled[neighbour] = True
                        queue.append(neighbour)
        gates = [-1 if gone else node for node, gone in enumerate(peeled)]
        routes = list(neighbours)
        for core in range(len(neighbours)):
            if peeled[core]:
                continue
            routes[core] = [entry for entry in neighbours[core] if not peeled[entry[0]]]
            tree = [n for n, _ in neighbours[core] if peeled[n]]
            for node in tree:  # grows while it is walked
                gates[node] = core
                for neighbour, _ in neighbours[node]:
                    if gates[neighbour] == -1:
                        tree.append(neighbour)
        return routes, gates

    def _build_spatial_grids(self) -> None:
        if not self.coords:
            return
        box = self.bbox()
        # Cell size chosen so the average cell holds a handful of nodes.
        target_cells = max(len(self.coords), 1)
        side = math.sqrt(max(box.width * box.height, 1.0) / target_cells)
        self._cell_size = max(side, 1.0)
        for node, coord in enumerate(self.coords):
            self._node_grid.setdefault(self._cell_of(coord), []).append(node)
        for edge in self.edges:
            for cell in self._cells_touching(edge):
                self._edge_grid.setdefault(cell, []).append(edge)

    def _cell_of(self, coord: Coord) -> tuple[int, int]:
        return (
            int(math.floor(coord[0] / self._cell_size)),
            int(math.floor(coord[1] / self._cell_size)),
        )

    def _cells_touching(self, edge: Edge) -> set[tuple[int, int]]:
        """All grid cells whose bbox the edge's bbox overlaps."""
        a = self.coords[edge.u]
        b = self.coords[edge.v]
        cx0, cy0 = self._cell_of((min(a[0], b[0]), min(a[1], b[1])))
        cx1, cy1 = self._cell_of((max(a[0], b[0]), max(a[1], b[1])))
        return {
            (cx, cy)
            for cx in range(cx0, cx1 + 1)
            for cy in range(cy0, cy1 + 1)
        }

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.coords)

    def bbox(self) -> BBox:
        return BBox.from_points(self.coords)

    def node_coord(self, node: int) -> Coord:
        return self.coords[node]

    def nearest_node(self, coord: Coord) -> int:
        """The node closest to ``coord`` (grid-accelerated)."""
        if not self.coords:
            raise ValueError("empty road network")
        cx, cy = self._cell_of(coord)
        best_node = -1
        best_dist = float("inf")
        for ring in range(0, 64):
            candidates: list[int] = []
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    candidates.extend(self._node_grid.get((cx + dx, cy + dy), ()))
            for node in candidates:
                d = point_distance(coord, self.coords[node])
                if d < best_dist:
                    best_dist = d
                    best_node = node
            # Once a candidate is found, one extra ring guarantees
            # correctness (cells are axis-aligned, distance is radial).
            if best_node >= 0 and best_dist <= ring * self._cell_size:
                break
        if best_node < 0:
            # Fallback: brute force (only reachable for pathological grids).
            best_node = min(
                range(len(self.coords)),
                key=lambda n: point_distance(coord, self.coords[n]),
            )
        return best_node

    def edges_near(self, coord: Coord, radius: float) -> list[tuple[Edge, float]]:
        """Edges whose distance to ``coord`` is at most ``radius``.

        Returns ``(edge, distance)`` pairs sorted by distance; this is
        the candidate-generation primitive for HMM map matching.
        """
        cx0, cy0 = self._cell_of((coord[0] - radius, coord[1] - radius))
        cx1, cy1 = self._cell_of((coord[0] + radius, coord[1] + radius))
        seen: set[tuple[int, int]] = set()
        result: list[tuple[Edge, float]] = []
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                for edge in self._edge_grid.get((cx, cy), ()):
                    if edge.key in seen:
                        continue
                    seen.add(edge.key)
                    d = point_segment_distance(
                        coord, self.coords[edge.u], self.coords[edge.v]
                    )
                    if d <= radius:
                        result.append((edge, d))
        result.sort(key=lambda item: item[1])
        return result

    def project(self, coord: Coord, edge: Edge) -> tuple[Coord, float]:
        """Project ``coord`` onto ``edge``; returns (point, offset from u)."""
        a = self.coords[edge.u]
        b = self.coords[edge.v]
        closest, t = project_onto_segment(coord, a, b)
        return closest, t * edge.length

    # -- routing -----------------------------------------------------------------

    def shortest_path(self, source: int, target: int) -> list[int]:
        """A* shortest path as a node-id list (inclusive of both ends).

        The heuristic is the straight-line distance to ``target``. It is
        admissible because every edge's length is the
        :func:`point_distance` of its ends, so no route is shorter than
        the straight line. Stale heap entries are skipped lazily and an
        improved node is re-pushed, so a one-ulp inconsistency of the
        float heuristic costs at most a re-expansion.

        The search runs on the 2-core: a core node relaxes only its core
        neighbours, except at the target's gate, and a pendant node
        relaxes all of its own. A pendant tree meets the core through one
        edge, so no simple path enters a tree that holds neither end, and
        no node of such a tree can lower the distance of a node outside
        it. Its heap entries are all that skipping it drops, so the other
        entries pop in the same order and the path is the very one a
        search of the whole graph returns (``docs/architecture.md``,
        "Fleet generation: A* on the 2-core").

        Raises ``ValueError`` when no path exists (should not happen on
        the connected networks built by :func:`build_road_network`).
        """
        if source == target:
            return [source]
        coords = self.coords
        tx, ty = coords[target]
        full = self._neighbours
        neighbours = self._core_neighbours
        gate = self._gates[target]
        inf = math.inf
        dist = {source: 0.0}
        parent: dict[int, int] = {}
        sx, sy = coords[source]
        heap: list[tuple[float, float, int]] = [
            (math.hypot(sx - tx, sy - ty), 0.0, source)
        ]
        while heap:
            _, d, node = heapq.heappop(heap)
            if node == target:
                break
            if d > dist.get(node, inf):
                continue
            for neighbour, length in full[node] if node == gate else neighbours[node]:
                candidate = d + length
                if candidate < dist.get(neighbour, inf):
                    dist[neighbour] = candidate
                    parent[neighbour] = node
                    x, y = coords[neighbour]
                    heapq.heappush(
                        heap,
                        (candidate + math.hypot(x - tx, y - ty), candidate, neighbour),
                    )
        if target not in parent and source != target:
            raise ValueError(f"no path between nodes {source} and {target}")
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def network_distance(self, source: int, target: int) -> float:
        """Shortest-path length between two nodes."""
        path = self.shortest_path(source, target)
        return sum(
            point_distance(self.coords[path[i]], self.coords[path[i + 1]])
            for i in range(len(path) - 1)
        )

    def path_coords(self, path: list[int]) -> list[Coord]:
        return [self.coords[node] for node in path]

    def route_points(self, path: list[int], step: float) -> list[Coord]:
        """Sample points every ``step`` metres along a node path.

        The first node's coordinate is always included, subsequent points
        are spaced ``step`` metres apart along the polyline, and the last
        node is included as the final sample. This is how the generator
        turns a route into GPS-like samples.
        """
        coords = self.path_coords(path)
        if len(coords) < 2:
            return list(coords)
        samples = [coords[0]]
        carried = 0.0
        for i in range(len(coords) - 1):
            a = coords[i]
            b = coords[i + 1]
            seg_len = point_distance(a, b)
            if seg_len == 0.0:
                continue
            position = step - carried
            while position < seg_len:
                fraction = position / seg_len
                samples.append(
                    (a[0] + fraction * (b[0] - a[0]), a[1] + fraction * (b[1] - a[1]))
                )
                position += step
            carried = seg_len - (position - step)
        if samples[-1] != coords[-1]:
            samples.append(coords[-1])
        return samples


def build_road_network(
    rows: int = 40,
    cols: int = 40,
    spacing: float = 600.0,
    jitter: float = 0.15,
    removal_fraction: float = 0.12,
    n_spurs: int = 0,
    spur_length: tuple[int, int] = (2, 3),
    seed: int = 7,
) -> RoadNetwork:
    """Build a jittered-grid road network with optional spur streets.

    Parameters
    ----------
    rows, cols:
        Lattice dimensions; the default 40x40 at 600 m spacing covers a
        ~24 km square, roughly central Beijing's extent.
    spacing:
        Lattice spacing in metres. 600 m matches T-Drive's mean
        point-to-point distance so routes sampled at one point per node
        reproduce the paper's spacing statistic.
    jitter:
        Node position noise as a fraction of ``spacing``.
    removal_fraction:
        Fraction of lattice edges removed (connectivity preserved) to
        break the perfect-mesh regularity.
    n_spurs:
        Number of dead-end residential spur streets attached to random
        lattice nodes. Each spur is a chain of ``spur_length`` edges
        ending in a cul-de-sac tip (recorded in ``spur_tips``). Visits
        to a spur tip are *excursions*: a vehicle must drive in and back
        out, so the spur edges only appear in routes of objects anchored
        there — the structural reason signature points are recoverable
        by map matching.
    spur_length:
        Inclusive range of spur chain length in edges.
    seed:
        RNG seed; the same seed always produces the same network.
    """
    rng = random.Random(seed)
    coords: list[Coord] = []
    for r in range(rows):
        for c in range(cols):
            dx = rng.uniform(-jitter, jitter) * spacing
            dy = rng.uniform(-jitter, jitter) * spacing
            coords.append((c * spacing + dx, r * spacing + dy))

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    lattice_edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                lattice_edges.append((node_id(r, c), node_id(r, c + 1)))
            if r + 1 < rows:
                lattice_edges.append((node_id(r, c), node_id(r + 1, c)))

    # Remove a random subset of edges while keeping the graph connected,
    # using a union-find over the kept edges: shuffle, mark the first
    # spanning subset as mandatory, then drop from the remainder.
    rng.shuffle(lattice_edges)
    parent = list(range(rows * cols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mandatory: list[tuple[int, int]] = []
    optional: list[tuple[int, int]] = []
    for u, v in lattice_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            mandatory.append((u, v))
        else:
            optional.append((u, v))
    keep_optional = int(len(optional) * (1.0 - removal_fraction * len(lattice_edges) / max(len(optional), 1)))
    keep_optional = max(0, min(len(optional), keep_optional))
    edges = mandatory + optional[:keep_optional]

    # Attach dead-end spur streets. Each spur grows outward from a
    # random lattice node in a random direction, at ~half the lattice
    # spacing (residential streets are shorter than arterials).
    spur_tips: list[int] = []
    spur_spacing = spacing * 0.5
    for _ in range(n_spurs):
        anchor = rng.randrange(rows * cols)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        chain = rng.randint(*spur_length)
        previous = anchor
        for step in range(1, chain + 1):
            x = coords[anchor][0] + step * spur_spacing * math.cos(angle)
            y = coords[anchor][1] + step * spur_spacing * math.sin(angle)
            x += rng.uniform(-jitter, jitter) * spur_spacing
            y += rng.uniform(-jitter, jitter) * spur_spacing
            coords.append((x, y))
            node = len(coords) - 1
            edges.append((previous, node))
            previous = node
        spur_tips.append(previous)
    return RoadNetwork(coords, edges, spur_tips=spur_tips)
