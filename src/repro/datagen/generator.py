"""Synthetic T-Drive-like fleet generator.

Each moving object receives

* a *home* node and a few *personal anchor* nodes — places this object
  visits repeatedly but (almost) nobody else does, which become its
  high-PF / low-TF signature points;
* access to a shared set of *hotspot* nodes (malls, stations, airport)
  visited by everyone, which become high-TF non-identifying points.

The object then performs trips between these places along shortest
paths on the road network, with dwell (repeated samples) at anchors.
The emitted samples sit exactly on the network polyline, spaced about
one lattice edge apart (~600 m by default) with a ~3.1-minute sampling
interval, mirroring the T-Drive statistics the paper reports.

The generator also returns per-object ground-truth routes (edge key
sequences), which the recovery-attack evaluation compares against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datagen.road_network import RoadNetwork, build_road_network
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset


@dataclass(slots=True)
class FleetConfig:
    """Knobs for the synthetic fleet.

    The defaults are scaled-down relative to T-Drive (which has 10,357
    objects with ~1,813 points each) so the full experiment pipeline
    runs in minutes in pure Python; the harness raises them per
    experiment. The *structure* (anchors, hotspots, road-constrained
    motion) is what matters for reproducing the paper's comparisons.
    """

    n_objects: int = 100
    points_per_trajectory: int = 300
    #: Road-network shape.
    rows: int = 40
    cols: int = 40
    spacing: float = 600.0
    #: How many shared hotspots exist city-wide and how strongly objects
    #: are drawn to them.
    n_hotspots: int = 20
    hotspot_probability: float = 0.35
    #: Personal anchors per object (besides home).
    anchors_per_object: int = 3
    #: Probability that a non-home anchor is drawn from a shared pool
    #: (workplaces, gyms, friends' homes — Figure 1 of the paper) rather
    #: than being exclusive. Shared anchors are visited by a handful of
    #: objects, so they are still distinctive (low TF) yet create the
    #: cross-user signature overlap real check-in data has.
    shared_anchor_probability: float = 0.5
    #: Size of the shared-anchor pool relative to the fleet.
    shared_pool_fraction: float = 0.3
    #: Probability of heading home / to a personal anchor at each trip.
    home_probability: float = 0.3
    anchor_probability: float = 0.25
    #: Dwell-sample counts (inclusive ranges).
    anchor_dwell: tuple[int, int] = (3, 6)
    hotspot_dwell: tuple[int, int] = (1, 2)
    #: Sampling interval in seconds (T-Drive: ~3.1 minutes).
    sampling_interval: float = 186.0
    #: Std-dev of isotropic GPS noise added to emitted samples, metres.
    #: Zero keeps samples exactly on the network, so that repeated
    #: visits produce identical location keys (required by the
    #: frequency-based mechanisms); turn it on to stress map matching.
    gps_noise: float = 0.0
    #: Whether personal anchors live at the tips of dead-end spur
    #: streets (cul-de-sacs). This reproduces the excursion structure of
    #: real cities: a home visit forces a drive in and out of a spur
    #: whose edges appear in no one else's routes, which is what makes
    #: signature points both identifying and recoverable.
    anchors_on_spurs: bool = True
    seed: int = 42

    def __post_init__(self) -> None:
        for name, least in (
            ("n_objects", 0),
            ("points_per_trajectory", 1),
            ("rows", 1),
            ("cols", 1),
            ("n_hotspots", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(slots=True)
class FleetResult:
    """Generator output: the dataset plus its ground truth."""

    dataset: TrajectoryDataset
    network: RoadNetwork
    #: object id -> ordered list of traversed edge keys (ground-truth route).
    routes: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    #: object id -> the object's personal anchor nodes (home first).
    anchors: dict[str, list[int]] = field(default_factory=dict)
    #: The shared hotspot nodes.
    hotspots: list[int] = field(default_factory=list)


def generate_fleet(
    config: FleetConfig | None = None, network: RoadNetwork | None = None
) -> FleetResult:
    """Generate a synthetic taxi fleet according to ``config``.

    Deterministic for a fixed config (seeded RNG). When ``network`` is
    given it is used as-is; otherwise one is built from the config.
    """
    config = config or FleetConfig()
    rng = random.Random(config.seed)
    if network is None:
        anchors_needed = config.n_objects * (config.anchors_per_object + 1)
        network = build_road_network(
            rows=config.rows,
            cols=config.cols,
            spacing=config.spacing,
            n_spurs=(
                int(anchors_needed * 1.2) + 4 if config.anchors_on_spurs else 0
            ),
            seed=config.seed,
        )
    n_nodes = len(network)
    if n_nodes < config.n_hotspots + config.anchors_per_object + 1:
        raise ValueError("road network too small for the requested fleet")

    # Hotspots never sit on a spur tip, where personal anchors live; any
    # other node may hold one, mid-spur nodes included.
    spur_tips = set(network.spur_tips)
    non_tips = [n for n in range(n_nodes) if n not in spur_tips]
    hotspots = rng.sample(non_tips, config.n_hotspots)
    hotspot_set = set(hotspots)

    # Personal anchors prefer spur tips: homes are exclusive to one
    # object, while some non-home anchors come from a shared pool
    # (workplaces, friends' homes) visited by a handful of objects.
    # Either way anchored visits are excursions into streets that
    # through-traffic never uses.
    available_tips = list(network.spur_tips)
    rng.shuffle(available_tips)
    shared_pool_size = max(1, int(config.n_objects * config.shared_pool_fraction))
    shared_pool = [
        available_tips.pop()
        for _ in range(min(shared_pool_size, max(len(available_tips) - 1, 0)))
    ]

    def draw_exclusive(taken: list[int]) -> int:
        while available_tips:
            tip = available_tips.pop()
            if tip not in hotspot_set and tip not in taken:
                return tip
        candidate = _sample_non_hotspot(rng, n_nodes, hotspot_set)
        while candidate in taken:
            candidate = _sample_non_hotspot(rng, n_nodes, hotspot_set)
        return candidate

    trajectories: list[Trajectory] = []
    routes: dict[str, list[tuple[int, int]]] = {}
    anchors_by_object: dict[str, list[int]] = {}

    for index in range(config.n_objects):
        object_id = f"obj{index:05d}"
        personal: list[int] = [draw_exclusive([])]  # home is exclusive
        while len(personal) < config.anchors_per_object + 1:
            if shared_pool and rng.random() < config.shared_anchor_probability:
                candidate = rng.choice(shared_pool)
                if candidate in personal:
                    continue
                personal.append(candidate)
            else:
                personal.append(draw_exclusive(personal))
        anchors_by_object[object_id] = personal

        trajectory, route = _simulate_object(
            object_id, network, config, rng, personal, hotspots
        )
        trajectories.append(trajectory)
        routes[object_id] = route

    return FleetResult(
        dataset=TrajectoryDataset(trajectories),
        network=network,
        routes=routes,
        anchors=anchors_by_object,
        hotspots=hotspots,
    )


def _sample_non_hotspot(rng: random.Random, n_nodes: int, hotspots: set[int]) -> int:
    while True:
        node = rng.randrange(n_nodes)
        if node not in hotspots:
            return node


def _simulate_object(
    object_id: str,
    network: RoadNetwork,
    config: FleetConfig,
    rng: random.Random,
    personal: list[int],
    hotspots: list[int],
) -> tuple[Trajectory, list[tuple[int, int]]]:
    """Simulate one object's full moving history."""
    home = personal[0]
    points: list[Point] = []
    route_edges: list[tuple[int, int]] = []
    current = home
    t = float(rng.randrange(0, 3600))

    def emit(coord: tuple[float, float]) -> None:
        nonlocal t
        x, y = coord
        if config.gps_noise > 0.0:
            x += rng.gauss(0.0, config.gps_noise)
            y += rng.gauss(0.0, config.gps_noise)
        points.append(Point(x, y, t))
        t += config.sampling_interval * rng.uniform(0.8, 1.2)

    # Start with a dwell at home so every object has a clear signature.
    for _ in range(rng.randint(*config.anchor_dwell)):
        emit(network.node_coord(home))

    while len(points) < config.points_per_trajectory:
        destination, dwell_range = _choose_destination(
            rng, config, current, personal, hotspots, len(network)
        )
        if destination == current:
            continue
        path = network.shortest_path(current, destination)
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            route_edges.append((u, v) if u < v else (v, u))
        samples = network.route_points(path, config.spacing)
        # Skip the first sample: it duplicates the previous dwell point.
        for coord in samples[1:]:
            emit(coord)
            if len(points) >= config.points_per_trajectory:
                break
        for _ in range(rng.randint(*dwell_range)):
            if len(points) >= config.points_per_trajectory:
                break
            emit(network.node_coord(destination))
        current = destination

    return Trajectory(object_id, points[: config.points_per_trajectory]), route_edges


def _choose_destination(
    rng: random.Random,
    config: FleetConfig,
    current: int,
    personal: list[int],
    hotspots: list[int],
    n_nodes: int,
) -> tuple[int, tuple[int, int]]:
    """Pick the next trip destination and its dwell-sample range."""
    roll = rng.random()
    if roll < config.home_probability:
        return personal[0], config.anchor_dwell
    roll -= config.home_probability
    if roll < config.anchor_probability and len(personal) > 1:
        return rng.choice(personal[1:]), config.anchor_dwell
    roll -= config.anchor_probability
    if roll < config.hotspot_probability:
        return rng.choice(hotspots), config.hotspot_dwell
    return rng.randrange(n_nodes), (1, 1)
