"""AdaTrace: utility-aware, attack-resilient DP trace synthesis [25, 26].

AdaTrace extracts four noisy features from the input dataset —

1. a *density-adaptive grid* (coarse cells refined where noisy density
   is high),
2. a Markov *mobility model* over grid cells,
3. a *trip distribution* over (start, end) cell pairs, and
4. a *length distribution* per trip —

and synthesizes trajectories by sampling a trip, a length, and a
mobility-model walk from start toward destination. The budget is split
evenly across the four features. Its utility-aware synthesizer is why
it beats DPT on INF/TE in the paper's Table II: trips respect the
empirical origin-destination structure instead of free-running a
prefix tree.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import TYPE_CHECKING

from repro.core.accounting import CompositionLedger
from repro.core.laplace import LaplaceMechanism
from repro.geo.geometry import BBox, point_distance
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.api.spec import MethodSpec
    from repro.core.pipeline import AnonymizationReport

Cell = tuple[int, int, int]  # (refined flag handled via third coordinate)


class AdaTrace:
    """Four-feature DP synthesizer."""

    def __init__(
        self,
        epsilon: float = 1.0,
        top_grid: int = 6,
        refine_factor: int = 2,
        refine_threshold: float = 0.02,
        sampling_interval: float = 186.0,
        seed: int | None = None,
    ) -> None:
        if top_grid < 2:
            raise ValueError("top grid must be at least 2")
        self.epsilon = epsilon
        self.top_grid = top_grid
        self.refine_factor = refine_factor
        self.refine_threshold = refine_threshold
        self.sampling_interval = sampling_interval
        self.seed = seed
        self._mechanism = LaplaceMechanism(epsilon / 4.0)

    def config(self) -> dict:
        """Constructor kwargs reproducing this configuration."""
        return {
            "epsilon": self.epsilon,
            "top_grid": self.top_grid,
            "refine_factor": self.refine_factor,
            "refine_threshold": self.refine_threshold,
            "sampling_interval": self.sampling_interval,
            "seed": self.seed,
        }

    def spec(self) -> "MethodSpec":
        """This configuration as a declarative, serializable spec."""
        from repro.api.spec import MethodSpec

        return MethodSpec("adatrace", self.config())

    # -- adaptive grid -------------------------------------------------------------

    def _top_cell(self, x: float, y: float, bbox: BBox) -> tuple[int, int]:
        cx = int((x - bbox.min_x) / max(bbox.width, 1e-9) * self.top_grid)
        cy = int((y - bbox.min_y) / max(bbox.height, 1e-9) * self.top_grid)
        return (
            min(max(cx, 0), self.top_grid - 1),
            min(max(cy, 0), self.top_grid - 1),
        )

    def _build_grid(
        self, dataset: TrajectoryDataset, bbox: BBox, rng: random.Random
    ) -> set[tuple[int, int]]:
        """Noisy density scan: returns the set of *refined* top cells."""
        density: Counter = Counter()
        total = 0
        for trajectory in dataset:
            for p in trajectory:
                density[self._top_cell(p.x, p.y, bbox)] += 1
                total += 1
        refined: set[tuple[int, int]] = set()
        for cell in sorted(density):
            noisy = self._mechanism.perturb_count(density[cell], rng, lower=0)
            if total > 0 and noisy / total >= self.refine_threshold:
                refined.add(cell)
        return refined

    def _cell_of(
        self,
        x: float,
        y: float,
        bbox: BBox,
        refined: set[tuple[int, int]],
    ) -> Cell:
        top = self._top_cell(x, y, bbox)
        if top not in refined:
            return (top[0], top[1], 0)
        # Sub-cell index within the refined top cell.
        w = bbox.width / self.top_grid
        h = bbox.height / self.top_grid
        sub_x = int(((x - bbox.min_x) - top[0] * w) / max(w, 1e-9) * self.refine_factor)
        sub_y = int(((y - bbox.min_y) - top[1] * h) / max(h, 1e-9) * self.refine_factor)
        sub_x = min(max(sub_x, 0), self.refine_factor - 1)
        sub_y = min(max(sub_y, 0), self.refine_factor - 1)
        return (top[0], top[1], 1 + sub_x * self.refine_factor + sub_y)

    def _cell_centre(self, cell: Cell, bbox: BBox) -> tuple[float, float]:
        w = bbox.width / self.top_grid
        h = bbox.height / self.top_grid
        base_x = bbox.min_x + cell[0] * w
        base_y = bbox.min_y + cell[1] * h
        if cell[2] == 0:
            return (base_x + w / 2, base_y + h / 2)
        sub = cell[2] - 1
        sub_x, sub_y = divmod(sub, self.refine_factor)
        sw = w / self.refine_factor
        sh = h / self.refine_factor
        return (base_x + (sub_x + 0.5) * sw, base_y + (sub_y + 0.5) * sh)

    # -- model building ----------------------------------------------------------------

    def _noisy_counter(self, counts: Counter, rng: random.Random) -> Counter:
        noisy = Counter()
        for key in sorted(counts):
            value = self._mechanism.perturb_count(counts[key], rng, lower=0)
            if value > 0:
                noisy[key] = value
        return noisy

    @staticmethod
    def _sample(counter: Counter, rng: random.Random):
        total = sum(counter.values())
        roll = rng.uniform(0.0, total)
        cumulative = 0.0
        for key in sorted(counter):
            cumulative += counter[key]
            if roll <= cumulative:
                return key
        return max(counter)

    def anonymize(self, dataset: TrajectoryDataset) -> TrajectoryDataset:
        result, _ = self.anonymize_with_report(dataset)
        return result

    def anonymize_with_report(
        self, dataset: TrajectoryDataset
    ) -> "tuple[TrajectoryDataset, AnonymizationReport]":
        """Synthesize and return ``(dataset, report)`` together.

        The report's :class:`CompositionLedger` records each of the
        four features' Laplace draws next to where they happen, so
        AdaTrace's even four-way budget split composes through the
        same audit trail as the frequency pipeline's.
        """
        from repro.core.pipeline import AnonymizationReport

        report = AnonymizationReport(
            epsilon_total=self.epsilon,
            accounting=CompositionLedger(),
            spec=self.spec(),
        )
        result = self._synthesize_dataset(dataset, report.accounting)
        return result, report

    def _synthesize_dataset(
        self, dataset: TrajectoryDataset, ledger: CompositionLedger
    ) -> TrajectoryDataset:
        if len(dataset) == 0:
            return dataset.copy()
        rng = random.Random(self.seed)
        bbox = dataset.bbox()
        refined = self._build_grid(dataset, bbox, rng)
        ledger.record("adatrace/grid_density", self.epsilon / 4.0)

        trips: Counter = Counter()
        lengths: Counter = Counter()
        mobility: dict[Cell, Counter] = defaultdict(Counter)
        for trajectory in dataset:
            if len(trajectory) == 0:
                continue
            cells: list[Cell] = []
            for p in trajectory:
                cell = self._cell_of(p.x, p.y, bbox, refined)
                if not cells or cells[-1] != cell:
                    cells.append(cell)
            trips[(cells[0], cells[-1])] += 1
            lengths[len(cells) // 8] += 1
            for a, b in zip(cells, cells[1:], strict=False):
                mobility[a][b] += 1

        noisy_trips = self._noisy_counter(trips, rng)
        ledger.record("adatrace/trip_distribution", self.epsilon / 4.0)
        noisy_lengths = self._noisy_counter(lengths, rng)
        ledger.record("adatrace/trip_lengths", self.epsilon / 4.0)
        noisy_mobility = {
            cell: self._noisy_counter(counter, rng)
            for cell, counter in sorted(mobility.items())
        }
        noisy_mobility = {c: k for c, k in noisy_mobility.items() if k}
        ledger.record("adatrace/mobility_model", self.epsilon / 4.0)

        synthetic = [
            self._synthesize(
                f"ada{index:05d}",
                noisy_trips,
                noisy_lengths,
                noisy_mobility,
                bbox,
                rng,
            )
            for index in range(len(dataset))
        ]
        return TrajectoryDataset(synthetic)

    # -- synthesis ------------------------------------------------------------------------

    def _synthesize(
        self,
        object_id: str,
        trips: Counter,
        lengths: Counter,
        mobility: dict[Cell, Counter],
        bbox: BBox,
        rng: random.Random,
    ) -> Trajectory:
        if not trips:
            return Trajectory(object_id, [])
        start, end = self._sample(trips, rng)
        bin_index = self._sample(lengths, rng) if lengths else 1
        target = max(2, bin_index * 8 + rng.randrange(8))
        destination = self._cell_centre(end, bbox)

        cells = [start]
        current = start
        while len(cells) < target and current != end:
            options = mobility.get(current)
            if not options:
                break
            # Utility-aware bias: prefer transitions that reduce the
            # remaining distance to the sampled destination.
            weighted = Counter()
            for nxt, count in options.items():
                gap = point_distance(self._cell_centre(nxt, bbox), destination)
                weighted[nxt] = count * (1.0 + 1.0 / (1.0 + gap / 1000.0))
            current = self._sample(weighted, rng)
            cells.append(current)
        if cells[-1] != end or len(cells) < 2:
            # Same-cell trips still publish a (dwelling) two-point trace.
            cells.append(end)

        t = 0.0
        points = []
        for cell in cells:
            x, y = self._cell_centre(cell, bbox)
            points.append(Point(x, y, t))
            t += self.sampling_interval
        return Trajectory(object_id, points)
