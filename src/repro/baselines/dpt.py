"""DPT: differentially private trajectory synthesis [10].

DPT models movement with hierarchical reference systems and prefix
trees, injects Laplace noise into the transition counts, and generates
*synthetic* trajectories from the noisy model — no output trajectory
corresponds to any real one.

This implementation keeps DPT's essential pipeline at a single
reference-system resolution: a uniform grid discretization, a noisy
prefix tree of configurable ``order`` (order 1 = Markov transitions;
order 2 conditions on the previous two cells with back-off to order 1,
approximating DPT's taller prefix trees), and sampling-based synthesis.
The privacy budget is split evenly between start counts, transition
counts, and trip lengths.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import TYPE_CHECKING

from repro.core.accounting import CompositionLedger
from repro.core.laplace import LaplaceMechanism
from repro.geo.geometry import BBox
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.api.spec import MethodSpec
    from repro.core.pipeline import AnonymizationReport

Cell = tuple[int, int]


class DPT:
    """Synthetic generation from a noisy prefix tree."""

    def __init__(
        self,
        epsilon: float = 1.0,
        grid: int = 24,
        order: int = 1,
        sampling_interval: float = 186.0,
        seed: int | None = None,
    ) -> None:
        if grid < 2:
            raise ValueError("grid must be at least 2")
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        self.epsilon = epsilon
        self.grid = grid
        self.order = order
        self.sampling_interval = sampling_interval
        self.seed = seed
        # Even three-way budget split: starts, transitions, lengths.
        # (With order 2, the transition share is split again between
        # the two tree depths.)
        self._mechanism = LaplaceMechanism(epsilon / 3.0)
        self._deep_mechanism = LaplaceMechanism(epsilon / 6.0)

    def config(self) -> dict:
        """Constructor kwargs reproducing this configuration."""
        return {
            "epsilon": self.epsilon,
            "grid": self.grid,
            "order": self.order,
            "sampling_interval": self.sampling_interval,
            "seed": self.seed,
        }

    def spec(self) -> "MethodSpec":
        """This configuration as a declarative, serializable spec."""
        from repro.api.spec import MethodSpec

        return MethodSpec("dpt", self.config())

    # -- discretization ---------------------------------------------------------

    def _cell_of(self, x: float, y: float, bbox: BBox) -> Cell:
        cx = int((x - bbox.min_x) / max(bbox.width, 1e-9) * self.grid)
        cy = int((y - bbox.min_y) / max(bbox.height, 1e-9) * self.grid)
        return (min(max(cx, 0), self.grid - 1), min(max(cy, 0), self.grid - 1))

    def _cell_centre(self, cell: Cell, bbox: BBox) -> tuple[float, float]:
        return (
            bbox.min_x + (cell[0] + 0.5) * bbox.width / self.grid,
            bbox.min_y + (cell[1] + 0.5) * bbox.height / self.grid,
        )

    def _cell_sequence(self, trajectory: Trajectory, bbox: BBox) -> list[Cell]:
        cells: list[Cell] = []
        for p in trajectory:
            cell = self._cell_of(p.x, p.y, bbox)
            if not cells or cells[-1] != cell:
                cells.append(cell)
        return cells

    # -- model building ------------------------------------------------------------

    def _noisy_counter(
        self, counts: Counter, rng: random.Random, mechanism=None
    ) -> Counter:
        mechanism = mechanism or self._mechanism
        noisy = Counter()
        for key in sorted(counts):
            value = mechanism.perturb_count(counts[key], rng, lower=0)
            if value > 0:
                noisy[key] = value
        return noisy

    def anonymize(self, dataset: TrajectoryDataset) -> TrajectoryDataset:
        result, _ = self.anonymize_with_report(dataset)
        return result

    def anonymize_with_report(
        self, dataset: TrajectoryDataset
    ) -> "tuple[TrajectoryDataset, AnonymizationReport]":
        """Synthesize and return ``(dataset, report)`` together.

        The report's :class:`CompositionLedger` records each model
        feature's Laplace draw next to where it happens, so DPT's
        budget split composes through the same audit trail as the
        frequency pipeline's.
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

        starts: Counter = Counter()
        transitions: dict[Cell, Counter] = defaultdict(Counter)
        deep_transitions: dict[tuple[Cell, Cell], Counter] = defaultdict(Counter)
        lengths: Counter = Counter()
        for trajectory in dataset:
            cells = self._cell_sequence(trajectory, bbox)
            if not cells:
                continue
            starts[cells[0]] += 1
            # Length histogram binned by 16 moves (keeps sensitivity 1).
            lengths[len(cells) // 16] += 1
            for a, b in zip(cells, cells[1:], strict=False):
                transitions[a][b] += 1
            if self.order >= 2:
                for a, b, c in zip(cells, cells[1:], cells[2:], strict=False):
                    deep_transitions[(a, b)][c] += 1

        noisy_starts = self._noisy_counter(starts, rng)
        ledger.record("dpt/start_counts", self.epsilon / 3.0)
        noisy_lengths = self._noisy_counter(lengths, rng)
        ledger.record("dpt/trip_lengths", self.epsilon / 3.0)
        depth_mechanism = (
            self._deep_mechanism if self.order >= 2 else self._mechanism
        )
        ledger.record(
            "dpt/transitions",
            self.epsilon / (6.0 if self.order >= 2 else 3.0),
        )
        noisy_transitions = {
            cell: counter
            for cell, counter in (
                (c, self._noisy_counter(k, rng, depth_mechanism))
                for c, k in sorted(transitions.items())
            )
            if counter
        }
        noisy_deep: dict[tuple[Cell, Cell], Counter] = {}
        if self.order >= 2:
            ledger.record("dpt/deep_transitions", self.epsilon / 6.0)
            noisy_deep = {
                context: counter
                for context, counter in (
                    (ctx, self._noisy_counter(k, rng, self._deep_mechanism))
                    for ctx, k in sorted(deep_transitions.items())
                )
                if counter
            }

        synthetic = [
            self._synthesize(
                f"dpt{index:05d}",
                noisy_starts,
                noisy_transitions,
                noisy_deep,
                noisy_lengths,
                bbox,
                rng,
            )
            for index in range(len(dataset))
        ]
        return TrajectoryDataset(synthetic)

    # -- synthesis -------------------------------------------------------------------

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

    def _synthesize(
        self,
        object_id: str,
        starts: Counter,
        transitions: dict[Cell, Counter],
        deep_transitions: dict[tuple[Cell, Cell], Counter],
        lengths: Counter,
        bbox: BBox,
        rng: random.Random,
    ) -> Trajectory:
        if not starts:
            return Trajectory(object_id, [])
        current = self._sample(starts, rng)
        bin_index = self._sample(lengths, rng) if lengths else 1
        target = max(2, bin_index * 16 + rng.randrange(16))
        cells = [current]
        while len(cells) < target:
            options = None
            if self.order >= 2 and len(cells) >= 2:
                # Prefix-tree walk: prefer the deeper context, back off
                # to order 1 when the noisy tree lacks it.
                options = deep_transitions.get((cells[-2], cells[-1]))
            if not options:
                options = transitions.get(current)
            if not options:
                break
            current = self._sample(options, rng)
            cells.append(current)
        t = 0.0
        points = []
        for cell in cells:
            x, y = self._cell_centre(cell, bbox)
            points.append(Point(x, y, t))
            t += self.sampling_interval
        return Trajectory(object_id, points)
