"""KLT: k-anonymity + l-diversity + t-closeness on POI semantics [9].

KLT extends GLOVE by requiring each published group to also be
semantically private: the POI categories its members express must be
diverse (at least ``l`` distinct categories) and representative (the
group's category distribution must stay within total-variation distance
``t`` of the global distribution). Groups that fail either test are
merged further.

Real POI databases are unavailable offline, so categories are assigned
to locations by a deterministic hash into ``n_categories`` classes — a
synthetic semantic map that preserves what the algorithm needs: a
stable location→category function with a non-degenerate global
distribution.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from repro.baselines.glove import Glove
from repro.trajectory.distance import synchronized_distance
from repro.trajectory.model import LocationKey, TrajectoryDataset


def poi_category(loc: LocationKey, n_categories: int = 8) -> int:
    """Deterministic synthetic POI category of a location."""
    digest = hashlib.blake2s(
        f"{loc[0]:.0f},{loc[1]:.0f}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big") % n_categories


class KLT(Glove):
    """GLOVE grouping with l-diversity and t-closeness post-conditions."""

    def __init__(
        self,
        k: int = 5,
        l_diversity: int = 3,
        t_closeness: float = 0.1,
        n_categories: int = 8,
        cell_size: float = 500.0,
        time_window: float = 1800.0,
    ) -> None:
        super().__init__(k=k, cell_size=cell_size, time_window=time_window)
        if l_diversity < 1:
            raise ValueError("l must be at least 1")
        if not 0.0 <= t_closeness <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        if n_categories < 1:
            raise ValueError(
                f"n_categories must be at least 1, got {n_categories}"
            )
        self.l_diversity = l_diversity
        self.t_closeness = t_closeness
        self.n_categories = n_categories

    # -- semantic tests -----------------------------------------------------------

    def _category_histogram(
        self, dataset: TrajectoryDataset, members: list[int]
    ) -> Counter:
        histogram: Counter = Counter()
        for index in members:
            for loc in dataset[index].distinct_locations():
                histogram[poi_category(loc, self.n_categories)] += 1
        return histogram

    def _satisfies_l_diversity(self, histogram: Counter) -> bool:
        return len(histogram) >= self.l_diversity

    def _satisfies_t_closeness(
        self, histogram: Counter, global_histogram: Counter
    ) -> bool:
        """Total-variation distance between group and global distributions."""
        total = sum(histogram.values())
        global_total = sum(global_histogram.values())
        if total == 0 or global_total == 0:
            return False
        distance = 0.5 * sum(
            abs(
                histogram.get(c, 0) / total
                - global_histogram.get(c, 0) / global_total
            )
            for c in range(self.n_categories)
        )
        return distance <= self.t_closeness

    # -- grouping with semantic repair ----------------------------------------------

    def _groups(self, dataset: TrajectoryDataset) -> list[list[int]]:
        groups = super()._groups(dataset)
        global_histogram = self._category_histogram(
            dataset, list(range(len(dataset)))
        )
        # Merge semantically failing groups with their cheapest partner
        # until every group passes or only one group remains.
        progress = True
        while progress and len(groups) > 1:
            progress = False
            for group in list(groups):
                histogram = self._category_histogram(dataset, group)
                if self._satisfies_l_diversity(histogram) and (
                    self._satisfies_t_closeness(histogram, global_histogram)
                ):
                    continue
                others = [g for g in groups if g is not group]
                if not others:
                    break
                rep = self._representative(dataset, group)
                partner = min(
                    others,
                    key=lambda g: synchronized_distance(
                        rep, self._representative(dataset, g)
                    ),
                )
                groups.remove(group)
                partner.extend(group)
                progress = True
                break
        return groups
