"""Trajectory signatures: representative + distinctive locations.

Section III-B1 of the paper. For every location ``p`` in trajectory τ of
dataset D:

* representativeness = PF(p, τ) / |τ| — how often the user is there;
* distinctiveness   = log(|D| / TF(p, D)) — how few others go there;
* weight(p, τ)      = representativeness x distinctiveness.

The top-``m`` locations by weight form the trajectory's *signature*
``s_m(τ)``; the union of all signatures is the candidate set ``P`` that
both mechanisms perturb.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from repro.trajectory.model import LocationKey, Trajectory, TrajectoryDataset


@dataclass(frozen=True, slots=True)
class SignatureEntry:
    """One location of a trajectory's signature, with its statistics."""

    loc: LocationKey
    point_frequency: int
    trajectory_frequency: int
    weight: float


@dataclass(slots=True)
class SignatureIndex:
    """Signatures for every trajectory of a dataset plus the set P."""

    m: int
    #: object id -> top-m signature entries, best first.
    signatures: dict[str, list[SignatureEntry]]
    #: The candidate set P: every location appearing in some signature.
    candidate_set: set[LocationKey]
    #: Dataset-level TF distribution restricted to P.
    tf: dict[LocationKey, int]

    def signature_locations(self, object_id: str) -> list[LocationKey]:
        return [entry.loc for entry in self.signatures[object_id]]

    @property
    def dimensionality(self) -> int:
        """d = |P| — the length of the global TF vector."""
        return len(self.candidate_set)


class SignatureExtractor:
    """Computes weights and extracts top-m signatures (Section III-B1)."""

    def __init__(self, m: int = 10) -> None:
        if m < 1:
            raise ValueError("signature size m must be at least 1")
        self.m = m

    def weights(
        self,
        trajectory: Trajectory,
        tf: Counter,
        dataset_size: int,
        pf: Counter | None = None,
    ) -> dict[LocationKey, float]:
        """weight(p) = (PF/|τ|) * log(|D|/TF) for every location of τ.

        ``pf`` passes ``trajectory.point_frequencies()`` when the
        caller already has it.
        """
        if len(trajectory) == 0:
            return {}
        if pf is None:
            pf = trajectory.point_frequencies()
        n = float(len(trajectory))
        result: dict[LocationKey, float] = {}
        for loc, frequency in pf.items():
            lp = tf.get(loc, 1)
            distinctiveness = math.log(dataset_size / lp) if dataset_size > 0 else 0.0
            result[loc] = (frequency / n) * distinctiveness
        return result

    def signature_of(
        self,
        trajectory: Trajectory,
        tf: Counter,
        dataset_size: int,
        pf: Counter | None = None,
    ) -> list[SignatureEntry]:
        """Top-m locations of one trajectory by descending weight.

        Ties are broken by location key so extraction is deterministic.
        ``pf`` is as for :meth:`weights`.
        """
        if pf is None:
            pf = trajectory.point_frequencies()
        weights = self.weights(trajectory, tf, dataset_size, pf)
        ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
        return [
            SignatureEntry(loc, pf[loc], tf.get(loc, 0), weight)
            for loc, weight in ranked[: self.m]
        ]

    def extract(
        self, dataset: TrajectoryDataset, tf: Counter | None = None
    ) -> SignatureIndex:
        """Signatures for every trajectory plus the candidate set P.

        ``tf`` accepts a precomputed ``dataset.trajectory_frequencies()``
        so callers that already scanned the dataset (the streaming
        publisher's estimate pass) don't pay for a second full scan.
        Each trajectory's points are read once: its PF distribution
        yields its weights, its signature entries and, when ``tf`` is
        not given, its share of the TF distribution.
        """
        pfs = [trajectory.point_frequencies() for trajectory in dataset]
        if tf is None:
            tf = Counter()
            for pf in pfs:
                tf.update(pf.keys())
        n = len(dataset)
        signatures: dict[str, list[SignatureEntry]] = {}
        candidate_set: set[LocationKey] = set()
        for trajectory, pf in zip(dataset, pfs, strict=True):
            entries = self.signature_of(trajectory, tf, n, pf)
            signatures[trajectory.object_id] = entries
            candidate_set.update(entry.loc for entry in entries)
        tf_restricted = {loc: tf[loc] for loc in candidate_set}
        return SignatureIndex(
            m=self.m,
            signatures=signatures,
            candidate_set=candidate_set,
            tf=tf_restricted,
        )


def select_perturbation_targets(
    trajectory: Trajectory,
    signature: list[SignatureEntry],
    candidate_set: set[LocationKey],
    m: int,
    rng: random.Random,
) -> list[LocationKey]:
    """The 2m-location list P_L(τ) the local mechanism perturbs.

    Per the paper: start from the trajectory's own top-ranked signature
    (which lies in P by construction), then prefer other locations of
    the trajectory that appear in P ("raising their frequency brings a
    confusing message as additional benefit"), then fall back to random
    remaining locations until the list holds ``2m`` entries — or every
    distinct location of the trajectory, whichever is smaller.
    """
    targets: list[LocationKey] = []
    chosen: set[LocationKey] = set()
    for entry in signature[:m]:
        if entry.loc not in chosen:
            targets.append(entry.loc)
            chosen.add(entry.loc)
    budget = 2 * m

    trajectory_locations = trajectory.distinct_locations()
    in_candidate_set = sorted(
        loc
        for loc in trajectory_locations
        if loc in candidate_set and loc not in chosen
    )
    for loc in in_candidate_set:
        if len(targets) >= budget:
            break
        targets.append(loc)
        chosen.add(loc)

    remaining = sorted(trajectory_locations - chosen)
    rng.shuffle(remaining)
    for loc in remaining:
        if len(targets) >= budget:
            break
        targets.append(loc)
        chosen.add(loc)
    return targets
