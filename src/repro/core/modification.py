"""Intra- and inter-trajectory modification (Section IV-B).

Given the perturbed frequency distributions produced by the mechanisms,
these optimisers edit trajectories so the published data *satisfies*
the noisy distributions while greedily minimising utility loss:

* :class:`IntraTrajectoryModifier` realises each trajectory's perturbed
  PF distribution (Definition 9) by reducing frequency changes to
  K-nearest-segment searches (Definition 10) over one flat column
  store per trajectory;
* :class:`InterTrajectoryModifier` realises the dataset's perturbed TF
  distribution (Definition 7) by reducing trajectory selection to
  K-nearest-trajectory searches (Definition 8), aggregated from a
  shared dataset-wide segment index.

The shared index follows the fleet's size: below
:data:`MIN_SEGMENTS_FOR_GRID` segments it is the flat
:class:`~repro.index.linear.LinearSegmentIndex`, at or above it the
paper's hierarchical grid (Section IV-C) at its finest granularity of
512x512. Every index answers kNN in the same ``(distance, sid)`` order,
so the choice never changes an output byte, only the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

from repro.core.edits import EditableTrajectory
from repro.core.global_mechanism import TFPerturbation
from repro.core.local_mechanism import PFPerturbation
from repro.geo.geometry import BBox
from repro.index.base import SegmentIndex
from repro.index.linear import LinearSegmentIndex
from repro.trajectory.model import LocationKey, Trajectory, TrajectoryDataset

IndexFactory = Callable[[BBox], SegmentIndex]

#: Margin added around bounding boxes so inserted points near the edge
#: still fall inside the grid extent, as a fraction of the bbox
#: diagonal. A relative margin keeps grid cell resolution intact
#: regardless of coordinate scale: a fixed absolute margin (the old
#: behaviour was a flat 10.0) inflated a lat/lon-degree-scale extent
#: ~1000x and collapsed every grid level onto the same few cells.
_BBOX_MARGIN_FRACTION = 0.01

#: Absolute floor so degenerate (point-like) bboxes still get a
#: non-zero extent to grid over.
_BBOX_MARGIN_FLOOR = 1e-6


def index_extent(bbox: BBox) -> BBox:
    """The grid extent used when indexing data bounded by ``bbox``."""
    margin = max(
        _BBOX_MARGIN_FRACTION * math.hypot(bbox.width, bbox.height),
        _BBOX_MARGIN_FLOOR,
    )
    return bbox.expand(margin)


#: Segments from which the global stage searches the paper's grid.
#: Below it, one numpy pass over every segment costs less than the
#: grid's per-segment bookkeeping. The crossover was measured on a
#: 2-core host (docs/architecture.md, "Which shared index"); a module
#: constant, not an option, like ``MIN_POINTS_PER_WORKER``.
MIN_SEGMENTS_FOR_GRID = 35_000


@dataclass(slots=True)
class ModificationReport:
    """Aggregate outcome of a modification pass."""

    utility_loss: float = 0.0
    insertions: int = 0
    deletions: int = 0
    #: Frequency changes that could not be realised (e.g. an insertion
    #: target had no segments left). Kept for diagnostics; should be
    #: zero on realistic data.
    unrealised: int = 0

    def merge(self, other: "ModificationReport") -> None:
        self.utility_loss += other.utility_loss
        self.insertions += other.insertions
        self.deletions += other.deletions
        self.unrealised += other.unrealised


class IntraTrajectoryModifier:
    """Realises a perturbed PF distribution on a single trajectory.

    Each trajectory is edited over its own flat
    :class:`~repro.index.linear.LinearSegmentIndex`: a few hundred
    segments are measured faster in one vectorised pass than through
    any grid the edits would have to maintain, and since every backend
    returns the same ``(distance, sid)`` order, the flat store is the
    same answer at the lowest cost.
    """

    def apply(
        self, trajectory: Trajectory, perturbation: PFPerturbation
    ) -> tuple[Trajectory, ModificationReport]:
        """A new trajectory satisfying ``perturbation``, plus the report.

        Deletions run before insertions so freed capacity never forces
        an insertion into a segment that is about to disappear.
        """
        report = ModificationReport()
        if len(trajectory) == 0:
            return trajectory.copy(), report
        editable = EditableTrajectory(trajectory, LinearSegmentIndex())

        for loc, count in sorted(perturbation.decreases()):
            outcome = editable.delete_cheapest(loc, count)
            report.utility_loss += outcome.utility_loss
            report.deletions += -outcome.delta_points
            if -outcome.delta_points < count:
                report.unrealised += count + outcome.delta_points

        for loc, count in sorted(perturbation.increases()):
            report.merge(self._insert(editable, loc, count))

        return editable.to_trajectory(), report

    def _insert(
        self, editable: EditableTrajectory, loc: LocationKey, count: int
    ) -> ModificationReport:
        """Insert ``count`` occurrences into the nearest segments.

        Mirrors Algorithm 3's usage: one top-``∆f`` search — the first
        ``∆f`` hits of the flat index's nearest-first scan — then one
        insertion per returned segment (splitting a segment does not
        invalidate the other results).
        """
        report = ModificationReport()
        hits = list(islice(editable.index.iter_nearest(loc), count))
        for sid, _ in hits:
            outcome = editable.insert_into_segment(loc, sid)
            report.utility_loss += outcome.utility_loss
            report.insertions += 1
        for _ in range(count - len(hits)):
            # Degenerate trajectory with no segments: append instead.
            outcome = editable.append(loc)
            report.utility_loss += outcome.utility_loss
            report.insertions += 1
        return report


def containing_map(
    editables: dict[str, "EditableTrajectory"],
) -> dict[LocationKey, list[str]]:
    """Location -> ids of the trajectories passing through it.

    Owners are listed in dataset order. One pass over every
    trajectory's distinct locations replaces a full-dataset membership
    scan per location. The map stays valid for a whole TF phase: a
    pending location's containment changes only through that
    location's own operation (decreases delete only their own
    location's occurrences, increases insert only their own).
    """
    mapping: dict[LocationKey, list[str]] = {}
    for object_id, editable in editables.items():
        for loc in editable.locations():
            mapping.setdefault(loc, []).append(object_id)
    return mapping


def rank_containing(
    editables: dict[str, "EditableTrajectory"],
    loc: LocationKey,
    owners: Sequence[str],
) -> list["EditableTrajectory"]:
    """The ``owners`` containing ``loc``, cheapest complete deletion first.

    ``owners`` comes from :func:`containing_map`, in dataset order; the
    sort is stable, so equal-cost trajectories keep that order — the
    deterministic ranking both the serial TF-decrease loop and the wave
    planner's read-only simulation share.
    """
    containing = [editables[owner] for owner in owners]
    containing.sort(key=lambda e: e.complete_deletion_cost(loc))
    return containing


def apply_decrease_selection(
    editables: dict[str, "EditableTrajectory"],
    loc: LocationKey,
    delta: int,
    owners: Sequence[str],
    containing_count: int,
) -> ModificationReport:
    """Delete every occurrence of ``loc`` from the chosen ``owners``.

    The application half of a TF decrease: ``owners`` is the ranked
    selection (at most ``delta`` ids), ``containing_count`` how many
    trajectories contained ``loc`` when the selection was made.
    """
    report = ModificationReport()
    for owner in owners:
        outcome = editables[owner].delete_all(loc)
        report.utility_loss += outcome.utility_loss
        report.deletions += -outcome.delta_points
    if containing_count < delta:
        report.unrealised += delta - containing_count
    return report


def apply_increase_selection(
    shared_index: SegmentIndex,
    editables: dict[str, "EditableTrajectory"],
    loc: LocationKey,
    delta: int,
    chosen: Sequence[tuple[str, int]],
) -> ModificationReport:
    """Insert ``loc`` into each chosen ``(owner, sid)`` segment.

    The application half of a TF increase, shared by the serial
    per-location loop and the wave executor: selections are applied in
    selection order, with the stale-sid guard intact (a chosen segment
    that vanished through an earlier edit is replaced by the owner's
    nearest live segment).
    """
    report = ModificationReport()
    performed = 0
    for owner, sid in chosen:
        editable = editables[owner]
        if not editable.node_for_segment(sid):
            # The segment vanished through an earlier edit (cannot
            # happen within one loc's batch, but guard anyway).
            replacement = nearest_live_segment_of_owner(
                shared_index, loc, editable
            )
            if replacement is None:
                continue
            sid = replacement
        outcome = editable.insert_into_segment(loc, sid)
        report.utility_loss += outcome.utility_loss
        report.insertions += 1
        performed += 1
    report.unrealised += delta - performed
    return report


def nearest_live_segment_of_owner(
    shared_index: SegmentIndex, loc: LocationKey, editable: "EditableTrajectory"
) -> int | None:
    """The owner's nearest *live* segment to ``loc``, or None.

    Consumes the incremental frontier lazily and verifies each hit
    against the editable's own segment table: a stale sid that still
    matches the owner in the shared index but no longer exists on the
    trajectory must not be returned (inserting into it would raise).
    """
    for sid, _ in shared_index.iter_nearest(loc):
        if (
            shared_index.owner_of(sid) == editable.object_id
            and editable.node_for_segment(sid)
        ):
            return sid
    return None


class InterTrajectoryModifier:
    """Realises a perturbed global TF distribution on the whole dataset.

    The Δl nearest trajectories of a TF increase (Definition 8) are
    found by scanning the shared segment index outward from the
    location and keeping the first Δl distinct eligible owners.
    ``candidate_source`` controls how those candidates are obtained:

    * ``"incremental"`` (default) — the per-location loop: pull
      candidates lazily from the index's resumable ``iter_nearest``
      frontier, stopping the moment Δl owners are found;
    * ``"wave"`` — the planner/executor path: group locations into
      conflict-free *waves* (see :mod:`repro.core.waves`), simulate
      each wave's selections read-only against one static index
      snapshot (sharing the batched per-cell distance kernels), then
      apply the recorded decisions in serial order. Byte-identical to
      ``"incremental"`` by construction, and slower at every measured
      fleet size; kept as the independent reference the identity
      tests compare the loop against.

    The shared index is chosen by :meth:`shared_index`: the flat
    :class:`~repro.index.linear.LinearSegmentIndex` below
    :data:`MIN_SEGMENTS_FOR_GRID` segments, the paper's hierarchical
    grid at or above it, and always the grid for ``"wave"``, whose
    planner's per-candidate ``knn`` calls are slow on a full scan.
    ``index_factory`` exists so tests can substitute any index over the
    same extent and compare bytes; when given, it always wins.
    """

    def __init__(
        self,
        index_factory: IndexFactory | None = None,
        candidate_source: str = "incremental",
    ) -> None:
        if candidate_source not in ("incremental", "wave"):
            raise ValueError(
                f"unknown candidate source {candidate_source!r}"
            )
        self.index_factory = index_factory
        self.candidate_source = candidate_source
        #: Diagnostics of the most recent wave-planned run (None for
        #: the serial loop), akin to an index's ``last_stats``.
        self.last_wave_stats = None

    def apply(
        self, dataset: TrajectoryDataset, perturbation: TFPerturbation
    ) -> tuple[TrajectoryDataset, ModificationReport]:
        """A new dataset satisfying the perturbed TF distribution."""
        report = ModificationReport()
        if len(dataset) == 0:
            return dataset.copy(), report
        shared_index = self.shared_index(dataset)
        editables = {
            trajectory.object_id: EditableTrajectory(trajectory, shared_index)
            for trajectory in dataset
        }

        if self.candidate_source == "wave":
            self._apply_waves(shared_index, editables, perturbation, report)
        else:
            self._apply_serial(shared_index, editables, perturbation, report)

        modified = TrajectoryDataset(
            editables[trajectory.object_id].to_trajectory() for trajectory in dataset
        )
        return modified, report

    def shared_index(self, dataset: TrajectoryDataset) -> SegmentIndex:
        """A fresh, empty shared index for ``dataset``'s global stage.

        Only a grid reads the dataset's extent, so the flat scan never
        pays for the bounding box, and only this branch imports the grid.
        """
        if self.index_factory is not None:
            return self.index_factory(index_extent(dataset.bbox()))
        segments = dataset.total_points() - len(dataset)
        if self.candidate_source == "wave" or segments >= MIN_SEGMENTS_FOR_GRID:
            from repro.index.hierarchical import HierarchicalGridIndex

            # The paper's grid at its finest granularity of 512x512.
            return HierarchicalGridIndex(index_extent(dataset.bbox()), levels=10)
        return LinearSegmentIndex()

    def _apply_serial(
        self,
        shared_index: SegmentIndex,
        editables: dict[str, EditableTrajectory],
        perturbation: TFPerturbation,
        report: ModificationReport,
    ) -> None:
        """The per-location reference loop (Algorithm 3's order)."""
        # TF decreases: completely delete the location from the Δl
        # trajectories with the cheapest complete-deletion loss.
        containing = containing_map(editables)
        for loc, delta in sorted(perturbation.decreases()):
            ranked = rank_containing(editables, loc, containing.get(loc, ()))
            report.merge(
                apply_decrease_selection(
                    editables,
                    loc,
                    delta,
                    [e.object_id for e in ranked[:delta]],
                    len(ranked),
                )
            )

        # TF increases: insert the location once into each of the Δl
        # nearest trajectories that do not already pass through it.
        containing = containing_map(editables)
        for loc, delta in sorted(perturbation.increases()):
            report.merge(
                self._insert_into_nearest_trajectories(
                    shared_index,
                    editables,
                    loc,
                    delta,
                    set(containing.get(loc, ())),
                )
            )

    def _apply_waves(
        self,
        shared_index: SegmentIndex,
        editables: dict[str, EditableTrajectory],
        perturbation: TFPerturbation,
        report: ModificationReport,
    ) -> None:
        """Drive the planner/executor pair over the TF schedule."""
        from repro.core.waves import WaveExecutor, WavePlanner

        planner = WavePlanner(shared_index, editables)
        executor = WaveExecutor(shared_index, editables)
        for kind, pending in perturbation.schedule():
            while pending:
                wave, pending = planner.plan_wave(kind, pending)
                executor.apply_wave(kind, wave, report)
        self.last_wave_stats = planner.stats

    def _insert_into_nearest_trajectories(
        self,
        shared_index: SegmentIndex,
        editables: dict[str, EditableTrajectory],
        loc: LocationKey,
        delta: int,
        ineligible: set[str],
    ) -> ModificationReport:
        """K-nearest-trajectory search via the shared segment index.

        A trajectory's insertion loss is the distance of its nearest
        segment (Definition 8), so scanning segments in ascending
        distance yields trajectories in ascending insertion loss; we
        keep the first ``delta`` distinct owners not in ``ineligible``
        (the trajectories already passing through ``loc``).
        """
        if len(ineligible) >= len(editables):
            return ModificationReport(unrealised=delta)
        # Pull the index's resumable frontier only until Δl owners are
        # found: the scan never goes farther than the Δl-th selected
        # trajectory's nearest segment (Algorithm 3's pruning carried
        # across candidates).
        chosen: dict[str, int] = {}  # object id -> best segment sid
        for sid, _ in shared_index.iter_nearest(loc):
            owner = shared_index.owner_of(sid)
            if owner not in ineligible and owner not in chosen:
                chosen[owner] = sid
                if len(chosen) >= delta:
                    break
        return apply_increase_selection(
            shared_index, editables, loc, delta, list(chosen.items())
        )
