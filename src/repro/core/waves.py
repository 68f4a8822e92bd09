"""Wave-parallel planning/execution of the global modification stage.

The serial reference (``InterTrajectoryModifier._apply_serial``)
processes TF locations strictly one at a time: each location's
K-nearest-trajectory search runs against the index state left behind by
every earlier location's edits. That interleaving is what makes the
global stage the pipeline's hot path — every edit invalidates per-cell
segment batches that the very next search must rebuild, and nothing can
be batched.

This module splits the stage into a planner/executor pair:

* :class:`WavePlanner` walks the remaining locations *in serial order*
  and simulates each one's selection **read-only** against the current
  index snapshot, recording the decisions (which owners get edited and
  through which segments) together with the evidence the decision rests
  on. Locations are admitted into the current *wave* until the first
  conflict; the conflicting location and everything after it wait for
  the next wave, and already-simulated plans are cached and revalidated
  rather than recomputed.
* :class:`WaveExecutor` applies an admitted wave's recorded decisions —
  cheap edits, no searches — in serial order, so segment ids are
  allocated in exactly the order the serial loop would allocate them.

Wave-disjointness invariant
---------------------------

A location ``m`` may join a wave after location ``l`` only if ``l``'s
planned edits provably cannot influence ``m``'s simulated outcome:

1. **TF decreases** never read the shared index — a decrease ranks the
   trajectories containing its location by complete-deletion cost, and
   a node's deletion cost reads only its direct neighbours. Deleting
   every occurrence of ``l``'s location re-links exactly the nodes
   flanking each deleted run, so ``m`` is affected **iff** ``m``'s
   location is one of those flanking locations. The planner records the
   flanking locations each decrease *exposes*; a candidate conflicts
   when its own location is exposed by the wave so far.
2. **TF increases** consume the frontier's ascending-distance prefix
   until the Δl-th distinct eligible owner appears. The prefix — and
   hence the selection — changes only if a wave-mate (a) **removes a
   segment the prefix contained** (an insertion splits its target
   segment; tested as scanned-sid ∩ removed-sid overlap), or (b)
   **creates a segment closer than the stopping radius** (the two
   chords through the inserted point can pass nearer than any original
   segment; tested against the exact planned chord geometry with one
   vectorised distance pass behind a bounding-box prefilter).

Together with in-order execution these guarantee each executed decision
is exactly the decision the serial loop would have made, so the output
dataset — point sequences, report tallies, even the index's internal
sid allocation — is byte-identical to the serial reference. Ties at the
stopping radius are safe: newly created segments always carry larger
sids than every segment the simulation saw, and all frontier
implementations order equal distances by ascending sid.

The simulations inside one planning round run against one static
snapshot, so one batched vectorised kNN pass (``knn_batch`` — per-cell
``SegmentArray`` batches built once per chunk) answers almost every
selection; a tie-boundary case rescans with ``knn`` at four
times the ``k``, until the answer is prefix-exact or ``k`` covers the
whole index. Planning runs in-process, on the thread that drives the
stage.

The serial per-location loop is the default global stage and is faster
at every measured fleet size; this path is opt-in
(``candidate_source="wave"``), kept as the independent reference the
identity tests compare the loop against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.geo.vectorized import SegmentArray
from repro.trajectory.model import LocationKey

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.edits import EditableTrajectory
    from repro.core.modification import ModificationReport
    from repro.index.base import SegmentIndex

#: A pending TF operation: (location, positive delta).
PendingOp = tuple[LocationKey, int]

#: Relative slack on the stopping-radius conflict test, absorbing the
#: (at most a few ulp) difference between the scalar and vectorised
#: point-segment distance kernels. Overshooting only costs an extra
#: conflict, never correctness.
_RADIUS_RTOL = 1e-9
_RADIUS_ATOL = 1e-12


@dataclass(frozen=True, slots=True)
class PlannedOp:
    """One location's simulated decisions plus its conflict evidence."""

    loc: LocationKey
    delta: int
    #: TF increases: the ``(owner, sid)`` selections in selection
    #: order. TF decreases: ``(owner, -1)`` per chosen trajectory, in
    #: deletion order.
    choices: tuple[tuple[str, int], ...]
    #: Increases: every sid the frontier yielded before stopping — the
    #: evidence prefix the selection rests on. Empty for decreases.
    scanned_sids: frozenset[int]
    #: Increases: stopping radius of the scan — the distance of the
    #: last frontier segment consumed. ``-inf`` when nothing was
    #: scanned (no eligible owner, or a decrease), ``+inf`` when the
    #: frontier was exhausted before Δl owners appeared.
    radius: float
    #: Increases: exact segments the insertions will create, as
    #: ``(a, b)`` coordinate pairs.
    created: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    #: Decreases: locations flanking the deleted runs — the only
    #: locations whose own decrease outcomes the edits can change.
    exposed: frozenset[LocationKey]
    #: Decreases: how many trajectories contained the location at
    #: simulation time (feeds the unrealised tally).
    containing_count: int = 0


@dataclass(slots=True)
class WaveStats:
    """Diagnostics of one wave-planned run."""

    #: Waves executed (admission rounds across both phases).
    waves: int = 0
    #: Locations planned and executed.
    operations: int = 0
    #: Admissions refused (the location that ended each wave).
    conflicts: int = 0
    #: Simulations performed (== operations when every cached plan
    #: stayed valid; higher when invalidations forced re-simulation).
    simulations: int = 0
    #: Cached speculative simulations invalidated by executed waves.
    discarded: int = 0
    #: Rescans of batched-kNN simulations that hit a tie/window
    #: boundary: each re-runs ``knn`` with ``k`` quadrupled.
    fallbacks: int = 0

    @property
    def mean_wave_size(self) -> float:
        """Operations per wave: the stage's available parallelism."""
        if self.waves == 0:
            return 1.0
        return self.operations / self.waves


class _CreatedGeometry:
    """Accumulates a wave's planned new segments for proximity tests.

    Keeps a running bounding box as a cheap prefilter and rebuilds the
    vectorised :class:`SegmentArray` only when a test actually reaches
    it after new segments arrived.
    """

    def __init__(self) -> None:
        self._pairs: list[tuple[tuple[float, float], tuple[float, float]]] = []
        self._array: SegmentArray | None = None
        self._min_x = self._min_y = math.inf
        self._max_x = self._max_y = -math.inf

    def extend(
        self, pairs: Iterable[tuple[tuple[float, float], tuple[float, float]]]
    ) -> None:
        for a, b in pairs:
            self._pairs.append((a, b))
            self._array = None
            self._min_x = min(self._min_x, a[0], b[0])
            self._min_y = min(self._min_y, a[1], b[1])
            self._max_x = max(self._max_x, a[0], b[0])
            self._max_y = max(self._max_y, a[1], b[1])

    def intrudes(self, loc: LocationKey, radius: float) -> bool:
        """Does any accumulated segment come within ``radius`` of ``loc``?"""
        if not self._pairs or radius == -math.inf:
            return False
        slack = _RADIUS_RTOL * max(1.0, abs(radius)) + _RADIUS_ATOL
        if radius != math.inf:
            # Bounding-box prefilter: the cheap common case.
            dx = max(self._min_x - loc[0], loc[0] - self._max_x, 0.0)
            dy = max(self._min_y - loc[1], loc[1] - self._max_y, 0.0)
            if math.hypot(dx, dy) > radius + slack:
                return False
        if self._array is None:
            self._array = SegmentArray.from_pairs(self._pairs)
        return self._array.min_distance_to(loc) <= radius + slack


class _WaveFootprint:
    """Everything an admitted wave's edits can touch, accumulated."""

    def __init__(self) -> None:
        self.removed_sids: set[int] = set()
        self.created = _CreatedGeometry()
        self.exposed: set[LocationKey] = set()

    def admit(self, plan: PlannedOp) -> None:
        if plan.created:
            self.removed_sids.update(sid for _, sid in plan.choices)
            self.created.extend(plan.created)
        self.exposed |= plan.exposed

    def conflicts(self, plan: PlannedOp) -> bool:
        """May the accumulated edits influence ``plan``'s outcome?"""
        if plan.loc in self.exposed:
            return True
        if not plan.scanned_sids.isdisjoint(self.removed_sids):
            return True
        return self.created.intrudes(plan.loc, plan.radius)


class WavePlanner:
    """Plans conflict-free waves by read-only simulation.

    Parameters
    ----------
    shared_index, editables:
        The live global-stage state (never mutated by the planner).
    chunk_size:
        How many pending locations are simulated speculatively per
        admission round. Larger chunks amortise the batched index
        surface better; over-simulated plans are cached and
        revalidated, not discarded, so the cost of overshooting is
        low.
    """

    def __init__(
        self,
        shared_index: "SegmentIndex",
        editables: dict[str, "EditableTrajectory"],
        chunk_size: int = 32,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.shared_index = shared_index
        self.editables = editables
        self.chunk_size = chunk_size
        self.stats = WaveStats()
        #: Simulations not admitted into the wave they were computed
        #: for. A cached plan stays valid as long as every executed
        #: wave since keeps passing the conflict test against it —
        #: exactly the admission invariant — so most locations are
        #: simulated once even when conflicts cut waves short.
        self._cache: dict[LocationKey, PlannedOp] = {}
        self._cache_kind: str | None = None
        #: The wave most recently handed to the executor; its edits
        #: are validated against the cache on the next planning call.
        self._last_wave: list[PlannedOp] = []
        #: The phase's containment map (location -> owner ids), see
        #: :func:`~repro.core.modification.containing_map`.
        self._containing_by_loc: dict[LocationKey, list[str]] | None = None

    # -- public driver ---------------------------------------------------------

    def plan_wave(
        self, kind: str, pending: list[PendingOp]
    ) -> tuple[list[PlannedOp], list[PendingOp]]:
        """The next wave: a maximal conflict-free serial-order prefix.

        Returns ``(wave, still_pending)``. The caller must execute the
        returned wave before asking for the next one — the planner
        revalidates its speculation cache against those edits. The
        first pending location is always admitted, so progress is
        guaranteed; in the worst case (every location conflicting with
        its predecessor) the stage degenerates gracefully into the
        serial per-location loop.
        """
        if kind not in ("decrease", "increase"):
            raise ValueError(f"unknown operation kind {kind!r}")
        self._revalidate_cache(kind)
        admitted: list[PlannedOp] = []
        footprint = _WaveFootprint()
        index = 0
        while index < len(pending):
            chunk = pending[index : index + self.chunk_size]
            for plan in self._plan_chunk(kind, chunk):
                if admitted and footprint.conflicts(plan):
                    # The wave ends here. This plan is stale (it saw
                    # none of the wave's edits) but its chunk-mates
                    # were simulated against the same snapshot and are
                    # still unjudged: they stay cached for the next
                    # round.
                    self.stats.conflicts += 1
                    self._cache.pop(plan.loc, None)
                    self.stats.waves += 1
                    self._last_wave = admitted
                    return admitted, pending[index:]
                admitted.append(plan)
                self.stats.operations += 1
                self._cache.pop(plan.loc, None)
                footprint.admit(plan)
                index += 1
        self.stats.waves += 1
        self._last_wave = admitted
        return admitted, []

    def _revalidate_cache(self, kind: str) -> None:
        """Drop cached plans the last executed wave may have staled."""
        if kind != self._cache_kind:
            self._cache.clear()
            self._cache_kind = kind
            self._containing_by_loc = None  # rebuilt on phase entry
        wave, self._last_wave = self._last_wave, []
        if not wave or not self._cache:
            return
        footprint = _WaveFootprint()
        for plan in wave:
            footprint.admit(plan)
        for loc in list(self._cache):
            if footprint.conflicts(self._cache[loc]):
                del self._cache[loc]
                self.stats.discarded += 1

    def _plan_chunk(self, kind: str, chunk: list[PendingOp]) -> Iterator[PlannedOp]:
        """Plans for a chunk: cached where valid, simulated otherwise.

        Fresh simulations land in the cache first and are popped on
        admission, so chunk members past a wave-ending conflict are
        retained for later rounds instead of being thrown away.
        """
        missing = [op for op in chunk if op[0] not in self._cache]
        if missing:
            for op, plan in zip(
                missing, self._simulate_chunk(kind, missing), strict=True
            ):
                self._cache[op[0]] = plan
        return iter([self._cache[loc] for loc, _ in chunk])

    # -- simulation --------------------------------------------------------------

    def _simulate_chunk(
        self, kind: str, chunk: list[PendingOp]
    ) -> list[PlannedOp]:
        self.stats.simulations += len(chunk)
        if kind == "decrease":
            return [self._simulate_decrease(op) for op in chunk]
        # One batched vectorised kNN pass answers (almost) every
        # simulation in the chunk: the chunk shares one static
        # snapshot, so per-cell segment batches are built once and the
        # per-query scans reduce to walking a sorted hit list. Queries
        # whose answer cannot be proven prefix-exact from the k hits
        # rescan with a larger k inside :meth:`_simulate_increase`.
        k = max(16, 4 * max(delta for _, delta in chunk))
        hit_lists = self.shared_index.knn_batch([loc for loc, _ in chunk], k)
        return [
            self._simulate_increase(op, hits, k)
            for op, hits in zip(chunk, hit_lists, strict=True)
        ]

    def _containing_map(self) -> dict[LocationKey, list[str]]:
        """The phase's :func:`~repro.core.modification.containing_map`,
        built on first use."""
        if self._containing_by_loc is None:
            from repro.core.modification import containing_map

            self._containing_by_loc = containing_map(self.editables)
        return self._containing_by_loc

    def _simulate_decrease(self, op: PendingOp) -> PlannedOp:
        """Rank complete-deletion costs exactly like the serial loop."""
        from repro.core.modification import rank_containing

        loc, delta = op
        containing = rank_containing(
            self.editables, loc, self._containing_map().get(loc, ())
        )
        chosen = containing[:delta]
        exposed: set[LocationKey] = set()
        for editable in chosen:
            exposed |= editable.adjacent_locations(loc)
        return PlannedOp(
            loc=loc,
            delta=delta,
            choices=tuple((e.object_id, -1) for e in chosen),
            scanned_sids=frozenset(),
            radius=-math.inf,
            created=(),
            exposed=frozenset(exposed),
            containing_count=len(containing),
        )

    def _simulate_increase(
        self, op: PendingOp, hits: list[tuple[int, float]], k: int
    ) -> PlannedOp:
        """Select from a batched kNN hit list, rescanning on ambiguity.

        A ``knn`` result sorted by ``(distance, sid)`` contains *every*
        segment strictly closer than its k-th distance, in exactly the
        order the incremental frontier yields them — so as long as the
        Δl-th owner is found strictly inside that boundary (or the
        hit list already exhausts the index), the selection, the
        scanned-prefix evidence, and the stopping radius are provably
        identical to the serial reference. Only the rare boundary
        cases (stop at the k-th distance, or more than k hits needed)
        rescan, with ``knn`` at four times the ``k``.
        """
        loc, delta = op
        # Owners already passing through the location are ineligible;
        # everything else is fair game. The phase-level inverted map
        # replaces a full-dataset membership scan per simulation.
        ineligible = set(self._containing_map().get(loc, ()))
        if len(ineligible) >= len(self.editables):
            return PlannedOp(
                loc=loc,
                delta=delta,
                choices=(),
                scanned_sids=frozenset(),
                radius=-math.inf,
                created=(),
                exposed=frozenset(),
            )
        while True:
            plan = self._select_from_hits(
                loc, delta, ineligible, hits, exhaustive=len(hits) < k
            )
            if plan is not None:
                return plan
            # Boundary-ambiguous (stop landed on the k-th distance) or
            # window too small: rescan wider. The rescan terminates —
            # once k covers the whole index the scan is exhaustive and
            # always prefix-exact.
            self.stats.fallbacks += 1
            k *= 4
            hits = self.shared_index.knn(loc, k)

    def _select_from_hits(
        self,
        loc: LocationKey,
        delta: int,
        ineligible: set[str],
        hits: list[tuple[int, float]],
        exhaustive: bool,
    ) -> PlannedOp | None:
        """A plan from a sorted hit list, or None when not prefix-exact."""
        chosen: dict[str, int] = {}
        scanned: set[int] = set()
        radius = math.inf  # an exhausted scan covers everything
        stop_distance = None
        for sid, dist in hits:
            scanned.add(sid)
            owner = self.shared_index.owner_of(sid)
            if owner not in ineligible and owner not in chosen:
                chosen[owner] = sid
                if len(chosen) >= delta:
                    stop_distance = dist
                    break
        if stop_distance is not None:
            if not exhaustive and stop_distance >= hits[-1][1]:
                return None
            radius = stop_distance
        elif not exhaustive:
            # Fewer than Δl owners within the window, but the index
            # holds more segments.
            return None
        return self._finish_increase_plan(loc, delta, chosen, scanned, radius)

    def _finish_increase_plan(
        self,
        loc: LocationKey,
        delta: int,
        chosen: dict[str, int],
        scanned: set[int],
        radius: float,
    ) -> PlannedOp:
        created = []
        for sid in chosen.values():
            segment = self.shared_index.segment(sid)
            created.append((segment.a, loc))
            created.append((loc, segment.b))
        return PlannedOp(
            loc=loc,
            delta=delta,
            choices=tuple(chosen.items()),
            scanned_sids=frozenset(scanned),
            radius=radius,
            created=tuple(created),
            exposed=frozenset(),
        )


class WaveExecutor:
    """Applies planned waves in serial order (cheap edits, no searches)."""

    def __init__(
        self,
        shared_index: "SegmentIndex",
        editables: dict[str, "EditableTrajectory"],
    ) -> None:
        self.shared_index = shared_index
        self.editables = editables

    def apply_wave(
        self, kind: str, wave: Sequence[PlannedOp], report: "ModificationReport"
    ) -> None:
        """Apply every planned operation, merging into ``report``.

        Operations run in wave (= serial) order and each one reuses
        the exact application helper the serial loop uses, so edit
        order, sid allocation, and float accumulation all match the
        reference byte for byte.
        """
        from repro.core.modification import (
            apply_decrease_selection,
            apply_increase_selection,
        )

        for plan in wave:
            if kind == "decrease":
                report.merge(
                    apply_decrease_selection(
                        self.editables,
                        plan.loc,
                        plan.delta,
                        [owner for owner, _ in plan.choices],
                        plan.containing_count,
                    )
                )
            elif plan.radius != -math.inf:
                report.merge(
                    apply_increase_selection(
                        self.shared_index,
                        self.editables,
                        plan.loc,
                        plan.delta,
                        plan.choices,
                    )
                )
            else:
                # No eligible trajectory existed at planning time; the
                # serial loop books the whole delta as unrealised.
                report.unrealised += plan.delta
