"""Shift classification: is a new record a regression or a win?

Each tracked key of a candidate :class:`~repro.bench.record.BenchRecord`
is compared against the median of a sliding baseline window of earlier
same-scale records and classified into one of five
:class:`ShiftClass` buckets, symmetric around stability:

====================== =============================================
SIGNIFICANT_IMPROVEMENT  better by ≥ the significant threshold
MINOR_IMPROVEMENT        better by ≥ the minor threshold
STABLE                   within the minor band either way
MINOR_DEGRADATION        worse by ≥ the minor threshold
SIGNIFICANT_DEGRADATION  worse by ≥ the significant threshold (gates)
====================== =============================================

Direction matters per key: wall-clock metrics (``*_s``) are
lower-is-better, derived ratios (``speedups.*``) higher-is-better.
The classification is an exact mirror under a direction flip — a key
that classifies as an improvement under lower-is-better classifies as
the corresponding degradation when the direction is flipped on the
same numbers (property-tested in ``tests/test_bench_shift.py``).

Thresholds are relative (default: 5% minor, 15% significant) and
deliberately configurable per invocation — tuning guidance lives in
``docs/benchmarks.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Sequence

from repro.bench.record import BenchRecord
from repro.bench.stats import summarize

__all__ = [
    "BenchComparison",
    "CrossScaleError",
    "Direction",
    "KeyShift",
    "ShiftClass",
    "Thresholds",
    "classify_shift",
    "compare_records",
    "direction_for",
]


class CrossScaleError(ValueError):
    """Records from different (bench, scale) partitions were compared.

    Timings from different input scales are not comparable — the smoke
    fleet shows ``wave_over_incremental < 1`` where paper scale shows
    ``1.4x`` — so the comparison refuses rather than classify noise.
    """


class ShiftClass(str, enum.Enum):
    SIGNIFICANT_IMPROVEMENT = "significant_improvement"
    MINOR_IMPROVEMENT = "minor_improvement"
    STABLE = "stable"
    MINOR_DEGRADATION = "minor_degradation"
    SIGNIFICANT_DEGRADATION = "significant_degradation"

    @property
    def is_degradation(self) -> bool:
        return self in (
            ShiftClass.MINOR_DEGRADATION,
            ShiftClass.SIGNIFICANT_DEGRADATION,
        )

    @property
    def is_improvement(self) -> bool:
        return self in (
            ShiftClass.MINOR_IMPROVEMENT,
            ShiftClass.SIGNIFICANT_IMPROVEMENT,
        )


class Direction(str, enum.Enum):
    LOWER_IS_BETTER = "lower_is_better"
    HIGHER_IS_BETTER = "higher_is_better"

    def flipped(self) -> "Direction":
        if self is Direction.LOWER_IS_BETTER:
            return Direction.HIGHER_IS_BETTER
        return Direction.LOWER_IS_BETTER


def direction_for(dotted_key: str) -> Direction | None:
    """The per-key direction metadata, ``None`` for untracked keys.

    Seconds metrics (``<group>.<name>_s``) are lower-is-better; every
    derived ``speedups.<name>`` ratio is higher-is-better. Anything
    else (auxiliary counters like ``stream_publisher.chunks``) carries
    no direction and never gates.
    """
    if dotted_key.startswith("speedups."):
        return Direction.HIGHER_IS_BETTER
    if dotted_key.endswith("_s"):
        return Direction.LOWER_IS_BETTER
    return None


@dataclass(frozen=True)
class Thresholds:
    """Relative shift thresholds (fractions of the baseline median)."""

    minor: float = 0.05
    significant: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 < self.minor <= self.significant:
            raise ValueError(
                f"thresholds must satisfy 0 < minor <= significant, got "
                f"minor={self.minor!r} significant={self.significant!r}"
            )


DEFAULT_THRESHOLDS = Thresholds()


def classify_shift(
    candidate: float,
    baseline_median: float,
    direction: Direction,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> ShiftClass:
    """Classify one value against its baseline median.

    The signed relative change is normalized so positive always means
    "worse" under the given direction; the buckets are symmetric, so
    flipping the direction maps improvements to the mirror-image
    degradations exactly (boundaries included).
    """
    if baseline_median <= 0:
        raise ValueError(
            f"baseline median must be positive, got {baseline_median!r}"
        )
    if candidate < 0:
        raise ValueError(f"candidate must be non-negative, got {candidate!r}")
    change = (candidate - baseline_median) / baseline_median
    if direction is Direction.HIGHER_IS_BETTER:
        change = -change
    if change >= thresholds.significant:
        return ShiftClass.SIGNIFICANT_DEGRADATION
    if change >= thresholds.minor:
        return ShiftClass.MINOR_DEGRADATION
    if change <= -thresholds.significant:
        return ShiftClass.SIGNIFICANT_IMPROVEMENT
    if change <= -thresholds.minor:
        return ShiftClass.MINOR_IMPROVEMENT
    return ShiftClass.STABLE


@dataclass(frozen=True)
class KeyShift:
    """One tracked key's classification against its baseline window."""

    key: str
    direction: Direction
    candidate: float
    baseline: dict
    shift: ShiftClass
    #: Signed relative change, positive = degradation.
    change: float

    def render(self) -> str:
        percent = self.change * 100 + 0.0  # -0.0 -> +0.0 for display
        return (
            f"{self.key}: {self.shift.value} "
            f"({self.candidate:g} vs median {self.baseline['median']:g} "
            f"over {self.baseline['count']} run(s), "
            f"{percent:+.1f}% "
            f"{'worse' if self.change > 0 else 'better or equal'}, "
            f"{self.direction.value})"
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "direction": self.direction.value,
            "candidate": self.candidate,
            "baseline": dict(self.baseline),
            "shift": self.shift.value,
            "change": self.change,
        }


@dataclass(frozen=True)
class BenchComparison:
    """A candidate record classified against its baseline window."""

    bench: str
    scale_key: str
    window: int
    shifts: tuple[KeyShift, ...]
    #: Tracked keys of the candidate with no baseline value yet.
    new_keys: tuple[str, ...] = ()
    #: Tracked keys present in the window but absent from the candidate.
    missing_keys: tuple[str, ...] = ()

    @property
    def significant_degradations(self) -> tuple[KeyShift, ...]:
        return tuple(
            s for s in self.shifts
            if s.shift is ShiftClass.SIGNIFICANT_DEGRADATION
        )

    @property
    def minor_degradations(self) -> tuple[KeyShift, ...]:
        return tuple(
            s for s in self.shifts
            if s.shift is ShiftClass.MINOR_DEGRADATION
        )

    @property
    def clean(self) -> bool:
        """No significant degradation (minor shifts only warn)."""
        return not self.significant_degradations

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def render_human(self) -> str:
        lines = [
            f"bench {self.bench} @ {self.scale_key}: "
            f"{len(self.shifts)} tracked key(s) against a window of "
            f"{self.window} run(s)"
        ]
        lines.extend(f"  {shift.render()}" for shift in self.shifts)
        for key in self.new_keys:
            lines.append(f"  {key}: no baseline yet (new key)")
        for key in self.missing_keys:
            lines.append(f"  {key}: in baseline but absent from candidate")
        verdict = (
            "significant degradation"
            if self.significant_degradations
            else "minor degradation (warning)"
            if self.minor_degradations
            else "stable or better"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "bench": self.bench,
            "scale": self.scale_key,
            "window": self.window,
            "clean": self.clean,
            "shifts": [shift.to_dict() for shift in self.shifts],
            "new_keys": list(self.new_keys),
            "missing_keys": list(self.missing_keys),
        }


def compare_records(
    candidate: BenchRecord,
    baselines: Sequence[BenchRecord],
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    window: int | None = None,
) -> BenchComparison:
    """Classify ``candidate`` against the last ``window`` baselines.

    Every baseline must come from the same ``(bench, scale)`` partition
    as the candidate — anything else raises :class:`CrossScaleError`
    rather than producing a scale-poisoned verdict. A ``window`` below
    1 raises :class:`ValueError` (a slice by it would silently widen
    the window instead).
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    for baseline in baselines:
        if (
            baseline.bench != candidate.bench
            or baseline.scale.key != candidate.scale.key
        ):
            raise CrossScaleError(
                f"cannot compare bench {candidate.bench!r} @ "
                f"{candidate.scale.key!r} against a baseline from bench "
                f"{baseline.bench!r} @ {baseline.scale.key!r}; benchmark "
                f"timings are only comparable within one scale (re-run "
                f"at the matching scale, or select it with --scale)"
            )
    if window is not None:
        baselines = baselines[-window:]
    shifts: list[KeyShift] = []
    new_keys: list[str] = []
    for key in candidate.tracked_keys():
        direction = direction_for(key)
        if direction is None:
            continue
        value = candidate.value(key)
        history = [
            v for v in (b.value(key) for b in baselines) if v is not None
        ]
        baseline = summarize(history)
        if baseline["count"] == 0 or baseline["median"] <= 0:
            # No usable baseline (or a degenerate zero-median one — a
            # relative change against it is meaningless): report the
            # key as unbaselined rather than divide by zero.
            new_keys.append(key)
            continue
        change = (value - baseline["median"]) / baseline["median"]
        if direction is Direction.HIGHER_IS_BETTER:
            change = -change
        shifts.append(
            KeyShift(
                key=key,
                direction=direction,
                candidate=value,
                baseline=baseline,
                shift=classify_shift(
                    value, baseline["median"], direction, thresholds
                ),
                change=change,
            )
        )
    candidate_keys = set(candidate.tracked_keys())
    missing = sorted(
        {
            key
            for baseline in baselines
            for key in baseline.tracked_keys()
            if key not in candidate_keys
        }
    )
    return BenchComparison(
        bench=candidate.bench,
        scale_key=candidate.scale.key,
        window=len(baselines),
        shifts=tuple(shifts),
        new_keys=tuple(new_keys),
        missing_keys=tuple(missing),
    )
