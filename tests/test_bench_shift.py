"""Tests for shift classification (repro.bench.shift).

The load-bearing property: classification is an exact mirror under a
direction flip — a key that reads as an improvement when lower is
better must read as the corresponding degradation when higher is
better, on the same numbers, boundaries included. Plus the concrete
threshold contract the CI gate depends on.
"""

import pytest
from hypothesis import given, strategies as st

from repro.bench import (
    BenchRecord,
    BenchScale,
    CrossScaleError,
    Direction,
    ShiftClass,
    Thresholds,
    classify_shift,
    compare_records,
    direction_for,
)

positive = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)

DIRECTIONS = (Direction.LOWER_IS_BETTER, Direction.HIGHER_IS_BETTER)

_MIRROR = {
    ShiftClass.SIGNIFICANT_IMPROVEMENT: ShiftClass.SIGNIFICANT_DEGRADATION,
    ShiftClass.MINOR_IMPROVEMENT: ShiftClass.MINOR_DEGRADATION,
    ShiftClass.STABLE: ShiftClass.STABLE,
    ShiftClass.MINOR_DEGRADATION: ShiftClass.MINOR_IMPROVEMENT,
    ShiftClass.SIGNIFICANT_DEGRADATION: ShiftClass.SIGNIFICANT_IMPROVEMENT,
}


class TestClassifyShift:
    @given(candidate=positive, baseline=positive)
    def test_direction_flip_mirrors_exactly(self, candidate, baseline):
        lower = classify_shift(
            candidate, baseline, Direction.LOWER_IS_BETTER
        )
        higher = classify_shift(
            candidate, baseline, Direction.HIGHER_IS_BETTER
        )
        assert higher is _MIRROR[lower]

    @given(baseline=positive, direction=st.sampled_from(DIRECTIONS))
    def test_equal_values_are_stable(self, baseline, direction):
        assert (
            classify_shift(baseline, baseline, direction)
            is ShiftClass.STABLE
        )

    @pytest.mark.parametrize(
        "candidate, expected",
        (
            (130.0, ShiftClass.SIGNIFICANT_DEGRADATION),
            (125.0, ShiftClass.SIGNIFICANT_DEGRADATION),
            (115.0, ShiftClass.SIGNIFICANT_DEGRADATION),  # boundary
            (110.0, ShiftClass.MINOR_DEGRADATION),
            (105.0, ShiftClass.MINOR_DEGRADATION),  # boundary
            (102.0, ShiftClass.STABLE),
            (100.0, ShiftClass.STABLE),
            (98.0, ShiftClass.STABLE),
            (95.0, ShiftClass.MINOR_IMPROVEMENT),  # boundary
            (90.0, ShiftClass.MINOR_IMPROVEMENT),
            (85.0, ShiftClass.SIGNIFICANT_IMPROVEMENT),  # boundary
            (50.0, ShiftClass.SIGNIFICANT_IMPROVEMENT),
        ),
    )
    def test_default_thresholds_lower_is_better(self, candidate, expected):
        assert (
            classify_shift(candidate, 100.0, Direction.LOWER_IS_BETTER)
            is expected
        )

    def test_custom_thresholds(self):
        relaxed = Thresholds(minor=0.10, significant=0.50)
        shift = classify_shift(
            130.0, 100.0, Direction.LOWER_IS_BETTER, relaxed
        )
        assert shift is ShiftClass.MINOR_DEGRADATION

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError, match="minor <= significant"):
            Thresholds(minor=0.2, significant=0.1)
        with pytest.raises(ValueError, match="minor <= significant"):
            Thresholds(minor=0.0)

    def test_non_positive_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline median"):
            classify_shift(1.0, 0.0, Direction.LOWER_IS_BETTER)


class TestDirectionFor:
    def test_seconds_are_lower_is_better(self):
        assert (
            direction_for("inter_modification.wave_s")
            is Direction.LOWER_IS_BETTER
        )

    def test_speedups_are_higher_is_better(self):
        assert (
            direction_for("speedups.wave_over_incremental")
            is Direction.HIGHER_IS_BETTER
        )

    def test_counters_are_untracked(self):
        assert direction_for("stream_publisher.chunks") is None


def _record(metrics, *, scale=None, speedups=None):
    return BenchRecord(
        bench="engine",
        scale=scale
        or BenchScale(
            n_objects=500,
            points_per_trajectory=300,
            signature_size=10,
            paper_scale=True,
        ),
        python="3.11.7",
        metrics=metrics,
        speedups=speedups or {},
    )


class TestCompareRecords:
    def test_degradation_detected_against_window_median(self):
        baselines = [
            _record({"inter_modification": {"wave_s": value}})
            for value in (10.0, 10.2, 9.8)
        ]
        candidate = _record({"inter_modification": {"wave_s": 12.5}})
        comparison = compare_records(candidate, baselines)
        (shift,) = comparison.shifts
        assert shift.key == "inter_modification.wave_s"
        assert shift.shift is ShiftClass.SIGNIFICANT_DEGRADATION
        assert not comparison.clean
        assert comparison.exit_code() == 1

    def test_speedup_drop_is_a_degradation(self):
        baselines = [
            _record({"noop": {"x_s": 1.0}}, speedups={"wave": 1.5})
        ]
        candidate = _record(
            {"noop": {"x_s": 1.0}}, speedups={"wave": 1.0}
        )
        comparison = compare_records(candidate, baselines)
        by_key = {shift.key: shift for shift in comparison.shifts}
        assert (
            by_key["speedups.wave"].shift
            is ShiftClass.SIGNIFICANT_DEGRADATION
        )

    def test_window_limits_baselines(self):
        old = _record({"g": {"x_s": 100.0}})
        recent = [_record({"g": {"x_s": 10.0}}) for _ in range(5)]
        candidate = _record({"g": {"x_s": 10.1}})
        comparison = compare_records(
            candidate, [old] + recent, window=5
        )
        (shift,) = comparison.shifts
        assert shift.baseline["median"] == 10.0
        assert shift.shift is ShiftClass.STABLE

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        """``baselines[-0:]`` is every baseline and ``[-(-1):]`` all but
        the oldest: neither is a window of the size asked for."""
        baselines = [_record({"g": {"x_s": 10.0}}) for _ in range(3)]
        with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
            compare_records(_record({"g": {"x_s": 10.0}}), baselines, window=window)

    def test_new_and_missing_keys_are_reported_not_fatal(self):
        baselines = [_record({"g": {"x_s": 1.0, "gone_s": 2.0}})]
        candidate = _record({"g": {"x_s": 1.0, "fresh_s": 3.0}})
        comparison = compare_records(candidate, baselines)
        assert comparison.new_keys == ("g.fresh_s",)
        assert comparison.missing_keys == ("g.gone_s",)
        assert comparison.clean

    def test_cross_scale_comparison_refused(self):
        smoke = BenchScale(
            n_objects=60,
            points_per_trajectory=120,
            signature_size=5,
            paper_scale=False,
        )
        candidate = _record({"g": {"x_s": 1.0}})
        baseline = _record({"g": {"x_s": 1.0}}, scale=smoke)
        with pytest.raises(CrossScaleError, match="only comparable"):
            compare_records(candidate, [baseline])

    def test_cross_bench_comparison_refused(self):
        candidate = _record({"g": {"x_s": 1.0}})
        other = BenchRecord(
            bench="other",
            scale=candidate.scale,
            python="3.11.7",
            metrics={"g": {"x_s": 1.0}},
        )
        with pytest.raises(CrossScaleError):
            compare_records(candidate, [other])

    def test_render_human_mentions_verdict(self):
        candidate = _record({"g": {"x_s": 1.0}})
        comparison = compare_records(candidate, [candidate])
        text = comparison.render_human()
        assert "stable or better" in text
        assert "g.x_s" in text
