"""Tests for the versioned benchmark record (repro.bench.record)."""

from pathlib import Path

import pytest

from repro.bench import RECORD_VERSION, BenchRecord, BenchScale, RecordError

PAPER_SCALE = BenchScale(
    n_objects=500, points_per_trajectory=300, signature_size=10,
    paper_scale=True,
)

ENGINE_RECORD = BenchRecord(
    bench="engine",
    scale=PAPER_SCALE,
    python="3.11.7",
    metrics={
        "inter_modification": {
            "restart_s": 18.17,
            "incremental_s": 17.29,
            "wave_s": 12.03,
        },
        "stream_publisher": {
            "chunks": 4,
            "per_chunk_s": 11.02,
            "shared_tf_s": 13.31,
        },
    },
    speedups={"wave_over_incremental": 1.43},
)


def _legacy_import_line() -> str:
    """The committed history's first line: the import of the flat
    snapshot that predates the history."""
    history = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
    return history.read_text().splitlines()[0]


def _record(**overrides):
    payload = {
        "bench": "engine",
        "scale": PAPER_SCALE,
        "python": "3.11.7",
        "metrics": {"group": {"run_s": 1.5, "other_s": 2.5}},
        "speedups": {"ratio": 1.2},
        "provenance": {"source": "test"},
    }
    payload.update(overrides)
    return BenchRecord(**payload)


class TestScale:
    def test_key_partitions_by_family_and_size(self):
        assert PAPER_SCALE.key == "paper-500x300-m10"
        smoke = BenchScale(
            n_objects=60, points_per_trajectory=120, signature_size=5
        )
        assert smoke.key == "smoke-60x120-m5"
        assert smoke.family == "smoke"

    def test_same_size_different_family_never_collides(self):
        a = BenchScale(500, 300, 10, paper_scale=True)
        b = BenchScale(500, 300, 10, paper_scale=False)
        assert a.key != b.key

    @pytest.mark.parametrize(
        "field, value",
        (
            ("n_objects", 0),
            ("n_objects", -5),
            ("n_objects", 1.5),
            ("points_per_trajectory", None),
            ("signature_size", "10"),
            ("paper_scale", "yes"),
        ),
    )
    def test_schema_validation(self, field, value):
        payload = PAPER_SCALE.to_dict()
        payload[field] = value
        with pytest.raises(RecordError):
            BenchScale.from_dict(payload)


class TestRecordValidation:
    def test_rejects_unknown_version(self):
        payload = _record().to_dict()
        payload["version"] = RECORD_VERSION + 1
        with pytest.raises(RecordError, match="unsupported record version"):
            BenchRecord.from_dict(payload)

    def test_rejects_empty_bench_name(self):
        with pytest.raises(RecordError, match="bench name"):
            _record(bench="")

    def test_rejects_non_numeric_metric(self):
        with pytest.raises(RecordError, match="must be a number"):
            _record(metrics={"group": {"run_s": "fast"}})

    def test_rejects_boolean_metric(self):
        with pytest.raises(RecordError, match="must be a number"):
            _record(metrics={"group": {"run_s": True}})

    def test_rejects_negative_metric(self):
        with pytest.raises(RecordError, match="non-negative"):
            _record(metrics={"group": {"run_s": -1.0}})

    def test_rejects_empty_metrics(self):
        with pytest.raises(RecordError, match="non-empty"):
            _record(metrics={})

    def test_rejects_non_string_provenance(self):
        with pytest.raises(RecordError, match="provenance"):
            _record(provenance={"created": 12345})


class TestTrackedKeys:
    def test_seconds_and_speedups_tracked_counters_not(self):
        keys = ENGINE_RECORD.tracked_keys()
        assert "inter_modification.wave_s" in keys
        assert "speedups.wave_over_incremental" in keys
        assert "stream_publisher.chunks" not in keys

    def test_value_lookup(self):
        record = ENGINE_RECORD
        assert record.value("inter_modification.wave_s") == 12.03
        assert record.value("speedups.wave_over_incremental") == 1.43
        assert record.value("nope.missing") is None
        assert record.value("nodot") is None


class TestRoundTrip:
    def test_jsonl_round_trip_is_byte_equal(self):
        """record → JSONL line → load → JSONL line, byte-identical."""
        record = _record()
        line = record.to_jsonl()
        reloaded = BenchRecord.from_jsonl(line)
        assert reloaded.to_jsonl() == line
        assert reloaded.to_jsonl().encode() == line.encode()

    def test_legacy_import_round_trips_byte_equal(self):
        """The committed legacy-import line → record → line, byte-equal."""
        line = _legacy_import_line()
        assert BenchRecord.from_jsonl(line).to_jsonl() == line

    def test_from_dict_equals_original(self):
        record = _record()
        assert BenchRecord.from_dict(record.to_dict()) == record

    def test_invalid_jsonl_raises_record_error(self):
        with pytest.raises(RecordError, match="invalid JSON"):
            BenchRecord.from_jsonl("{not json")


class TestLegacySnapshot:
    """The flat snapshot that predates the history lives on as the
    committed history's first record."""

    def test_import_carries_provenance(self):
        record = BenchRecord.from_jsonl(_legacy_import_line())
        assert record.provenance == {"source": "legacy-snapshot-import"}
        assert record.bench == "engine"
        assert record.scale == PAPER_SCALE

    def test_committed_snapshot_imports(self):
        """The import is a paper-scale record with keys to gate."""
        record = BenchRecord.from_jsonl(_legacy_import_line())
        assert record.scale.paper_scale
        assert record.tracked_keys()
