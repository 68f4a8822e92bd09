"""Tests for the ``repro bench`` CLI subcommand (exit contract 0/1/2)."""

import json

import pytest

from repro.bench import BenchHistory, BenchRecord, BenchScale
from repro.cli import main

PAPER = BenchScale(
    n_objects=500, points_per_trajectory=300, signature_size=10,
    paper_scale=True,
)
SMOKE = BenchScale(
    n_objects=60, points_per_trajectory=120, signature_size=5,
)


def _append(history_path, wave_s, *, scale=PAPER):
    BenchHistory(history_path).append(
        BenchRecord(
            bench="engine",
            scale=scale,
            python="3.11.7",
            metrics={"inter_modification": {"wave_s": wave_s}},
            provenance={"source": "fixture"},
        )
    )


@pytest.fixture
def history_path(tmp_path):
    return tmp_path / "BENCH_history.jsonl"


class TestCompare:
    def test_stable_history_is_clean(self, history_path, capsys):
        for value in (10.0, 10.1, 9.9):
            _append(history_path, value)
        code = main(["bench", "compare", "--history", str(history_path)])
        assert code == 0
        assert "stable" in capsys.readouterr().out

    def test_regression_exits_one(self, history_path, capsys):
        for value in (10.0, 10.1, 12.6):  # +25% over median
            _append(history_path, value)
        code = main(["bench", "compare", "--history", str(history_path)])
        assert code == 1
        assert "significant_degradation" in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["compare", "report"])
    def test_window_below_one_exits_two(self, history_path, capsys, action):
        for value in (10.0, 10.1, 9.9):
            _append(history_path, value)
        code = main(
            ["bench", action, "--history", str(history_path), "--window", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro bench {action}: window must be at least 1, got 0\n"
        )

    def test_missing_history_exits_two(self, history_path, capsys):
        code = main(["bench", "compare", "--history", str(history_path)])
        assert code == 2
        assert "no benchmark history" in capsys.readouterr().err

    def test_two_scales_need_explicit_choice(self, history_path, capsys):
        _append(history_path, 10.0, scale=PAPER)
        _append(history_path, 0.2, scale=SMOKE)
        code = main(["bench", "compare", "--history", str(history_path)])
        assert code == 2
        assert "--scale" in capsys.readouterr().err

    def test_scale_family_selects_partition(self, history_path, capsys):
        _append(history_path, 10.0, scale=PAPER)
        _append(history_path, 10.1, scale=PAPER)
        _append(history_path, 0.2, scale=SMOKE)
        code = main(
            [
                "bench", "compare",
                "--history", str(history_path),
                "--scale", "paper",
            ]
        )
        assert code == 0
        assert "paper-500x300-m10" in capsys.readouterr().out


class TestReport:
    def test_covers_all_partitions(self, history_path, capsys):
        _append(history_path, 10.0, scale=PAPER)
        _append(history_path, 0.2, scale=SMOKE)
        code = main(["bench", "report", "--history", str(history_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper-500x300-m10" in out
        assert "smoke-60x120-m5" in out

    def test_empty_history_exits_two(self, history_path, capsys):
        history_path.write_text("")
        code = main(["bench", "report", "--history", str(history_path)])
        assert code == 2
        assert "is empty" in capsys.readouterr().err

    def test_json_format(self, history_path, capsys):
        _append(history_path, 10.0)
        _append(history_path, 12.6)
        code = main(
            [
                "bench", "report",
                "--history", str(history_path),
                "--format", "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["clean"] is False
        (comparison,) = payload["comparisons"]
        assert comparison["scale"] == "paper-500x300-m10"

    def test_custom_thresholds_change_verdict(self, history_path):
        _append(history_path, 10.0)
        _append(history_path, 12.6)
        code = main(
            [
                "bench", "report",
                "--history", str(history_path),
                "--minor", "0.10", "--significant", "0.50",
            ]
        )
        assert code == 0  # +26% is only minor under the relaxed gate
