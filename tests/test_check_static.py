"""Tests for the unified static gate (tools/check_static.py)."""

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_static():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    spec = importlib.util.spec_from_file_location(
        "check_static", REPO_ROOT / "tools" / "check_static.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_static"] = module
    spec.loader.exec_module(module)
    return module


class TestRepoIsClean:
    def test_full_gate_passes(self, check_static, capsys):
        assert check_static.main([]) == 0
        out = capsys.readouterr().out
        assert "static gate clean" in out
        for section in ("analysis", "api", "docs", "bench"):
            assert f"[   ok] {section}:" in out

    def test_json_mode_schema(self, check_static, capsys):
        assert check_static.main(["--json", "analysis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["clean"] is True
        (section,) = payload["sections"]
        assert set(section) == {
            "name", "clean", "problems", "warnings", "summary", "error",
        }
        assert section["name"] == "analysis"

    def test_unknown_section_rejected(self, check_static):
        with pytest.raises(SystemExit) as excinfo:
            check_static.main(["frobnicate"])
        assert excinfo.value.code == 2


class TestInjectedViolation:
    """The acceptance gate: each seeded violation must fail CI with
    exit 1 (and a broken checker must exit 2, not pass silently)."""

    def inject(self, check_static, monkeypatch, tmp_path, source):
        tree = tmp_path / "repro_fixture"
        tree.mkdir()
        (tree / "leaky.py").write_text(textwrap.dedent(source))
        monkeypatch.setattr(check_static, "ANALYSIS_ROOTS", (tree,))
        monkeypatch.setattr(check_static, "BASELINE", tmp_path / "missing.json")

    def assert_fails_with(self, check_static, capsys, code):
        assert check_static.main(["analysis"]) == 1
        out = capsys.readouterr().out
        assert code in out
        assert "[ FAIL] analysis:" in out
        assert "static gate failed: analysis" in out

    def test_unledgered_draw_fails_gate(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        self.inject(
            check_static, monkeypatch, tmp_path,
            """
            class LeakyStage:
                def apply(self, count, rng):
                    return self.mechanism.perturb_count(count, rng)
            """,
        )
        self.assert_fails_with(check_static, capsys, "DP001")

    def test_dropped_epsilon_share_fails_gate(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        self.inject(
            check_static, monkeypatch, tmp_path,
            """
            def allocate(epsilon, mechanism):
                eps_general = epsilon * 0.5
                eps_tail = epsilon * 0.5
                return mechanism.run(eps_tail)
            """,
        )
        self.assert_fails_with(check_static, capsys, "EPS002")

    def test_unclosed_store_on_exception_path_fails_gate(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        self.inject(
            check_static, monkeypatch, tmp_path,
            """
            class SpillStore:
                def append(self, row):
                    pass

                def close(self):
                    pass


            def spill_all(rows):
                store = SpillStore()
                for row in rows:
                    store.append(row)
                store.close()
                return len(rows)
            """,
        )
        self.assert_fails_with(check_static, capsys, "LIFE001")

    def test_unreleased_reservation_fails_gate(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        self.inject(
            check_static, monkeypatch, tmp_path,
            """
            def spend(store, tenant, job, eps, work):
                rid = store.reserve(tenant, job, eps)
                work(rid)
                store.commit(tenant, rid)
            """,
        )
        self.assert_fails_with(check_static, capsys, "LEDGER001")

    def test_inverted_lock_pair_fails_gate(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        self.inject(
            check_static, monkeypatch, tmp_path,
            """
            class Engine:
                def flush(self):
                    with self.store_lock:
                        with self.job_lock:
                            pass

                def cancel(self):
                    with self.job_lock:
                        with self.store_lock:
                            pass
            """,
        )
        self.assert_fails_with(check_static, capsys, "RACE002")

    def test_checker_crash_exits_two(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        self.inject(check_static, monkeypatch, tmp_path, "def broken(:\n")
        assert check_static.main(["analysis"]) == 2
        out = capsys.readouterr().out
        assert "[ERROR] analysis:" in out
        assert "internal error" in out


class TestBenchSection:
    """The bench gate rides inside the unified static gate."""

    def _check_bench(self, check_static):
        import sys

        return sys.modules["check_bench"]

    def test_bench_section_passes_on_committed_history(
        self, check_static, capsys
    ):
        assert check_static.main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "[   ok] bench:" in out
        assert "bench/scale partition(s)" in out

    def test_missing_history_fails_with_import_hint(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        check_static.main(["bench"])  # ensure check_bench is imported
        capsys.readouterr()
        monkeypatch.setattr(
            self._check_bench(check_static),
            "DEFAULT_HISTORY",
            tmp_path / "absent.jsonl",
        )
        assert check_static.main(["bench"]) == 1
        out = capsys.readouterr().out
        assert "REPRO_BENCH_SCALE=paper python -m pytest benchmarks" in out
        assert "static gate failed: bench" in out

    def test_corrupt_history_is_a_section_error(
        self, check_static, monkeypatch, tmp_path, capsys
    ):
        check_static.main(["bench"])
        capsys.readouterr()
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("{broken\n")
        monkeypatch.setattr(
            self._check_bench(check_static), "DEFAULT_HISTORY", corrupt
        )
        assert check_static.main(["bench"]) == 2
        out = capsys.readouterr().out
        assert "[ERROR] bench:" in out
