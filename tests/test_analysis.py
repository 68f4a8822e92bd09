"""Tests for the static analyzer (repro.analysis).

Every rule gets a positive fixture (a seeded violation it must catch)
and a negative fixture (idiomatic code it must not flag), driven
through :func:`analyze_source`. Suppression (including unused-noqa
warnings), the baseline ratchet, the JSON report schema, and the
``repro check`` exit-code contract (0 clean / 1 findings / 2 internal
error) are covered end to end.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    Baseline,
    BaselineEntry,
    Finding,
    all_rules,
    analyze_project,
    analyze_source,
    load_project,
    rules_for,
)
from repro.analysis.visitor import ModuleInfo, Project
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Codes retired by the mutation audit (docs/analysis.md); never reused.
RETIRED = (
    "DET001", "DP001", "EPS001", "EPS002", "LEDGER001", "LIFE001", "RACE001",
)


def check(source: str, codes=None, **kwargs):
    return analyze_source(textwrap.dedent(source), codes=codes, **kwargs)


def codes_of(report) -> list[str]:
    return [finding.code for finding in report.findings]


class TestRegistry:
    def test_all_rules_registered(self):
        assert [r.code for r in all_rules()] == ["DET002", "RACE002"]

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.name
            assert rule.summary
            assert rule.rationale
            assert rule.example

    def test_rules_for_subset(self):
        assert [r.code for r in rules_for(["RACE002"])] == ["RACE002"]

    def test_rules_for_unknown_code_raises(self):
        with pytest.raises(KeyError):
            rules_for(["NOPE999"])


class TestDET002:
    def test_wall_clock_flagged(self):
        report = check(
            """
            import time

            def stamp():
                return time.time()
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_datetime_now_flagged_through_from_import(self):
        report = check(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_perf_counter_allowed(self):
        report = check(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            codes=["DET002"],
        )
        assert report.clean

    def test_set_iteration_flagged(self):
        report = check(
            """
            def walk(a, b):
                for loc in {a, b}:
                    yield loc
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_comprehension_over_set_call_flagged(self):
        report = check(
            """
            def dedupe(items):
                return [x for x in set(items)]
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_sorted_set_iteration_clean(self):
        report = check(
            """
            def walk(items):
                for loc in sorted(set(items)):
                    yield loc
            """,
            codes=["DET002"],
        )
        assert report.clean


class TestRACE002:
    def test_inverted_lock_pair_flagged(self):
        report = check(
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
            codes=["RACE002"],
        )
        assert codes_of(report) == ["RACE002"]
        message = report.findings[0].message
        assert "job_lock" in message
        assert "store_lock" in message
        assert "inconsistent order" in message

    def test_consistent_order_clean(self):
        report = check(
            """
            class Engine:
                def flush(self):
                    with self.store_lock:
                        with self.job_lock:
                            pass

                def cancel(self):
                    with self.store_lock:
                        with self.job_lock:
                            pass
            """,
            codes=["RACE002"],
        )
        assert report.clean

    def test_cycle_through_called_method_flagged(self):
        report = check(
            """
            class Engine:
                def outer(self):
                    with self.a_lock:
                        self.grab()

                def grab(self):
                    with self.b_lock:
                        pass

                def other(self):
                    with self.b_lock:
                        with self.a_lock:
                            pass
            """,
            codes=["RACE002"],
        )
        assert codes_of(report) == ["RACE002"]
        assert "call to" in report.findings[0].message

    def test_single_lock_reentry_not_flagged(self):
        report = check(
            """
            class Engine:
                def flush(self):
                    with self.store_lock:
                        self.drain()

                def drain(self):
                    with self.store_lock:
                        pass
            """,
            codes=["RACE002"],
        )
        assert report.clean


@pytest.fixture(scope="module")
def source_tree() -> Project:
    return load_project([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)


def inject(tree: Project, path: str, anchor: str, bug: str, code: str):
    """Run ``code`` over ``src/repro`` with ``anchor`` in ``path``
    replaced by ``bug``: a copy of the real source, changed at one site."""
    source = (REPO_ROOT / path).read_text()
    assert source.count(anchor) == 1, (
        f"the anchor of this pinned injection is gone from {path}; "
        f"re-pin the injection on today's code (docs/analysis.md, "
        f"'Mutation audit')"
    )
    modules = [
        ModuleInfo.parse(source.replace(anchor, bug), module.path, module.name)
        if module.path == path
        else module
        for module in tree.modules
    ]
    return analyze_project(Project(modules=modules), codes=[code])


class TestPinnedInjections:
    """For each rule, one audited injection that the rule flags and
    the behavioural tests do not (docs/analysis.md, "Mutation audit").
    Each applies the bug to the real file, so a rule that stops seeing
    it, or code that moves away from it, fails here."""

    def test_det002_spec_params_in_set_order(self, source_tree):
        report = inject(
            source_tree,
            "src/repro/api/spec.py",
            "        for name in sorted(raw):\n",
            "        for name in set(raw):\n",
            "DET002",
        )
        assert [(f.code, f.path, f.snippet) for f in report.findings] == [
            ("DET002", "src/repro/api/spec.py", "for name in set(raw):")
        ]

    def test_race002_job_lock_inside_runner_lock(self, source_tree):
        report = inject(
            source_tree,
            "src/repro/serve/jobs.py",
            "        with self._lock:\n"
            "            return [self._jobs[key] for key in sorted(self._jobs)]\n",
            "        with self._lock:\n"
            "            listed = []\n"
            "            for key in sorted(self._jobs):\n"
            "                job = self._jobs[key]\n"
            "                with job._lock:\n"
            "                    listed.append(job)\n"
            "            return listed\n",
            "RACE002",
        )
        (finding,) = report.findings
        assert finding.code == "RACE002"
        assert "repro.serve.jobs.JobRunner._lock" in finding.message
        assert "repro.serve.jobs:job._lock" in finding.message


class TestSuppression:
    VIOLATION = """
    import time

    def draw():
        return time.time()  # repro: noqa[DET002]
    """

    def test_coded_noqa_suppresses(self):
        report = check(self.VIOLATION, codes=["DET002"])
        assert report.clean
        assert [f.code for f in report.suppressed] == ["DET002"]

    def test_bare_noqa_suppresses_everything(self):
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa
            """,
            codes=["DET002"],
        )
        assert report.clean
        assert len(report.suppressed) == 1

    def test_wrong_code_does_not_suppress(self):
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa[RACE002]
            """,
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_code_match_case_insensitive(self):
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa[det002]
            """,
            codes=["DET002"],
        )
        assert report.clean


class TestBaseline:
    VIOLATION = """
    import time

    def draw():
        return time.time()
    """

    def test_from_findings_absorbs_everything(self):
        first = check(self.VIOLATION, codes=["DET002"])
        baseline = Baseline.from_findings(first.findings)
        second = check(self.VIOLATION, codes=["DET002"], baseline=baseline)
        assert second.clean
        assert len(second.baselined) == 1
        assert not second.stale_baseline

    def test_survives_line_drift(self):
        baseline = Baseline.from_findings(
            check(self.VIOLATION, codes=["DET002"]).findings
        )
        shifted = "# a new leading comment\n\n" + textwrap.dedent(self.VIOLATION)
        report = analyze_source(shifted, codes=["DET002"], baseline=baseline)
        assert report.clean
        assert len(report.baselined) == 1

    def test_fixed_violation_marks_entry_stale(self):
        baseline = Baseline.from_findings(
            check(self.VIOLATION, codes=["DET002"]).findings
        )
        report = check("def draw(clock): return clock()",
                       codes=["DET002"], baseline=baseline)
        assert report.clean
        assert len(report.stale_baseline) == 1
        assert report.stale_baseline[0].code == "DET002"

    def test_count_caps_absorption(self):
        doubled = """
        import time

        def draw():
            return time.time()

        def draw_again():
            return time.time()
        """
        entry = BaselineEntry(
            code="DET002",
            path="<snippet>.py",
            snippet="return time.time()",
            count=1,
        )
        report = check(doubled, codes=["DET002"],
                       baseline=Baseline(entries=[entry]))
        # Two identical snippets, budget for one: the second stays active.
        assert len(report.baselined) == 1
        assert len(report.findings) == 1

    def test_save_load_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(
            check(self.VIOLATION, codes=["DET002"]).findings,
            reason="legacy draw",
        )
        target = tmp_path / "baseline.json"
        baseline.save(target)
        assert Baseline.load(target) == baseline

    def test_load_rejects_unknown_version(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(target)


class TestReportSchema:
    def test_json_shape(self):
        report = check(TestBaseline.VIOLATION, codes=["DET002"])
        payload = report.to_dict()
        assert set(payload) == {
            "version", "files", "codes", "findings", "suppressed",
            "baselined", "stale_baseline", "unused_noqa", "clean",
        }
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["codes"] == ["DET002"]
        assert payload["clean"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {
            "code", "path", "line", "col", "message", "snippet",
        }
        assert Finding.from_dict(finding) == report.findings[0]

    def test_render_human_mentions_location_and_code(self):
        report = check(TestBaseline.VIOLATION, codes=["DET002"])
        text = report.render_human()
        assert "<snippet>.py:5:12: DET002" in text
        assert "1 finding(s)" in text

    def test_syntax_error_raises_analysis_error(self):
        with pytest.raises(AnalysisError):
            analyze_source("def broken(:\n")


class TestUnusedNoqa:
    def test_unused_named_noqa_warns_without_failing(self):
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa[DET002]
            """,
            codes=["DET002"],
        )
        assert report.clean
        assert report.exit_code() == 0
        (unused,) = report.unused_noqa
        assert unused.line == 3
        assert unused.codes == ("DET002",)
        assert "unused suppression" in report.render_human()

    def test_used_noqa_not_warned(self):
        report = check(TestSuppression.VIOLATION, codes=["DET002"])
        assert report.clean
        assert report.unused_noqa == []

    def test_named_code_outside_run_set_not_warned(self):
        # A restricted run cannot tell whether RACE002 would have fired.
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa[RACE002]
            """,
            codes=["DET002"],
        )
        assert report.unused_noqa == []

    def test_bare_noqa_only_flagged_on_full_run(self):
        source = """
        def double(x):
            return 2 * x  # repro: noqa
        """
        restricted = check(source, codes=["DET002"])
        assert restricted.unused_noqa == []
        full = check(source)
        (unused,) = full.unused_noqa
        assert unused.codes == ("*",)

    def test_partially_used_noqa_reports_dead_codes_only(self):
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa[DET002, RACE002]
            """,
            codes=["DET002", "RACE002"],
        )
        assert report.clean
        (unused,) = report.unused_noqa
        assert unused.codes == ("RACE002",)

    def test_docstring_mention_is_not_a_suppression(self):
        # The syntax quoted in prose must neither suppress findings on
        # its line nor register as an unused suppression.
        report = check(
            '''
            """Suppress inline with ``# repro: noqa[DET002]``."""
            import time

            def draw():
                return time.time()
            ''',
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]
        assert report.unused_noqa == []

    def test_unused_noqa_serialized_in_json(self):
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa[DET002]
            """,
            codes=["DET002"],
        )
        payload = report.to_dict()
        assert payload["unused_noqa"] == [
            {"path": "<snippet>.py", "line": 3, "codes": ["DET002"]}
        ]


class TestCheckCLI:
    """The `repro check` exit-code contract, end to end."""

    def clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("def double(x):\n    return 2 * x\n")
        return path

    def dirty_file(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            "import time\n\n\ndef draw():\n    return time.time()\n"
        )
        return path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        code = main(["check", str(self.clean_file(tmp_path)),
                     "--baseline", "none"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path)),
                     "--baseline", "none"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "time.time" in out

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        code = main(["check", str(bad), "--baseline", "none"])
        assert code == 2
        assert "syntax error" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        code = main(["check", str(self.clean_file(tmp_path)),
                     "--baseline", "none", "--rules", "NOPE999"])
        assert code == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_json_format_machine_readable(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path)),
                     "--baseline", "none", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "DET002"

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET002", "RACE002"):
            assert code in out
        for retired in RETIRED:
            assert retired not in out

    def test_retired_format_and_rules_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(self.clean_file(tmp_path)), "--format", "sarif"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        for retired in RETIRED:
            code = main(["check", str(self.clean_file(tmp_path)),
                         "--baseline", "none", "--rules", retired])
            assert code == 2
            assert retired in capsys.readouterr().err

    def test_rules_flag_restricts(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path)),
                     "--baseline", "none", "--rules", "RACE002"])
        assert code == 0  # the DET002 violation is outside the rule set
        capsys.readouterr()

    def test_update_baseline_then_clean_then_stale(self, tmp_path, capsys):
        dirty = self.dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(dirty), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert "1 finding(s) grandfathered" in capsys.readouterr().out
        # Grandfathered: same tree now exits 0, finding is baselined.
        assert main(["check", str(dirty), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # Fix the violation: still 0, but the entry is reported stale.
        dirty.write_text("def draw(clock):\n    return clock()\n")
        assert main(["check", str(dirty), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out
