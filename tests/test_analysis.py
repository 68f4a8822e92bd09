"""Tests for the static analyzer (repro.analysis).

Every rule gets a positive fixture (a seeded violation it must catch)
and a negative fixture (idiomatic code it must not flag), driven
through :func:`analyze_source`. Suppression (including unused-noqa
warnings), the JSON report schema, and the ``repro check`` exit-code
contract (0 clean / 1 findings / 2 internal error) are covered end to
end.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    AnalysisError,
    Finding,
    analyze_project,
    analyze_source,
    load_project,
)
from repro.analysis.visitor import ModuleInfo, Project
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Codes retired by the mutation audit (docs/analysis.md); never reused.
RETIRED = (
    "DET001", "DP001", "EPS001", "EPS002", "LEDGER001", "LIFE001", "RACE001",
)


def check(source: str):
    return analyze_source(textwrap.dedent(source))


def codes_of(report) -> list[str]:
    return [finding.code for finding in report.findings]


class TestRegistry:
    def test_all_rules_registered(self):
        codes = [r.code for r in RULES]
        assert codes == ["DET002", "RACE002"]
        assert not set(codes) & set(RETIRED)

    def test_every_rule_documented(self):
        catalogue = (REPO_ROOT / "docs" / "analysis.md").read_text()
        for rule in RULES:
            assert f"### {rule.code} — " in catalogue, rule.code


class TestDET002:
    def test_wall_clock_flagged(self):
        report = check(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert codes_of(report) == ["DET002"]

    def test_datetime_now_flagged_through_from_import(self):
        report = check(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )
        assert codes_of(report) == ["DET002"]

    def test_perf_counter_allowed(self):
        report = check(
            """
            import time

            def measure():
                return time.perf_counter()
            """
        )
        assert report.clean

    def test_set_iteration_flagged(self):
        report = check(
            """
            def walk(a, b):
                for loc in {a, b}:
                    yield loc
            """
        )
        assert codes_of(report) == ["DET002"]

    def test_comprehension_over_set_call_flagged(self):
        report = check(
            """
            def dedupe(items):
                return [x for x in set(items)]
            """
        )
        assert codes_of(report) == ["DET002"]

    def test_sorted_set_iteration_clean(self):
        report = check(
            """
            def walk(items):
                for loc in sorted(set(items)):
                    yield loc
            """
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
            """
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
            """
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
            """
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
            """
        )
        assert report.clean


@pytest.fixture(scope="module")
def source_tree() -> Project:
    return load_project([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)


def inject(tree: Project, path: str, anchor: str, bug: str):
    """Analyze ``src/repro`` with ``anchor`` in ``path`` replaced by
    ``bug``: a copy of the real source, changed at one site."""
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
    return analyze_project(Project(modules=modules))


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
        report = check(self.VIOLATION)
        assert report.clean
        assert [f.code for f in report.suppressed] == ["DET002"]

    def test_bare_noqa_suppresses_everything(self):
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa
            """
        )
        assert report.clean
        assert len(report.suppressed) == 1

    def test_wrong_code_does_not_suppress(self):
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa[RACE002]
            """
        )
        assert codes_of(report) == ["DET002"]

    def test_code_match_case_insensitive(self):
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa[det002]
            """
        )
        assert report.clean


class TestReportSchema:
    VIOLATION = """
    import time

    def draw():
        return time.time()
    """

    def test_json_shape(self):
        report = check(self.VIOLATION)
        payload = report.to_dict()
        assert set(payload) == {
            "version", "files", "codes", "findings", "suppressed",
            "unused_noqa", "clean",
        }
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["codes"] == ["DET002", "RACE002"]
        assert payload["clean"] is False
        (finding,) = payload["findings"]
        assert set(finding) == {
            "code", "path", "line", "col", "message", "snippet",
        }
        assert Finding.from_dict(finding) == report.findings[0]

    def test_render_human_mentions_location_and_code(self):
        report = check(self.VIOLATION)
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
            """
        )
        assert report.clean
        assert report.exit_code() == 0
        (unused,) = report.unused_noqa
        assert unused.line == 3
        assert unused.codes == ("DET002",)
        assert "unused suppression" in report.render_human()

    def test_used_noqa_not_warned(self):
        report = check(TestSuppression.VIOLATION)
        assert report.clean
        assert report.unused_noqa == []

    def test_unused_bare_noqa_warns(self):
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa
            """
        )
        (unused,) = report.unused_noqa
        assert unused.codes == ("*",)

    def test_partially_used_noqa_reports_dead_codes_only(self):
        # DP001 names no rule (it was retired), so it suppresses nothing.
        report = check(
            """
            import time

            def draw():
                return time.time()  # repro: noqa[DET002, RACE002, DP001]
            """
        )
        assert report.clean
        (unused,) = report.unused_noqa
        assert unused.codes == ("DP001", "RACE002")

    def test_docstring_mention_is_not_a_suppression(self):
        # The syntax quoted in prose must neither suppress findings on
        # its line nor register as an unused suppression.
        report = check(
            '''
            """Suppress inline with ``# repro: noqa[DET002]``."""
            import time

            def draw():
                return time.time()
            '''
        )
        assert codes_of(report) == ["DET002"]
        assert report.unused_noqa == []

    def test_unused_noqa_serialized_in_json(self):
        report = check(
            """
            def double(x):
                return 2 * x  # repro: noqa[DET002]
            """
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
        code = main(["check", str(self.clean_file(tmp_path))])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path))])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "time.time" in out

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        code = main(["check", str(bad)])
        assert code == 2
        assert "syntax error" in capsys.readouterr().err

    def test_json_format_machine_readable(self, tmp_path, capsys):
        code = main(["check", str(self.dirty_file(tmp_path)),
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["clean"] is False
        assert payload["findings"][0]["code"] == "DET002"

    def test_retired_format_and_rules_refused(self, tmp_path, capsys):
        """Every run applies every rule, and nothing is grandfathered:
        the options that chose otherwise are refused by argparse."""
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(self.clean_file(tmp_path)), "--format", "sarif"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        for retired in (
            ["--baseline", "none"],
            ["--update-baseline"],
            ["--rules", "DET002"],
            ["--list-rules"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["check", str(self.clean_file(tmp_path)), *retired])
            assert excinfo.value.code == 2, retired
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(retired)}" in err
            assert "Traceback" not in err
