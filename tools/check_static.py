#!/usr/bin/env python
"""The one static gate: analyzer + API surface + docs + bench, one report.

Runs four sections and renders them in one unified format:

``analysis``
    The project's AST rules (``repro.analysis``: the syntactic codes
    DP001/DET001/DET002/RACE001/EPS001 plus the flow-sensitive
    EPS002/LIFE001/LEDGER001/RACE002) over ``src/repro``, ``tools``,
    ``benchmarks``, and ``examples``, against the committed baseline
    ``tools/analysis_baseline.json``. Unused ``# repro: noqa``
    suppressions surface as warnings.
``api``
    The public-API-surface diff of ``tools/check_api.py`` against its
    snapshot ``tools/api_surface.json``.
``docs``
    The ``repro ...`` invocation validation of ``tools/check_docs.py``
    over README.md and docs/*.md.
``bench``
    The benchmark regression gate of ``tools/check_bench.py`` over the
    committed ``BENCH_history.jsonl`` (enforcing: significant
    degradation of any tracked key fails; minor shifts warn).

Usage::

    PYTHONPATH=src python tools/check_static.py            # CI gate
    PYTHONPATH=src python tools/check_static.py --json     # machine form
    PYTHONPATH=src python tools/check_static.py analysis   # one section

Exit codes: 0 all sections clean, 1 findings in any section, 2 the
checker itself failed. CI runs this as the ``static`` job (replacing
the former separate ``api``/``docs`` jobs); ``check_api.py``,
``check_docs.py``, and ``check_bench.py`` stay runnable standalone
(``--update`` / ``--warn-only`` blessing lives there).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Every tree the analyzer gates — sources plus the support trees
#: (missing ones are skipped so trimmed checkouts still gate).
ANALYSIS_ROOTS = (
    REPO_ROOT / "src" / "repro",
    REPO_ROOT / "tools",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "examples",
)
BASELINE = REPO_ROOT / "tools" / "analysis_baseline.json"

SECTIONS = ("analysis", "api", "docs", "bench")


@dataclass
class SectionResult:
    """One section's outcome in the unified report."""

    name: str
    #: One line per problem, already formatted for humans.
    problems: list[str] = field(default_factory=list)
    #: Non-failing notices (stale baseline entries and the like).
    warnings: list[str] = field(default_factory=list)
    #: One-line summary of what was covered.
    summary: str = ""
    #: The section itself crashed (exit 2).
    error: str | None = None

    @property
    def clean(self) -> bool:
        return not self.problems and self.error is None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "clean": self.clean,
            "problems": self.problems,
            "warnings": self.warnings,
            "summary": self.summary,
            "error": self.error,
        }


def run_analysis() -> SectionResult:
    from repro.analysis import analyze_paths

    result = SectionResult("analysis")
    baseline = BASELINE if BASELINE.is_file() else None
    roots = [path for path in ANALYSIS_ROOTS if path.exists()]
    report = analyze_paths(roots, root=REPO_ROOT, baseline=baseline)
    for finding in report.findings:
        result.problems.append(finding.render())
    for entry in report.stale_baseline:
        result.warnings.append(
            f"stale baseline entry {entry.code} for {entry.path!r} "
            f"({entry.snippet!r}) matches nothing — delete it"
        )
    for unused in report.unused_noqa:
        result.warnings.append(unused.render().removeprefix("warning: "))
    extras = ""
    if report.baselined:
        extras = f", {len(report.baselined)} baselined"
    result.summary = (
        f"{report.files} file(s) against {len(report.codes)} rule(s)"
        f"{extras}"
    )
    return result


def run_api() -> SectionResult:
    import check_api

    result = SectionResult("api")
    surface = check_api.build_surface()
    exports = sum(len(entry) for entry in surface.values())
    result.summary = (
        f"{exports} public exports across {len(surface)} modules"
    )
    if not check_api.SNAPSHOT.is_file():
        result.problems.append(
            f"{check_api.SNAPSHOT}: missing — run "
            f"`python tools/check_api.py --update`"
        )
        return result
    expected = json.loads(check_api.SNAPSHOT.read_text())
    for problem in check_api.diff_surfaces(expected, surface):
        result.problems.append(problem)
    if result.problems:
        result.problems.append(
            "if intentional, bless with `python tools/check_api.py --update`"
        )
    return result


def run_docs() -> SectionResult:
    import check_docs

    result = SectionResult("docs")
    paths = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))
    spec = check_docs.build_spec()
    commands = 0
    for path in paths:
        if not path.is_file():
            result.problems.append(f"{path}: missing")
            continue
        for line, tokens in check_docs.iter_doc_commands(path):
            commands += 1
            for problem in check_docs.check_command(tokens, spec):
                result.problems.append(f"{path}:{line}: {problem}")
    result.summary = (
        f"{commands} repro invocations across {len(paths)} files"
    )
    return result


def run_bench() -> SectionResult:
    import check_bench

    result = SectionResult("bench")
    history = check_bench.DEFAULT_HISTORY
    if not history.is_file():
        result.problems.append(
            f"{history}: missing — create it by running the bench "
            f"suite (`REPRO_BENCH_SCALE=paper python -m pytest benchmarks`)"
        )
        return result
    comparisons = check_bench.gate(history_path=history)
    tracked = 0
    for comparison in comparisons:
        tracked += len(comparison.shifts) + len(comparison.new_keys)
        result.problems.extend(check_bench.problems_of(comparison))
        result.warnings.extend(check_bench.warnings_of(comparison))
    result.summary = (
        f"{tracked} tracked key(s) across {len(comparisons)} "
        f"bench/scale partition(s)"
    )
    return result


_RUNNERS = {
    "analysis": run_analysis,
    "api": run_api,
    "docs": run_docs,
    "bench": run_bench,
}


def run_sections(names: list[str]) -> list[SectionResult]:
    results = []
    for name in names:
        try:
            results.append(_RUNNERS[name]())
        except Exception as exc:  # checker crash, not a finding: exit 2
            crashed = SectionResult(name)
            crashed.error = f"{type(exc).__name__}: {exc}"
            results.append(crashed)
    return results


def render_human(results: list[SectionResult]) -> str:
    lines: list[str] = []
    for section in results:
        status = "ok" if section.clean else "FAIL"
        if section.error is not None:
            status = "ERROR"
        lines.append(f"[{status:>5s}] {section.name}: {section.summary}")
        if section.error is not None:
            lines.append(f"    internal error: {section.error}")
        for problem in section.problems:
            lines.append(f"    {problem}")
        for warning in section.warnings:
            lines.append(f"    warning: {warning}")
    failing = [s.name for s in results if not s.clean]
    if failing:
        lines.append(f"static gate failed: {', '.join(failing)}")
    else:
        lines.append("static gate clean")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="check_static")
    parser.add_argument(
        "sections",
        nargs="*",
        metavar="SECTION",
        help=f"sections to run: {', '.join(SECTIONS)} (default: all)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.sections if name not in SECTIONS]
    if unknown:
        parser.error(
            f"unknown section(s): {', '.join(unknown)} "
            f"(choose from {', '.join(SECTIONS)})"
        )
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    results = run_sections(list(args.sections) or list(SECTIONS))
    if args.json:
        print(
            json.dumps(
                {
                    "version": 1,
                    "clean": all(s.clean for s in results),
                    "sections": [s.to_dict() for s in results],
                },
                indent=2,
            )
        )
    else:
        print(render_human(results))
    if any(section.error is not None for section in results):
        return 2
    if any(section.problems for section in results):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
