"""Project-specific static analysis: determinism and lock order.

Lint rules with stable codes for the bug classes that the behavioural
tests do not see: seeded output that changes between processes, and a
lock-order deadlock. Each rule is kept because a mutation audit showed
it flags a real, visible bug that tier-1 misses (``docs/analysis.md``,
"Mutation audit"):

======= =====================================================
DET002  wall-clock reads and direct set iteration on committed
        output paths
RACE002 two locks acquired in opposite orders on different
        paths (through the call graph) — potential deadlock
======= =====================================================

DET002 is a single-pass AST pattern check; RACE002 follows
``name()``/``self.method()`` calls through the lock summaries of
:mod:`repro.analysis.callgraph`.

Run via ``repro check`` (or ``tools/check_static.py`` in CI). Suppress
a finding inline with ``# repro: noqa[CODE]`` — stale suppressions are
reported as warnings — or grandfather it with a justified entry in
``tools/analysis_baseline.json``. The rule catalogue with examples
lives in ``docs/analysis.md``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.callgraph import FuncKey, FunctionTable, Summaries
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, all_rules, rule, rules_for
from repro.analysis.runner import (
    AnalysisError,
    AnalysisReport,
    UnusedNoqa,
    analyze_paths,
    analyze_project,
    analyze_source,
    load_project,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "FuncKey",
    "FunctionTable",
    "Rule",
    "Summaries",
    "UnusedNoqa",
    "all_rules",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "load_project",
    "rule",
    "rules_for",
]
