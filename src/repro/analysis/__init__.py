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

Run via ``repro check`` (or ``tools/check_static.py`` in CI); every
run applies both rules (:data:`RULES`). Suppress a finding inline with
``# repro: noqa[CODE]`` — unused suppressions are reported as
warnings. The rule catalogue with examples lives in
``docs/analysis.md``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.builtin": ("RULES",),
    "repro.analysis.callgraph": ("FuncKey", "FunctionTable", "Summaries"),
    "repro.analysis.findings": ("Finding",),
    "repro.analysis.rules": ("Rule",),
    "repro.analysis.runner": (
        "AnalysisError", "AnalysisReport", "UnusedNoqa", "analyze_paths",
        "analyze_project", "analyze_source", "load_project",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
