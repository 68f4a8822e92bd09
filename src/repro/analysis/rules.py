"""The rule base class.

A rule is a check with a stable code (``DET002`` etc.) and a
``check(project)`` that yields :class:`~repro.analysis.findings.Finding`
objects. The rules that run are the instances in
:data:`repro.analysis.builtin.RULES`; ``docs/analysis.md`` catalogues
them, with the invariant each protects and a violating example.
"""

from __future__ import annotations

from typing import Iterable

from .findings import Finding
from .visitor import Project


class Rule:
    """One static check with a stable code."""

    #: Stable identifier, never reused (``DET002``).
    code: str = ""

    def check(self, project: Project) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, module, node, message: str) -> Finding:
        """Convenience: a Finding at ``node``'s location in ``module``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            code=self.code,
            path=module.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=module.line(line),
        )
