"""Rule base class and the registry of stable rule codes.

A rule is a named check with a stable code (``DET002`` etc.), a short
summary, a rationale tied to one of the repo's runtime invariants, and
a ``check(project)`` that yields :class:`~repro.analysis.findings.Finding`
objects. Rules register themselves via the :func:`rule` decorator at
import time; :func:`all_rules` returns them sorted by code so output
ordering is deterministic.

Extending the analyzer is: subclass :class:`Rule`, decorate with
``@rule``, yield findings from ``check``. See ``docs/analysis.md``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Type

from .findings import Finding
from .visitor import Project


class Rule:
    """One static check with a stable code."""

    #: Stable identifier, never reused (``DET002``).
    code: str = ""
    #: Short human name (``nondeterminism source``).
    name: str = ""
    #: One-line description of what fires.
    summary: str = ""
    #: Why the project cares — which invariant this protects.
    rationale: str = ""
    #: A minimal violating snippet, used in docs and --list-rules.
    example: str = ""

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


_REGISTRY: dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: register ``cls`` under its stable code."""
    if not cls.code:
        raise ValueError(f"{cls.__name__} declares no code")
    existing = _REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"rule code {cls.code!r} already registered by "
            f"{existing.__name__}"
        )
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    from . import builtin  # noqa: F401  (registration side effect)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rules_for(codes: Iterable[str] | None) -> list[Rule]:
    """Rule instances restricted to ``codes`` (all when None)."""
    rules = all_rules()
    if codes is None:
        return rules
    wanted = {code.upper() for code in codes}
    known = {r.code for r in rules}
    unknown = wanted - known
    if unknown:
        raise KeyError(
            f"unknown rule code(s): {', '.join(sorted(unknown))} "
            f"(have: {', '.join(sorted(known))})"
        )
    return [r for r in rules if r.code in wanted]


def iter_codes() -> Iterator[str]:
    from . import builtin  # noqa: F401

    yield from sorted(_REGISTRY)
