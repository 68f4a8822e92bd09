"""The unit of static-analysis output: one :class:`Finding`.

A finding pins a rule violation to a file, line, and column, carries
the human message, and keeps the *snippet* — the stripped source line
it fired on — so a report reads without the source at hand.

This module is a leaf — stdlib only.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    #: Stable rule code (``"DET002"``, ``"RACE002"``).
    code: str
    #: Path of the offending file, as reported (normally relative to
    #: the analysis root, POSIX separators).
    path: str
    #: 1-indexed line of the offending node.
    line: int
    #: 0-indexed column of the offending node.
    col: int
    #: Human explanation: what fired and what to do instead.
    message: str
    #: The stripped source line the finding fired on.
    snippet: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        """The one-line human form: ``path:line:col: CODE message``."""
        return f"{self.location()}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        return cls(
            code=payload["code"],
            path=payload["path"],
            line=int(payload["line"]),
            col=int(payload.get("col", 0)),
            message=payload["message"],
            snippet=payload.get("snippet", ""),
        )
