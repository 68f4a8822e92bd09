"""Grandfathered-findings baseline: the analyzer's ratchet file.

A baseline entry says "this finding is known and accepted, with this
justification". Entries match on ``(code, path, snippet)`` — *not* on
line numbers — so edits elsewhere in a file never un-grandfather a
finding; ``count`` allows the same snippet to appear that many times.
Entries that no longer match anything are *stale* and reported as
warnings (the ratchet should only ever shrink), without affecting the
exit code.

The committed file is ``tools/analysis_baseline.json``::

    {
      "version": 1,
      "entries": [
        {
          "code": "DET002",
          "path": "src/repro/core/pipeline.py",
          "snippet": "for name in set(names):",
          "reason": "why this is acceptable",
          "count": 1
        }
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding

FORMAT_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    code: str
    path: str
    snippet: str
    reason: str = ""
    count: int = 1

    def key(self) -> tuple[str, str, str]:
        return (self.code, self.path, self.snippet)

    def to_dict(self) -> dict:
        payload = {
            "code": self.code,
            "path": self.path,
            "snippet": self.snippet,
            "reason": self.reason,
        }
        if self.count != 1:
            payload["count"] = self.count
        return payload


@dataclass
class Baseline:
    """The set of grandfathered findings."""

    entries: list[BaselineEntry] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        payload = json.loads(Path(path).read_text())
        version = payload.get("version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version {version!r} "
                f"(expected {FORMAT_VERSION})"
            )
        entries = []
        for raw in payload.get("entries", []):
            entries.append(
                BaselineEntry(
                    code=raw["code"],
                    path=raw["path"],
                    snippet=raw["snippet"],
                    reason=raw.get("reason", ""),
                    count=int(raw.get("count", 1)),
                )
            )
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        payload = {
            "version": FORMAT_VERSION,
            "entries": [entry.to_dict() for entry in self.entries],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def from_findings(
        cls, findings: list[Finding], reason: str = "grandfathered"
    ) -> "Baseline":
        """A baseline accepting exactly ``findings`` (counts merged)."""
        counts: dict[tuple[str, str, str], int] = {}
        for finding in findings:
            key = (finding.code, finding.path, finding.snippet)
            counts[key] = counts.get(key, 0) + 1
        entries = [
            BaselineEntry(
                code=code, path=path, snippet=snippet, reason=reason, count=count
            )
            for (code, path, snippet), count in sorted(counts.items())
        ]
        return cls(entries=entries)

    def apply(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], list[Finding], list[BaselineEntry]]:
        """Split ``findings`` into ``(active, baselined, stale_entries)``.

        Each entry absorbs up to ``count`` matching findings; capacity
        left over marks the entry stale (the violation it grandfathers
        is gone — delete it).
        """
        budget: dict[tuple[str, str, str], int] = {}
        for entry in self.entries:
            budget[entry.key()] = budget.get(entry.key(), 0) + entry.count
        active: list[Finding] = []
        baselined: list[Finding] = []
        for finding in findings:
            key = (finding.code, finding.path, finding.snippet)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined.append(finding)
            else:
                active.append(finding)
        stale = [entry for entry in self.entries if budget.get(entry.key(), 0) > 0]
        return active, baselined, stale
