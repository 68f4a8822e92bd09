"""Drive the rules over a file tree and render the results.

:func:`analyze_paths` is the programmatic entry the CLI and
``tools/check_static.py`` share; :func:`analyze_source` analyzes one
in-memory snippet (the test fixture path). Every run applies every
rule in :data:`~repro.analysis.builtin.RULES`. Suppression
(``# repro: noqa[CODE]``) happens here, after the rules run, so
individual rules stay oblivious to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .builtin import RULES
from .findings import Finding
from .visitor import ALL_CODES, ModuleInfo, Project, module_name_for


class AnalysisError(Exception):
    """The analyzer itself failed (unreadable file, syntax error) —
    distinct from "findings exist"; maps to exit code 2."""


@dataclass(frozen=True)
class UnusedNoqa:
    """A ``# repro: noqa`` comment that suppressed nothing this run."""

    path: str
    line: int
    #: The dead codes (``("*",)`` for a bare ``# repro: noqa``).
    codes: tuple[str, ...]

    def render(self) -> str:
        spec = "" if self.codes == (ALL_CODES,) else f"[{', '.join(self.codes)}]"
        return (
            f"warning: unused suppression `# repro: noqa{spec}` at "
            f"{self.path}:{self.line} — nothing it names fires there; "
            f"remove it so it cannot mask a future regression"
        )

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "codes": list(self.codes)}


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    #: Findings that count against the exit code.
    findings: list[Finding] = field(default_factory=list)
    #: Findings silenced by an inline ``# repro: noqa`` comment.
    suppressed: list[Finding] = field(default_factory=list)
    #: ``# repro: noqa`` comments that suppressed nothing (warnings —
    #: they do not affect the exit code).
    unused_noqa: list[UnusedNoqa] = field(default_factory=list)
    #: Files analyzed.
    files: int = 0
    #: Rule codes that ran.
    codes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files": self.files,
            "codes": self.codes,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "unused_noqa": [u.to_dict() for u in self.unused_noqa],
            "clean": self.clean,
        }

    def render_human(self) -> str:
        lines: list[str] = []
        for finding in self.findings:
            lines.append(finding.render())
            if finding.snippet:
                lines.append(f"    {finding.snippet}")
        for unused in self.unused_noqa:
            lines.append(unused.render())
        summary = (
            f"checked {self.files} file(s) against "
            f"{len(self.codes)} rule(s): "
        )
        if self.clean:
            summary += "clean"
        else:
            summary += f"{len(self.findings)} finding(s)"
        if self.suppressed:
            summary += f" ({len(self.suppressed)} suppressed)"
        lines.append(summary)
        return "\n".join(lines)


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise AnalysisError(f"{path}: not a Python file or directory")


def load_project(paths: Sequence[Path], root: Path | None = None) -> Project:
    """Parse every ``.py`` under ``paths`` into a :class:`Project`.

    Paths in findings are reported relative to ``root`` (default: the
    current directory) when possible, POSIX-style.
    """
    root = Path.cwd() if root is None else Path(root)
    project = Project()
    seen: set[Path] = set()
    for file_path in _iter_python_files([Path(p) for p in paths]):
        resolved = file_path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            source = file_path.read_text()
        except OSError as exc:
            raise AnalysisError(f"{file_path}: unreadable: {exc}") from exc
        try:
            relative = str(resolved.relative_to(root.resolve()).as_posix())
        except ValueError:
            relative = file_path.as_posix()
        name = module_name_for(file_path, root)
        try:
            project.modules.append(ModuleInfo.parse(source, relative, name))
        except SyntaxError as exc:
            raise AnalysisError(f"{file_path}: syntax error: {exc}") from exc
    return project


def analyze_project(project: Project) -> AnalysisReport:
    """Run every rule over an already-parsed project."""
    raw = sorted(
        (finding for rule in RULES for finding in rule.check(project)),
        key=Finding.sort_key,
    )
    by_path = {module.path: module for module in project.modules}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.suppressed(finding.code, finding.line):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return AnalysisReport(
        findings=kept,
        suppressed=suppressed,
        unused_noqa=_unused_suppressions(project, suppressed),
        files=len(project.modules),
        codes=[rule.code for rule in RULES],
    )


def _unused_suppressions(
    project: Project, suppressed: Sequence[Finding]
) -> list[UnusedNoqa]:
    """``# repro: noqa`` comments nothing in this run needed.

    Every rule ran, so a named code that did not fire on its line, or
    a bare ``# repro: noqa`` on a line where nothing fired, is unused.
    """
    used: dict[tuple[str, int], set[str]] = {}
    for finding in suppressed:
        used.setdefault((finding.path, finding.line), set()).add(finding.code)
    unused: list[UnusedNoqa] = []
    for module in project.modules:
        for line, named in sorted(module.noqa.items()):
            used_here = used.get((module.path, line), set())
            if ALL_CODES in named:
                if not used_here:
                    unused.append(UnusedNoqa(module.path, line, (ALL_CODES,)))
                continue
            dead = tuple(sorted(named - used_here))
            if dead:
                unused.append(UnusedNoqa(module.path, line, dead))
    return unused


def analyze_paths(
    paths: Sequence[Path | str], root: Path | str | None = None
) -> AnalysisReport:
    """Analyze a file tree: the CLI/CI entry point."""
    root_path = Path.cwd() if root is None else Path(root)
    project = load_project([Path(p) for p in paths], root=root_path)
    return analyze_project(project)


def analyze_source(
    source: str, path: str = "<snippet>.py", module: str = "snippet"
) -> AnalysisReport:
    """Analyze one in-memory snippet (test-fixture convenience)."""
    try:
        info = ModuleInfo.parse(source, path, module)
    except SyntaxError as exc:
        raise AnalysisError(f"{path}: syntax error: {exc}") from exc
    return analyze_project(Project(modules=[info]))
