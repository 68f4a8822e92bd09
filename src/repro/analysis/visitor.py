"""Shared per-module AST facts every rule builds on.

:class:`ModuleInfo` parses one source file once and precomputes the
things every rule needs: the import/alias map (so ``np.random`` and
``numpy.random`` resolve identically) and a :meth:`qualified` resolver
that turns a ``Name``/``Attribute`` chain into a dotted path through
that map. It also keeps the ``# repro: noqa[CODE]`` suppression table,
which the runner applies once every rule has run.
:class:`Project` is just the collection of modules under analysis —
rules that need cross-module facts (the RACE002 call graph) walk it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: ``# repro: noqa`` or ``# repro: noqa[DET002, RACE002]``. Matched only
#: against COMMENT tokens, anchored at the ``#`` — mentions of the
#: syntax inside docstrings or prose comments never register.
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)

#: Sentinel for a bare ``# repro: noqa`` (suppresses every code).
ALL_CODES = "*"


@dataclass
class ModuleInfo:
    """One parsed source file plus the derived tables rules share."""

    path: str
    name: str
    source: str
    tree: ast.Module
    #: Source split into lines (1-indexed access via ``line(n)``).
    lines: list[str] = field(default_factory=list)
    #: local name -> dotted import target, e.g. ``np -> numpy``,
    #: ``laplace_noise -> repro.core.laplace.laplace_noise``.
    aliases: dict[str, str] = field(default_factory=dict)
    #: line number -> set of suppressed codes (or {ALL_CODES}).
    noqa: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: str, name: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=path)
        info = cls(
            path=path,
            name=name,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        info._collect_aliases()
        info._collect_noqa()
        return info

    # -- derived tables ------------------------------------------------

    def _collect_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Resolve ``from .laplace import x`` relative to the
                    # module's own package.
                    parts = self.name.split(".")
                    anchor = parts[: len(parts) - node.level]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{base}.{alias.name}" if base else alias.name

    def _collect_noqa(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            # The file already parsed with ``ast``, so this is near
            # impossible — but a broken tokenizer must not kill analysis.
            comments = list(enumerate(self.lines, start=1))
        for number, text in comments:
            match = _NOQA.match(text)
            if not match:
                continue
            codes = match.group(1)
            if codes is None:
                self.noqa[number] = {ALL_CODES}
            else:
                self.noqa[number] = {
                    code.strip().upper()
                    for code in codes.split(",")
                    if code.strip()
                }

    # -- helpers rules call --------------------------------------------

    def line(self, number: int) -> str:
        """The (stripped) source text of 1-indexed line ``number``."""
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1].strip()
        return ""

    def suppressed(self, code: str, line: int) -> bool:
        codes = self.noqa.get(line)
        if not codes:
            return False
        return ALL_CODES in codes or code.upper() in codes

    def dotted(self, node: ast.AST) -> str | None:
        """``a.b.c`` for a Name/Attribute chain, else None (calls,
        subscripts and other dynamic receivers don't resolve)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def qualified(self, node: ast.AST) -> str | None:
        """The fully-resolved dotted path of a Name/Attribute chain,
        with the leading segment mapped through the import table.

        ``np.random.rand`` -> ``numpy.random.rand`` when ``import
        numpy as np``;  ``laplace_noise`` ->
        ``repro.core.laplace.laplace_noise`` when imported from there.
        """
        raw = self.dotted(node)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return raw
        return f"{target}.{rest}" if rest else target


@dataclass
class Project:
    """The set of modules one analysis run covers."""

    modules: list[ModuleInfo] = field(default_factory=list)

    def by_name(self) -> dict[str, ModuleInfo]:
        return {module.name: module for module in self.modules}


def module_name_for(path: Path, root: Path) -> str:
    """Best-effort dotted module name of ``path``: the relative path
    under ``root``'s nearest ``src`` (or ``root`` itself), with
    ``__init__`` folded into the package name."""
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        relative = Path(path.name)
    parts = list(relative.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem
