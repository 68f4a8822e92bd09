#!/usr/bin/env python
"""Check `repro ...` invocations in the docs against the live CLI.

Scans fenced code blocks in README.md and docs/*.md for command lines
whose first token (after an optional ``$``) is ``repro``, and validates
each against the argparse tree built by ``repro.cli._build_parser()``:
the subcommand must exist, every ``--flag`` must be declared by that
subcommand, and positional values with declared choices must be valid.
Every ``--param NAME=VALUE`` of ``repro anonymize|publish`` must name a
parameter of the method the invocation selects (its ``--method``, else
its ``--model``, else ``gl``), as the method registry declares it.
Documentation can therefore never drift ahead of (or behind) the CLI —
CI runs this as the ``docs`` section of the unified
``tools/check_static.py`` gate.

Usage::

    PYTHONPATH=src python tools/check_docs.py [files...]

With no arguments, checks README.md and every docs/*.md relative to
the repository root. Exits non-zero listing every stale invocation.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Subcommands whose ``--param`` names are checked against a method.
METHOD_COMMANDS = ("anonymize", "publish")


def _value_arity(action: argparse.Action) -> int:
    """How many value tokens a ``--flag value...`` invocation consumes."""
    if action.nargs is None:
        return 1
    if isinstance(action.nargs, int):
        return action.nargs
    return 0  # store_true/count/"?"-style: no mandatory value tokens


def build_spec() -> dict[str, dict]:
    """``{subcommand: {"options": {flag: arity}, "positional_choices": [...]}}``."""
    from repro.cli import _build_parser

    parser = _build_parser()
    sub_action = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    spec: dict[str, dict] = {}
    for name, subparser in sub_action.choices.items():
        positionals = [
            set(action.choices) if action.choices else None
            for action in subparser._actions
            if not action.option_strings
        ]
        spec[name] = {
            "options": {
                option: _value_arity(action)
                for option, action in subparser._option_string_actions.items()
            },
            "positional_choices": positionals,
        }
    return spec


def iter_doc_commands(path: Path):
    """Yield ``(line_number, tokens)`` for repro invocations in fenced
    code blocks, merging backslash line continuations."""
    in_fence = False
    pending: list[str] = []
    pending_line = 0
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            pending = []
            continue
        if not in_fence:
            continue
        if pending:
            pending.append(stripped.rstrip("\\").strip())
            if stripped.endswith("\\"):
                continue
            yield pending_line, shlex.split(" ".join(pending))
            pending = []
            continue
        if stripped.startswith("$ "):
            stripped = stripped[2:]
        if not (stripped == "repro" or stripped.startswith("repro ")):
            continue
        if stripped.endswith("\\"):
            pending = [stripped.rstrip("\\").strip()]
            pending_line = number
            continue
        yield number, shlex.split(stripped)


def check_command(tokens: list[str], spec: dict[str, dict]) -> list[str]:
    """Problems with one tokenised ``repro ...`` invocation."""
    if len(tokens) < 2:
        return ["bare `repro` invocation has no subcommand"]
    subcommand = tokens[1]
    if subcommand.startswith("-"):
        return []  # `repro --help` etc: top-level flags only
    if subcommand not in spec:
        return [
            f"unknown subcommand {subcommand!r} "
            f"(have: {', '.join(sorted(spec))})"
        ]
    entry = spec[subcommand]
    problems = []
    positional_index = 0
    skip_values = 0
    # Flag -> its values, for the flags that select a method's parameters.
    values: dict[str, list[str]] = {"--method": [], "--model": [], "--param": []}
    capture = None
    for token in tokens[2:]:
        if skip_values:
            skip_values -= 1
            if capture is not None:
                values[capture].append(token)
                capture = None
            continue
        is_long = token.startswith("--")
        is_short = (
            token.startswith("-") and len(token) == 2 and not token[1].isdigit()
        )
        if is_long or is_short:
            name, has_value, value = token.partition("=")
            arity = entry["options"].get(name)
            if arity is None:
                problems.append(
                    f"{subcommand}: unknown flag {name!r} (have: "
                    f"{', '.join(sorted(o for o in entry['options'] if o.startswith('--')))})"
                )
            elif has_value:
                if name in values:
                    values[name].append(value)
            else:
                skip_values = arity
                capture = name if name in values else None
            continue
        if positional_index < len(entry["positional_choices"]):
            choices = entry["positional_choices"][positional_index]
            if choices is not None and token not in choices:
                problems.append(
                    f"{subcommand}: invalid value {token!r} "
                    f"(choose from {', '.join(sorted(choices))})"
                )
            positional_index += 1
    if subcommand in METHOD_COMMANDS and values["--param"]:
        kind = (values["--method"] or values["--model"] or ["gl"])[-1]
        problems.extend(
            f"{subcommand}: {problem}"
            for problem in check_params(kind, values["--param"])
        )
    return problems


def check_params(kind: str, overrides: list[str]) -> list[str]:
    """Problems with ``--param NAME=VALUE`` overrides for method ``kind``."""
    from repro.api import method_info

    try:
        accepted = method_info(kind).signature.parameters
    except ValueError as exc:
        return [str(exc)]
    return [
        f"method {kind!r} has no parameter {name!r} (have: "
        f"{', '.join(accepted)})"
        for name in (override.partition("=")[0] for override in overrides)
        if name not in accepted
    ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        paths = [REPO_ROOT / "README.md"] + sorted(
            (REPO_ROOT / "docs").glob("*.md")
        )
    spec = build_spec()
    failures = 0
    commands = 0
    for path in paths:
        if not path.is_file():
            print(f"{path}: missing", file=sys.stderr)
            failures += 1
            continue
        for line, tokens in iter_doc_commands(path):
            commands += 1
            for problem in check_command(tokens, spec):
                print(f"{path}:{line}: {problem}", file=sys.stderr)
                failures += 1
    print(f"checked {commands} repro invocations across {len(paths)} files")
    if failures:
        print(f"{failures} stale invocation(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
