#!/usr/bin/env python
"""Guard the public API surface against accidental breakage.

Builds a description of every ``__all__`` export of the public
packages (``repro.api``, ``repro.engine``, ``repro.data``, plus the
top-level ``repro`` namespace) — functions and methods down to their
full signatures, classes down to their public methods, properties and
dataclass fields —
plus the parameter signature of every built-in registry method (the
names a ``--param`` or a served spec may use), and compares it against
the checked-in snapshot ``tools/api_surface.json``. Any drift (a
removed name, a changed signature, an undeclared addition) fails with
a precise diff, so breaking the API is always a *reviewed* decision:

Usage::

    PYTHONPATH=src python tools/check_api.py            # verify (CI)
    PYTHONPATH=src python tools/check_api.py --update   # bless changes

CI runs the verify mode as the ``api`` section of the unified
``tools/check_static.py`` gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "tools" / "api_surface.json"

#: The modules whose ``__all__`` is the public contract.
PUBLIC_MODULES = (
    "repro",
    "repro.api",
    "repro.engine",
    "repro.data",
    "repro.analysis",
    "repro.bench",
    "repro.serve",
)

#: Snapshot section mapping each built-in method kind to its factory
#: signature. Plugins are left out, so an installed one cannot change
#: the snapshot.
METHODS_SECTION = "methods"

#: Memory addresses and other run-dependent repr noise to normalize.
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _signature_of(obj) -> str:
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    return _ADDRESS.sub("0x...", signature)


def _describe_class(cls: type) -> dict:
    members: dict[str, str] = {}
    if dataclasses.is_dataclass(cls):
        for field in dataclasses.fields(cls):
            if not field.name.startswith("_"):
                members[field.name] = "field"
    for name, member in inspect.getmembers(cls):
        if name.startswith("_") or name in members:
            continue
        if isinstance(member, property):
            members[name] = "property"
        elif callable(member):
            members[name] = f"method{_signature_of(member)}"
    return {
        "kind": "class",
        "signature": _signature_of(cls),
        "members": members,
    }


def _describe(obj) -> dict | str:
    if inspect.isclass(obj):
        return _describe_class(obj)
    if callable(obj):
        return f"function{_signature_of(obj)}"
    return f"constant:{type(obj).__name__}"


def build_methods() -> dict:
    """``{kind: signature}`` for every built-in registry method."""
    from repro.api.registry import method_info, method_names

    methods = (method_info(kind) for kind in method_names())
    return {
        info.kind: f"function{_signature_of(info.factory)}"
        for info in methods
        if info.source == "builtin"
    }


def build_surface() -> dict:
    """``{module: {export: description}}`` for the public modules, plus
    the :data:`METHODS_SECTION` of built-in method signatures."""
    surface: dict[str, dict] = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        exports = getattr(module, "__all__", None)
        if exports is None:
            raise RuntimeError(f"{module_name} declares no __all__")
        entry: dict[str, object] = {}
        for name in sorted(exports):
            if not hasattr(module, name):
                raise RuntimeError(
                    f"{module_name}.__all__ lists {name!r} but the module "
                    f"does not define it"
                )
            entry[name] = _describe(getattr(module, name))
        surface[module_name] = entry
    surface[METHODS_SECTION] = build_methods()
    return surface


def coverage(surface: dict) -> str:
    """What ``surface`` covers, in one line."""
    methods = len(surface[METHODS_SECTION])
    exports = sum(len(entry) for entry in surface.values()) - methods
    return (
        f"{exports} public exports across {len(surface) - 1} modules, "
        f"{methods} built-in method signatures"
    )


def diff_surfaces(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences, empty when the surfaces match."""
    problems: list[str] = []
    for module in sorted(set(expected) | set(actual)):
        have, want = actual.get(module), expected.get(module)
        if want is None:
            problems.append(f"{module}: new module not in snapshot")
            continue
        if have is None:
            problems.append(f"{module}: module missing from surface")
            continue
        for name in sorted(set(want) | set(have)):
            if name not in have:
                problems.append(f"{module}.{name}: removed from public API")
            elif name not in want:
                problems.append(
                    f"{module}.{name}: added but not in snapshot "
                    f"(run with --update to bless)"
                )
            elif want[name] != have[name]:
                if (
                    isinstance(want[name], dict)
                    and isinstance(have[name], dict)
                ):
                    w_members = want[name].get("members", {})
                    h_members = have[name].get("members", {})
                    for member in sorted(set(w_members) | set(h_members)):
                        if w_members.get(member) != h_members.get(member):
                            problems.append(
                                f"{module}.{name}.{member}: "
                                f"{w_members.get(member)!r} -> "
                                f"{h_members.get(member)!r}"
                            )
                    if want[name].get("signature") != have[name].get(
                        "signature"
                    ):
                        problems.append(
                            f"{module}.{name}: signature "
                            f"{want[name].get('signature')!r} -> "
                            f"{have[name].get('signature')!r}"
                        )
                else:
                    problems.append(
                        f"{module}.{name}: {want[name]!r} -> {have[name]!r}"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="check_api")
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the snapshot to match the current surface",
    )
    args = parser.parse_args(argv)
    surface = build_surface()
    if args.update:
        SNAPSHOT.write_text(json.dumps(surface, indent=2, sort_keys=True) + "\n")
        print(f"snapshot updated: {SNAPSHOT}")
        return 0
    if not SNAPSHOT.is_file():
        print(
            f"{SNAPSHOT}: missing — run `python tools/check_api.py --update`",
            file=sys.stderr,
        )
        return 1
    expected = json.loads(SNAPSHOT.read_text())
    problems = diff_surfaces(expected, surface)
    print(f"checked {coverage(surface)}")
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(
            f"{len(problems)} API surface change(s) — if intentional, "
            f"bless with `python tools/check_api.py --update`",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
