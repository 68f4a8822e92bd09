"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its modules imports
those modules, and everything they import, whenever anything below the
package is imported. Each ``repro`` package instead declares an
``_EXPORTS`` map from defining module to the names it re-exports, and
derives its ``__all__``, ``__getattr__`` and ``__dir__`` from it with
:func:`lazy_exports`. A name's module is imported on first access, so
a command loads the modules it runs and no more (``docs/architecture.md``,
"Start-up").
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s ``exports``.

    ``__getattr__`` looks a name up in its defining module on every
    access and caches nothing, so an exported name is always the object
    its defining module holds.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return list(owners), __getattr__, __dir__
