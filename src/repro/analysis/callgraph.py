"""The cross-module call graph RACE002 walks.

:class:`FunctionTable` holds every module-level function and method of
the analyzed project, with bare-name, import and alias resolution.
:class:`Summaries` gives each function the locks it may acquire,
propagated to a fixpoint over ``name()`` and ``self.method()`` calls,
so a lock taken three frames down such a chain still counts when
RACE002 (:mod:`repro.analysis.builtin`) looks at a call made under
another lock. Calls on other receivers (``obj.method()``) are not
followed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .visitor import ModuleInfo, Project


@dataclass(frozen=True)
class FuncKey:
    """Identity of one function in the cross-module call graph."""

    module: str
    cls: str | None
    name: str

    def label(self) -> str:
        qual = f"{self.cls}.{self.name}" if self.cls else self.name
        return f"{self.module}.{qual}"


@dataclass
class FuncNode:
    key: FuncKey
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: ModuleInfo


class FunctionTable:
    """Module-level functions and class methods of every analyzed module."""

    def __init__(self, project: Project) -> None:
        self.functions: dict[FuncKey, FuncNode] = {}
        self.modules = project.by_name()
        for module in project.modules:
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = FuncKey(module.name, None, node.name)
                    self.functions[key] = FuncNode(key, node, module)
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            key = FuncKey(module.name, node.name, item.name)
                            self.functions[key] = FuncNode(key, item, module)

    def module_function(self, module: ModuleInfo, name: str) -> FuncKey | None:
        """Resolve a bare name to a function: local module first, then
        through the import table to another analyzed module."""
        key = FuncKey(module.name, None, name)
        if key in self.functions:
            return key
        qualified = module.aliases.get(name)
        if qualified and "." in qualified:
            target_module, _, func = qualified.rpartition(".")
            if target_module in self.modules:
                key = FuncKey(target_module, None, func)
                if key in self.functions:
                    return key
        return None

    def method(self, module: ModuleInfo, cls: str, name: str) -> FuncKey | None:
        key = FuncKey(module.name, cls, name)
        return key if key in self.functions else None


def lock_name(module: ModuleInfo, cls: str | None, expr: ast.expr) -> str | None:
    """Stable identity of the lock acquired by ``with expr:``, or None
    when ``expr`` does not look like a lock.

    ``self.<attrs>`` locks unify across methods of the same class
    (``module.Class.attr``); anything else is keyed on its source text
    within the module (``module:text``) so repeated uses of e.g.
    ``account.lock`` in one module compare equal.
    """
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return None
    if "lock" not in text.lower():
        return None
    root = expr
    while isinstance(root, ast.Attribute):
        root = root.value
    if isinstance(root, ast.Name) and root.id == "self" and isinstance(expr, ast.Attribute):
        owner = cls or "self"
        return f"{module.name}.{owner}.{text.partition('.')[2]}"
    return f"{module.name}:{text}"


class Summaries:
    """The lock identities each function may acquire — directly or
    through the analyzed functions it calls — closed under the project
    call graph. RACE002 reads them at every call made under a lock."""

    def __init__(self, project: Project) -> None:
        self.table = FunctionTable(project)
        self._locks: dict[FuncKey, set[str]] = {}
        calls: dict[FuncKey, list[FuncKey]] = {}
        for key, func in self.table.functions.items():
            locks: set[str] = set()
            callees: list[FuncKey] = []
            for node in ast.walk(func.node):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        name = lock_name(func.module, key.cls, item.context_expr)
                        if name is not None:
                            locks.add(name)
                elif isinstance(node, ast.Call):
                    target = self.resolve_call(func.module, key.cls, node)
                    if target is not None and target != key:
                        callees.append(target)
            self._locks[key] = locks
            calls[key] = callees
        changed = True
        while changed:
            changed = False
            for key, callees in calls.items():
                for callee in callees:
                    extra = self._locks[callee] - self._locks[key]
                    if extra:
                        self._locks[key] |= extra
                        changed = True

    def locks(self, key: FuncKey) -> set[str]:
        """Locks ``key`` may acquire (empty for an unknown function)."""
        return self._locks.get(key, set())

    def resolve_call(
        self,
        module: ModuleInfo,
        cls: str | None,
        call: ast.Call,
    ) -> FuncKey | None:
        """The analyzed function a call statically resolves to, if any."""
        callee = call.func
        if isinstance(callee, ast.Name):
            return self.table.module_function(module, callee.id)
        if (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
            and cls is not None
        ):
            return self.table.method(module, cls, callee.attr)
        return None
