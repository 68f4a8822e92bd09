"""Cross-module call-graph infrastructure and RACE001.

Besides the RACE001 rule this module hosts the shared interprocedural
machinery the flow-sensitive rules in :mod:`repro.analysis.builtin`
stitch through: :class:`FunctionTable` (every module-level function
and method of the analyzed project, with bare-name/import/alias
resolution) and :class:`Summaries` (per-function facts — which
parameters a function closes or settles, which locks it may acquire,
whether it returns a fresh resource — propagated to a fixpoint over
the call graph, so ``shutdown()`` calling ``self._spool.close()``
three frames down still counts as a close).

RACE001 — unlocked shared-state writes reachable from pool workers.

The engine fans work over pools in two places: the local-stage shards
(``parallel_map``) and the sweep stream (``parallel_map_stream``).
Any function reachable from a callable handed to one of those
primitives (or to an executor's ``map``/``submit``) runs concurrently
with its siblings, so a write to ``self.*`` or to a module global from
such a function is a data race unless it happens inside a
``with <lock>:`` block.

The reachability computation is a deliberately conservative call-graph
approximation:

* Entry points are the first argument of calls to ``parallel_map`` /
  ``parallel_map_stream`` and of ``.map``/``.submit`` on receivers
  whose name mentions ``pool``/``executor``.
* Edges follow bare-name calls to module-level functions (including
  ones imported from other analyzed modules), ``self.method()`` calls
  to methods of the same class, and simple local aliases — both
  ``simulate = self._simulate_increase`` and the conditional-worker
  pattern ``runner = _worker_function`` before the submitting call.
  Submitted workers wrapped in ``functools.partial(fn, ...)`` or a
  ``lambda`` are unwrapped to the underlying function(s).
* Calls on arbitrary receivers (``obj.method()``) are *not* followed:
  workers overwhelmingly call methods on worker-local objects they just
  built, and following them would drown the signal in false positives.

Flagged writes are assignments/augmented assignments/deletes whose
target is an attribute chain rooted at ``self`` or a name declared
``global``, lexically outside every ``with`` block whose context
expression mentions a lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable

from .findings import Finding
from .rules import Rule, rule
from .visitor import ModuleInfo, Project

#: Call names whose first argument is a worker callable.
_POOL_FUNCS = frozenset({"parallel_map", "parallel_map_stream"})
#: Attribute-call names that submit to an executor when the receiver
#: looks like one.
_SUBMIT_ATTRS = frozenset({"map", "submit"})
#: Receiver-name fragments identifying an executor object.
_POOL_RECEIVERS = ("pool", "executor")


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


#: Backwards-compatible private aliases (pre-dataflow callers).
_FuncKey = FuncKey
_FuncNode = FuncNode
_FunctionTable = FunctionTable


def param_names(func: ast.AST) -> list[str]:
    """Positional parameter names of ``func``, in call order."""
    args = func.args
    return [a.arg for a in (*args.posonlyargs, *args.args)]


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


@dataclass
class FunctionSummary:
    """Interprocedural facts about one function, including callees."""

    #: Parameter names the function closes on some path (directly or
    #: by forwarding to a closing callee).
    closes: set[str] = dataclass_field(default_factory=set)
    #: Parameter names it settles (``.commit``/``.release``).
    settles: set[str] = dataclass_field(default_factory=set)
    #: Lock identities it may acquire (transitively).
    locks: set[str] = dataclass_field(default_factory=set)
    #: Resource class name when the function returns a fresh instance.
    returns_resource: str | None = None


@dataclass
class _CallSite:
    callee: FuncKey
    #: callee parameter name -> caller-local name passed for it.
    arg_map: dict[str, str]
    #: the Call result is returned directly (``return make()``).
    returned: bool


_CLOSE_ATTRS = frozenset({"close", "shutdown"})
_SETTLE_ATTRS = frozenset({"commit", "release"})


class Summaries:
    """Per-function summaries, closed under the project call graph."""

    def __init__(
        self,
        project: Project,
        table: FunctionTable | None = None,
        resource_classes: frozenset[str] = frozenset(),
    ) -> None:
        self.table = table if table is not None else FunctionTable(project)
        self.resource_classes = frozenset(resource_classes)
        self._summaries: dict[FuncKey, FunctionSummary] = {}
        self._calls: dict[FuncKey, list[_CallSite]] = {}
        for key, func in self.table.functions.items():
            self._scan(key, func)
        self._propagate()

    def for_key(self, key: FuncKey) -> FunctionSummary | None:
        return self._summaries.get(key)

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

    # -- direct facts ---------------------------------------------------

    def _scan(self, key: FuncKey, func: FuncNode) -> None:
        summary = FunctionSummary()
        params = set(param_names(func.node))
        calls: list[_CallSite] = []
        returned_calls = {
            id(stmt.value)
            for stmt in ast.walk(func.node)
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Call)
        }
        for node in ast.walk(func.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    name = lock_name(func.module, key.cls, expr)
                    if name is not None:
                        summary.locks.add(name)
                    # ``with param:`` runs ``__exit__`` — a close.
                    if isinstance(expr, ast.Name) and expr.id in params:
                        summary.closes.add(expr.id)
            elif isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in params
                ):
                    if callee.attr in _CLOSE_ATTRS:
                        summary.closes.add(callee.value.id)
                    elif callee.attr in _SETTLE_ATTRS:
                        summary.settles.add(callee.value.id)
                target = self.resolve_call(func.module, key.cls, node)
                if target is not None and target != key:
                    calls.append(
                        _CallSite(
                            callee=target,
                            arg_map=self._map_args(target, node),
                            returned=id(node) in returned_calls,
                        )
                    )
                if id(node) in returned_calls:
                    cls_name = self._resource_class(func.module, node)
                    if cls_name is not None:
                        summary.returns_resource = cls_name
        self._summaries[key] = summary
        self._calls[key] = calls

    def _map_args(self, target: FuncKey, call: ast.Call) -> dict[str, str]:
        func = self.table.functions[target]
        names = param_names(func.node)
        if target.cls is not None and names and names[0] == "self":
            names = names[1:]
        mapping: dict[str, str] = {}
        for position, arg in enumerate(call.args):
            if position < len(names) and isinstance(arg, ast.Name):
                mapping[names[position]] = arg.id
        for keyword in call.keywords:
            if keyword.arg is not None and isinstance(keyword.value, ast.Name):
                mapping[keyword.arg] = keyword.value.id
        return mapping

    def _resource_class(self, module: ModuleInfo, call: ast.Call) -> str | None:
        dotted = module.qualified(call.func) or module.dotted(call.func) or ""
        tail = dotted.rpartition(".")[2]
        return tail if tail in self.resource_classes else None

    # -- fixpoint -------------------------------------------------------

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for key, calls in self._calls.items():
                summary = self._summaries[key]
                params = set(param_names(self.table.functions[key].node))
                for site in calls:
                    callee = self._summaries.get(site.callee)
                    if callee is None:
                        continue
                    if not callee.locks <= summary.locks:
                        summary.locks |= callee.locks
                        changed = True
                    for theirs, ours in site.arg_map.items():
                        if ours not in params:
                            continue
                        if theirs in callee.closes and ours not in summary.closes:
                            summary.closes.add(ours)
                            changed = True
                        if theirs in callee.settles and ours not in summary.settles:
                            summary.settles.add(ours)
                            changed = True
                    if (
                        site.returned
                        and callee.returns_resource
                        and summary.returns_resource is None
                    ):
                        summary.returns_resource = callee.returns_resource
                        changed = True


def _local_self_aliases(func: ast.AST) -> dict[str, list[str]]:
    """``name -> [method, ...]`` for ``name = self._x`` assignments in
    ``func``'s body (all branches collected)."""
    aliases: dict[str, list[str]] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            aliases.setdefault(target.id, []).append(value.attr)
    return aliases


def _local_name_aliases(func: ast.AST) -> dict[str, list[str]]:
    """``name -> [other, ...]`` for ``name = other`` bare-name
    assignments in ``func``'s body (all branches collected) — the
    ``runner = _worker_function`` pattern that picks a pool worker
    conditionally before submitting it."""
    aliases: dict[str, list[str]] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name) and isinstance(node.value, ast.Name):
            aliases.setdefault(target.id, []).append(node.value.id)
    return aliases


def _local_callable_values(func: ast.AST) -> dict[str, list[ast.expr]]:
    """``name -> [value, ...]`` for ``name = partial(fn, ...)`` /
    ``name = lambda: ...`` assignments in ``func``'s body — wrapped
    workers bound to a local before submission."""
    values: dict[str, list[ast.expr]] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name) and isinstance(
            node.value, (ast.Call, ast.Lambda)
        ):
            values.setdefault(target.id, []).append(node.value)
    return values


def _is_lock_guard(node: ast.With | ast.AsyncWith) -> bool:
    for item in node.items:
        try:
            text = ast.unparse(item.context_expr)
        except Exception:  # pragma: no cover - unparse is total on valid ASTs
            continue
        if "lock" in text.lower():
            return True
    return False


class _WriteScanner(ast.NodeVisitor):
    """Unprotected shared-state writes inside one function subtree."""

    def __init__(self) -> None:
        self._lock_depth = 0
        self.global_names: set[str] = set()
        #: ``(target_node, description)`` pairs outside any lock.
        self.unprotected: list[tuple[ast.AST, str]] = []

    def scan(self, func: ast.AST) -> list[tuple[ast.AST, str]]:
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                self.global_names.update(node.names)
        for statement in getattr(func, "body", []):
            self.visit(statement)
        return self.unprotected

    # -- lock tracking -------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        locked = _is_lock_guard(node)
        if locked:
            self._lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if locked:
            self._lock_depth -= 1

    # -- write sites ---------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def _check_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
            return
        if self._lock_depth > 0:
            return
        if isinstance(target, ast.Attribute):
            root = target
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "self":
                try:
                    text = ast.unparse(target)
                except Exception:  # pragma: no cover
                    text = "self.<attr>"
                self.unprotected.append((target, f"attribute write `{text}`"))
        elif isinstance(target, ast.Name) and target.id in self.global_names:
            self.unprotected.append(
                (target, f"module-global write `{target.id}`")
            )


@rule
class UnlockedSharedWrite(Rule):
    code = "RACE001"
    name = "unlocked shared write"
    summary = (
        "a function reachable from a thread-pool entry point writes "
        "self.* or a module global outside a `with <lock>` block"
    )
    rationale = (
        "Worker callables handed to parallel_map/parallel_map_stream "
        "or an executor's map/submit run concurrently; an unlocked "
        "shared-attribute or global write from such code is a data "
        "race (the last_report and SearchStats corruption bugs were "
        "exactly this class)."
    )
    example = "def _worker(self, job): self.cache = build()  # needs a lock"

    def check(self, project: Project) -> Iterable[Finding]:
        table = _FunctionTable(project)
        entries = self._entry_points(project, table)
        reachable = self._reach(table, entries)
        seen: set[tuple[str, int, int]] = set()
        for key, entry_label in sorted(
            reachable.items(), key=lambda item: item[0].label()
        ):
            func = table.functions[key]
            for target, description in _WriteScanner().scan(func.node):
                line = getattr(target, "lineno", 1)
                col = getattr(target, "col_offset", 0)
                site = (func.module.path, line, col)
                if site in seen:
                    continue
                seen.add(site)
                yield Finding(
                    code=self.code,
                    path=func.module.path,
                    line=line,
                    col=col,
                    message=(
                        f"{description} in {key.label()} is reachable "
                        f"from thread-pool entry point {entry_label} but "
                        f"is outside any `with <lock>` block"
                    ),
                    snippet=func.module.line(line),
                )

    # -- entry-point discovery ----------------------------------------

    def _entry_points(
        self, project: Project, table: _FunctionTable
    ) -> dict[_FuncKey, str]:
        """``{function: human label of the submitting call site}``."""
        entries: dict[_FuncKey, str] = {}
        for module in project.modules:
            for cls, func, call in _calls_with_context(module.tree):
                worker = self._worker_argument(module, call)
                if worker is None:
                    continue
                label = f"{module.name}:{call.lineno}"
                for key in self._resolve_callable(
                    table, module, cls, func, worker
                ):
                    entries.setdefault(key, label)
        return entries

    def _worker_argument(
        self, module: ModuleInfo, call: ast.Call
    ) -> ast.expr | None:
        """The worker-callable argument when ``call`` submits to a pool."""
        if not call.args:
            return None
        func = call.func
        dotted = module.dotted(func) or ""
        tail = dotted.rpartition(".")[2]
        if tail in _POOL_FUNCS:
            return call.args[0]
        if isinstance(func, ast.Attribute) and func.attr in _SUBMIT_ATTRS:
            receiver = module.dotted(func.value) or ""
            if any(part in receiver.lower() for part in _POOL_RECEIVERS):
                return call.args[0]
        return None

    def _resolve_callable(
        self,
        table: _FunctionTable,
        module: ModuleInfo,
        cls: ast.ClassDef | None,
        func: ast.AST | None,
        node: ast.expr,
        seen: set[int] | None = None,
    ) -> list[_FuncKey]:
        """Function(s) a worker-callable expression may denote."""
        seen = set() if seen is None else seen
        if id(node) in seen:
            return []
        seen.add(id(node))
        keys: list[_FuncKey] = []
        if isinstance(node, ast.Call):
            # functools.partial(fn, ...): the eventual callable is fn.
            dotted = module.qualified(node.func) or module.dotted(node.func) or ""
            if dotted.rpartition(".")[2] == "partial" and node.args:
                return self._resolve_callable(
                    table, module, cls, func, node.args[0], seen
                )
            return keys
        if isinstance(node, ast.Lambda):
            # lambda shard: _worker(shard, cfg) — every call made by the
            # lambda body runs on the pool.
            for inner in ast.walk(node.body):
                if isinstance(inner, ast.Call):
                    keys.extend(
                        self._resolve_callable(
                            table, module, cls, func, inner.func, seen
                        )
                    )
            return keys
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and cls is not None
            ):
                key = table.method(module, cls.name, node.attr)
                if key is not None:
                    keys.append(key)
            return keys
        if isinstance(node, ast.Name):
            if cls is not None and func is not None:
                for attr in _local_self_aliases(func).get(node.id, ()):
                    key = table.method(module, cls.name, attr)
                    if key is not None:
                        keys.append(key)
            if func is not None:
                for other in _local_name_aliases(func).get(node.id, ()):
                    key = table.module_function(module, other)
                    if key is not None:
                        keys.append(key)
                for value in _local_callable_values(func).get(node.id, ()):
                    keys.extend(
                        self._resolve_callable(
                            table, module, cls, func, value, seen
                        )
                    )
            key = table.module_function(module, node.id)
            if key is not None:
                keys.append(key)
        return keys

    # -- reachability --------------------------------------------------

    def _reach(
        self, table: _FunctionTable, entries: dict[_FuncKey, str]
    ) -> dict[_FuncKey, str]:
        reachable: dict[_FuncKey, str] = {}
        stack = list(entries.items())
        while stack:
            key, entry = stack.pop()
            if key in reachable:
                continue
            reachable[key] = entry
            func = table.functions.get(key)
            if func is None:
                continue
            for callee in self._edges(table, func):
                if callee not in reachable:
                    stack.append((callee, entry))
        return reachable

    def _edges(self, table: _FunctionTable, func: _FuncNode) -> list[_FuncKey]:
        module = func.module
        cls = func.key.cls
        aliases = _local_self_aliases(func.node)
        edges: list[_FuncKey] = []
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                if cls is not None:
                    for attr in aliases.get(callee.id, ()):
                        key = table.method(module, cls, attr)
                        if key is not None:
                            edges.append(key)
                key = table.module_function(module, callee.id)
                if key is not None:
                    edges.append(key)
            elif (
                isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and cls is not None
            ):
                key = table.method(module, cls, callee.attr)
                if key is not None:
                    edges.append(key)
        return edges


def _calls_with_context(tree: ast.Module):
    """Yield ``(enclosing_class, enclosing_function, call)`` triples."""

    results: list[tuple[ast.ClassDef | None, ast.AST | None, ast.Call]] = []

    class _Walker(ast.NodeVisitor):
        def __init__(self) -> None:
            self.cls: ast.ClassDef | None = None
            self.func: ast.AST | None = None

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            previous, self.cls = self.cls, node
            self.generic_visit(node)
            self.cls = previous

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            previous, self.func = self.func, node
            self.generic_visit(node)
            self.func = previous

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Call(self, node: ast.Call) -> None:
            results.append((self.cls, self.func, node))
            self.generic_visit(node)

    _Walker().visit(tree)
    return results
