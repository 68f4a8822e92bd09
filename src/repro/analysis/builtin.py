"""The built-in AST rules.

Two families live here. The syntactic rules — DP001, DET001, DET002,
EPS001 — are single-module pattern checks over the shared
:class:`~repro.analysis.visitor.ModuleInfo` facts. The flow-sensitive
rules — EPS002, LIFE001, LEDGER001, RACE002 — run a worklist dataflow
(:mod:`repro.analysis.dataflow`) over per-function CFGs
(:mod:`repro.analysis.cfg`), stitched interprocedurally through the
call-graph summaries in :mod:`repro.analysis.callgraph` (which also
hosts RACE001, the original cross-module rule).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .callgraph import (
    FuncKey,
    FunctionTable,
    Summaries,
    lock_name,
    param_names,
)
from .cfg import CFG, Node, build_cfg
from .dataflow import Solution, Transfer, fixpoint
from .findings import Finding
from .rules import Rule, rule
from .visitor import ModuleInfo, Project

# ---------------------------------------------------------------------------
# DP001 — unledgered noise
# ---------------------------------------------------------------------------

#: Modules allowed to draw noise without their own ledger calls — they
#: are the sanctioned mechanism primitives; accounting happens one
#: level up, at their call sites.
SANCTIONED_MODULES = frozenset(
    {
        "repro.core.laplace",
        "repro.core.global_mechanism",
        "repro.core.local_mechanism",
    }
)

#: Attribute-call names that draw noise. ``perturb_trajectory`` is
#: deliberately absent: it is the *recorded* high-level entry point the
#: engine layer calls, not a raw draw.
_DRAW_ATTRS = frozenset({"laplace", "exponential", "perturb", "perturb_count"})

#: Fully-qualified callables that draw noise.
_DRAW_QUALIFIED = frozenset(
    {
        "repro.core.laplace.laplace_noise",
        "repro.core.laplace.LaplaceMechanism",
    }
)

#: A scope containing any of these attribute calls is considered to
#: thread its draws through the composition ledger.
_LEDGER_ATTRS = frozenset({"record", "record_parallel"})


class _DrawCollector(ast.NodeVisitor):
    """Collect noise-draw call sites, grouped by innermost ClassDef
    (or the module for top-level code), and whether each scope also
    contains a ledger call."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self._class_stack: list[ast.ClassDef] = []
        #: scope key (ClassDef node or None for module level)
        self.draws: dict[ast.ClassDef | None, list[ast.Call]] = {}
        self.ledgered: set[ast.ClassDef | None] = set()

    def _scope(self) -> ast.ClassDef | None:
        return self._class_stack[-1] if self._class_stack else None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        scope = self._scope()
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _LEDGER_ATTRS:
                self.ledgered.add(scope)
            if func.attr in _DRAW_ATTRS:
                self.draws.setdefault(scope, []).append(node)
        qualified = self.module.qualified(func)
        if qualified in _DRAW_QUALIFIED:
            self.draws.setdefault(scope, []).append(node)
        self.generic_visit(node)


@rule
class UnledgeredNoise(Rule):
    code = "DP001"
    name = "unledgered noise"
    summary = (
        "noise is drawn outside the sanctioned mechanism modules by a "
        "scope that never records to the composition ledger"
    )
    rationale = (
        "Every Laplace draw consumes privacy budget; a draw that is not "
        "recorded via CompositionLedger.record/record_parallel silently "
        "under-reports the true epsilon of a published dataset."
    )
    example = "noisy = mechanism.perturb_count(count, rng)  # no ledger in scope"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.name in SANCTIONED_MODULES:
                continue
            collector = _DrawCollector(module)
            collector.visit(module.tree)
            for scope, calls in collector.draws.items():
                if scope in collector.ledgered:
                    continue
                where = f"class {scope.name}" if scope is not None else "module scope"
                for call in calls:
                    yield self.finding(
                        module,
                        call,
                        f"noise draw in {where} without a ledger "
                        f"record/record_parallel call; thread a "
                        f"CompositionLedger or move the draw into a "
                        f"sanctioned mechanism module",
                    )


# ---------------------------------------------------------------------------
# DET001 — bare RNG
# ---------------------------------------------------------------------------

#: Explicit-state constructors in numpy.random that are fine to call.
_NUMPY_SEEDED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937"}
)

#: stdlib ``random`` attributes that create explicit-state instances.
_STDLIB_SEEDED = frozenset({"Random", "SystemRandom"})


@rule
class BareRng(Rule):
    code = "DET001"
    name = "bare RNG"
    summary = (
        "global-state RNG call (stdlib random.* module function or "
        "np.random.* legacy API) instead of a threaded seeded generator"
    )
    rationale = (
        "All randomness must flow from derive_seed/local_stream_seed "
        "through explicit random.Random / numpy Generator instances; a "
        "global-state call breaks byte-identity between runs and between "
        "the serial and wave-parallel engines."
    )
    example = "value = random.random()  # use rng.random() with a seeded rng"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                qualified = module.qualified(node.func)
                if qualified is None:
                    continue
                finding = self._classify(module, node, qualified)
                if finding is not None:
                    yield finding

    def _classify(
        self, module: ModuleInfo, node: ast.Call, qualified: str
    ) -> Finding | None:
        if qualified.startswith("random."):
            attr = qualified.split(".", 1)[1]
            if "." not in attr and attr not in _STDLIB_SEEDED:
                return self.finding(
                    module,
                    node,
                    f"global-state stdlib RNG call random.{attr}(); "
                    f"use an explicit random.Random(seed) instance",
                )
        if qualified.startswith("numpy.random."):
            attr = qualified.split("numpy.random.", 1)[1]
            if "." not in attr and attr not in _NUMPY_SEEDED:
                return self.finding(
                    module,
                    node,
                    f"legacy global-state numpy RNG call "
                    f"np.random.{attr}(); use numpy.random.default_rng(seed)",
                )
        return None


# ---------------------------------------------------------------------------
# DET002 — nondeterminism sources
# ---------------------------------------------------------------------------

#: Wall-clock reads that leak into output if called on a committed path.
#: ``time.perf_counter``/``time.monotonic`` are allowed: they only feed
#: timing reports, never data, and the reports label them as timings.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@rule
class NondeterminismSource(Rule):
    code = "DET002"
    name = "nondeterminism source"
    summary = (
        "wall-clock read or direct iteration over an unordered set in "
        "code that feeds committed output"
    )
    rationale = (
        "Byte-identical reruns are the repo's determinism contract; "
        "wall-clock values and set iteration order vary between "
        "processes (hash randomization) and so cannot appear on any "
        "path that produces committed output."
    )
    example = "for loc in {a, b, c}:  # iterate sorted(...) instead"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    qualified = module.qualified(node.func)
                    if qualified in _WALL_CLOCK:
                        yield self.finding(
                            module,
                            node,
                            f"wall-clock read {qualified}(); thread an "
                            f"explicit timestamp parameter instead "
                            f"(perf_counter is allowed for timings)",
                        )
                    continue
                iters: list[ast.expr] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if self._is_unordered(module, it):
                        yield self.finding(
                            module,
                            it,
                            "iteration directly over a set has "
                            "nondeterministic order; wrap in sorted(...)",
                        )

    @staticmethod
    def _is_unordered(module: ModuleInfo, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            qualified = module.qualified(node.func)
            return qualified in {"set", "frozenset"}
        return False


# ---------------------------------------------------------------------------
# EPS001 — epsilon None-vs-zero confusion
# ---------------------------------------------------------------------------


def _is_epsilon_name(identifier: str) -> bool:
    lowered = identifier.lower()
    return (
        "epsilon" in lowered
        or lowered == "eps"
        or lowered.startswith("eps_")
        or lowered.endswith("_eps")
    )


def _epsilon_expr(node: ast.expr) -> str | None:
    """The identifier when ``node`` is a bare epsilon-named Name or
    Attribute chain, else None."""
    if isinstance(node, ast.Name) and _is_epsilon_name(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _is_epsilon_name(node.attr):
        return node.attr
    return None


def _is_zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0


@rule
class EpsilonTruthiness(Rule):
    code = "EPS001"
    name = "epsilon None-vs-zero confusion"
    summary = (
        "epsilon compared with ==/!= 0 or used for truthiness instead "
        "of an `is None` check"
    )
    rationale = (
        "A disabled stage is epsilon=None, not epsilon=0: treating 0.0 "
        "and None alike either spends budget that was never requested "
        "or silently drops a requested mechanism (the PR 5 epsilon-edge "
        "bug)."
    )
    example = "mech = Mechanism(eps) if eps else None  # use `if eps is not None`"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                yield from self._check_node(module, node)

    def _check_node(self, module: ModuleInfo, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:], strict=False):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for eps_side, other in ((left, right), (right, left)):
                    name = _epsilon_expr(eps_side)
                    if name is not None and _is_zero(other):
                        yield self.finding(
                            module,
                            node,
                            f"epsilon parameter {name!r} compared with "
                            f"==/!= 0; disabled means None — use "
                            f"`is None` / `is not None`",
                        )
            return
        tests: list[ast.expr] = []
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            tests.append(node.test)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tests.append(node.operand)
        elif isinstance(node, ast.BoolOp):
            tests.extend(node.values)
        for test in tests:
            name = _epsilon_expr(test)
            if name is not None:
                yield self.finding(
                    module,
                    test,
                    f"truthiness test on epsilon parameter {name!r} "
                    f"conflates 0.0 with None; use `is not None`",
                )


# ---------------------------------------------------------------------------
# Flow-sensitive rules: shared helpers
# ---------------------------------------------------------------------------

#: Attribute calls that terminate a resource.
_TERMINAL_ATTRS = frozenset({"close", "shutdown", "__exit__"})
#: Attribute calls that settle a budget reservation.
_SETTLE_ATTRS = frozenset({"commit", "release"})


def _iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str | None, ast.AST]]:
    """``(innermost_class_name, function_node)`` for every function in
    the module, including methods and nested functions."""

    def walk(body: list[ast.stmt], cls: str | None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, node
                yield from walk(node.body, cls)
            elif isinstance(node, (ast.If, ast.Try)):
                # conditionally-defined functions (TYPE_CHECKING etc.)
                yield from walk(node.body, cls)
                for handler in getattr(node, "handlers", []):
                    yield from walk(handler.body, cls)
                yield from walk(node.orelse, cls)
                yield from walk(getattr(node, "finalbody", []), cls)

    yield from walk(tree.body, None)


def _stmt_parts(stmt: ast.AST) -> list[ast.AST]:
    """The AST evaluated *at* this CFG node. Compound statements only
    contribute their header expression — their bodies are separate
    nodes — and nested definitions are opaque."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(
        stmt,
        (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
    ):
        return []
    return [stmt]


def _walk_parts(stmt: ast.AST) -> Iterator[ast.AST]:
    for part in _stmt_parts(stmt):
        yield from ast.walk(part)


def _parent_pairs(root: ast.AST) -> Iterator[tuple[ast.AST, ast.AST]]:
    for child in ast.iter_child_nodes(root):
        yield root, child
        yield from _parent_pairs(child)


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return "<expr>"


def _nested_scope_names(func: ast.AST) -> set[str]:
    """Names referenced inside nested functions/lambdas of ``func`` —
    a closure may outlive the frame, so these cannot be tracked."""
    names: set[str] = set()
    for node in ast.walk(func):
        if node is func:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
    return names


def _finding_at(
    rule_obj: Rule, module: ModuleInfo, line: int, col: int, message: str
) -> Finding:
    return Finding(
        code=rule_obj.code,
        path=module.path,
        line=line,
        col=col,
        message=message,
        snippet=module.line(line),
    )


# ---------------------------------------------------------------------------
# LIFE001 — resource lifecycle
# ---------------------------------------------------------------------------


def _close_defining_classes(project: Project) -> frozenset[str]:
    """Class names (project-wide) that define a terminal ``close()``."""
    names: set[str] = set()
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "close"
                for item in node.body
            ):
                names.add(node.name)
    return frozenset(names)


class _LifecycleTransfer(Transfer):
    """Lattice: ``v:<name> -> {rid...}`` bindings plus ``s:<rid> ->
    subset of {open, closed, escaped}`` allocation statuses. ``escaped``
    silences an allocation (returned/stored/passed to unknown code —
    its lifetime is no longer this frame's responsibility)."""

    def __init__(
        self,
        module: ModuleInfo,
        cls: str | None,
        func: ast.AST,
        resources: frozenset[str],
        summaries: Summaries,
    ) -> None:
        self.module = module
        self.cls = cls
        self.resources = resources
        self.summaries = summaries
        self.untracked = _nested_scope_names(func)
        #: rid -> (line, var, class name); filled during transfer.
        self.allocs: dict[str, tuple[int, str, str]] = {}

    # -- allocation / close discovery ----------------------------------

    def _alloc_class(self, expr: ast.AST) -> str | None:
        if not isinstance(expr, ast.Call):
            return None
        dotted = self.module.qualified(expr.func) or self.module.dotted(expr.func) or ""
        tail = dotted.rpartition(".")[2]
        if tail in self.resources:
            return tail
        key = self.summaries.resolve_call(self.module, self.cls, expr)
        if key is not None:
            summary = self.summaries.for_key(key)
            if summary is not None and summary.returns_resource:
                return summary.returns_resource
        return None

    def _closing_args(self, stmt: ast.AST) -> set[int]:
        """``id()`` of argument Name nodes handed to a callee that
        closes the corresponding parameter."""
        closing: set[int] = set()
        for node in _walk_parts(stmt):
            if not isinstance(node, ast.Call):
                continue
            key = self.summaries.resolve_call(self.module, self.cls, node)
            if key is None:
                continue
            summary = self.summaries.for_key(key)
            if summary is None or not summary.closes:
                continue
            names = param_names(self.summaries.table.functions[key].node)
            if key.cls is not None and names and names[0] == "self":
                names = names[1:]
            for position, arg in enumerate(node.args):
                if (
                    position < len(names)
                    and isinstance(arg, ast.Name)
                    and names[position] in summary.closes
                ):
                    closing.add(id(arg))
            for keyword in node.keywords:
                if (
                    keyword.arg in summary.closes
                    and isinstance(keyword.value, ast.Name)
                ):
                    closing.add(id(keyword.value))
        return closing

    def _close_receivers(self, stmt: ast.AST) -> set[str]:
        """Variables whose resource this statement closes."""
        receivers: set[str] = set()
        for node in _walk_parts(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TERMINAL_ATTRS
                and isinstance(node.func.value, ast.Name)
            ):
                receivers.add(node.func.value.id)
            elif isinstance(node, ast.Name) and id(node) in self._closing_ids:
                receivers.add(node.id)
        return receivers

    def _escaping_names(self, stmt: ast.AST, tracked: set[str]) -> set[str]:
        """Tracked variables this statement lets out of the frame."""
        escaped: set[str] = set()
        alias_value: ast.AST | None = None
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            alias_value = stmt.value
        for part in _stmt_parts(stmt):
            for parent, child in _parent_pairs(part):
                if not (
                    isinstance(child, ast.Name)
                    and isinstance(child.ctx, ast.Load)
                    and child.id in tracked
                ):
                    continue
                if id(child) in self._closing_ids:
                    continue
                if isinstance(parent, ast.Attribute) and parent.value is child:
                    continue  # receiver position: s.append(...), s.path
                if isinstance(parent, ast.withitem):
                    continue
                if isinstance(parent, (ast.Compare, ast.BoolOp, ast.UnaryOp)):
                    continue  # identity/truthiness tests
                if isinstance(parent, ast.Call) and parent.func is child:
                    continue
                if isinstance(parent, ast.Assign) and child is alias_value:
                    continue  # plain `alias = s` — tracked as an alias
                escaped.add(child.id)
        return escaped

    # -- transfer -------------------------------------------------------

    def _set_status(self, state, name: str, status: frozenset[str]):
        rids = state.get(f"v:{name}", frozenset())
        if not rids:
            return state
        updated = dict(state)
        for rid in rids:
            updated[f"s:{rid}"] = status
        return updated

    def transfer(self, node: Node, state):
        stmt = node.stmt
        if node.kind == "with-exit":
            post = state
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    post = self._set_status(
                        post, item.optional_vars.id, frozenset({"closed"})
                    )
                elif isinstance(item.context_expr, ast.Name):
                    post = self._set_status(
                        post, item.context_expr.id, frozenset({"closed"})
                    )
                else:
                    post = self._set_status(
                        post,
                        f"@with{item.context_expr.lineno}",
                        frozenset({"closed"}),
                    )
            return post, post
        if node.kind != "stmt":
            return state, state

        self._closing_ids = self._closing_args(stmt)
        tracked = {k[2:] for k in state if k.startswith("v:")}

        pre = state
        for name in self._escaping_names(stmt, tracked):
            pre = self._set_status(pre, name, frozenset({"escaped"}))
        post = pre
        for name in self._close_receivers(stmt):
            post = self._set_status(post, name, frozenset({"closed"}))
        post_exc = post  # a failing close still counts as terminal

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            updated = dict(post)
            for item in stmt.items:
                # `with tracked:` — the only failure this node's exc
                # edge models is __enter__ raising, and an __enter__
                # either succeeds or cleans up after itself, so the
                # unwind counts as handled.
                if isinstance(item.context_expr, ast.Name):
                    post_exc = self._set_status(
                        post_exc, item.context_expr.id, frozenset({"closed"})
                    )
                cls_name = self._alloc_class(item.context_expr)
                if cls_name is None:
                    continue
                if isinstance(item.optional_vars, ast.Name):
                    var = item.optional_vars.id
                    if var in self.untracked:
                        continue
                else:
                    var = f"@with{item.context_expr.lineno}"
                rid = f"{item.context_expr.lineno}:{var}"
                self.allocs[rid] = (item.context_expr.lineno, var, cls_name)
                updated[f"v:{var}"] = frozenset({rid})
                updated[f"s:{rid}"] = frozenset({"open"})
            # a failing constructor means the resource is never held
            return updated, post_exc
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            var = stmt.targets[0].id
            cls_name = self._alloc_class(stmt.value)
            if cls_name is not None and var not in self.untracked:
                rid = f"{stmt.value.lineno}:{var}"
                self.allocs[rid] = (stmt.value.lineno, var, cls_name)
                updated = dict(post)
                updated[f"v:{var}"] = frozenset({rid})
                updated[f"s:{rid}"] = frozenset({"open"})
                return updated, post_exc
            if isinstance(stmt.value, ast.Name) and f"v:{stmt.value.id}" in post:
                updated = dict(post)
                updated[f"v:{var}"] = post[f"v:{stmt.value.id}"]
                return updated, post_exc
            if f"v:{var}" in post:
                updated = dict(post)
                del updated[f"v:{var}"]
                return updated, post_exc
        return post, post_exc


@rule
class ResourceLifecycle(Rule):
    code = "LIFE001"
    name = "resource lifecycle"
    summary = (
        "an object with a terminal close() does not reach close()/"
        "__exit__ on every path (including exception paths), or is "
        "used after being closed"
    )
    rationale = (
        "SpillStore, BatchAnonymizer, and the serve-layer handles hold "
        "files, temp directories, and spooled jobs; a path — especially "
        "an exception path — that skips close() leaks them, and a "
        "use-after-close writes to a torn-down resource. Wrap the "
        "lifetime in `with` or a try/finally."
    )
    example = "store = SpillStore(dir); store.append(row)  # raise leaks the store"

    def check(self, project: Project) -> Iterable[Finding]:
        resources = _close_defining_classes(project)
        if not resources:
            return
        summaries = Summaries(project, resource_classes=resources)
        for module in project.modules:
            for cls, func in _iter_functions(module.tree):
                yield from self._check_function(
                    module, cls, func, resources, summaries
                )

    def _mentions_resource(self, func: ast.AST, resources: frozenset[str]) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in resources:
                return True
            if isinstance(node, ast.Attribute) and node.attr in resources:
                return True
            if isinstance(node, ast.Call):
                return True  # a factory call may allocate
        return False

    def _check_function(
        self,
        module: ModuleInfo,
        cls: str | None,
        func: ast.AST,
        resources: frozenset[str],
        summaries: Summaries,
    ) -> Iterator[Finding]:
        if func.name == "close" or not self._mentions_resource(func, resources):
            return
        transfer = _LifecycleTransfer(module, cls, func, resources, summaries)
        cfg = build_cfg(func)
        solution = fixpoint(cfg, transfer)
        if not transfer.allocs:
            return
        yield from self._leaks(cfg, solution, transfer, module, func)
        yield from self._use_after_close(cfg, solution, transfer, module)

    def _leaks(
        self,
        cfg: CFG,
        solution: Solution,
        transfer: _LifecycleTransfer,
        module: ModuleInfo,
        func: ast.AST,
    ) -> Iterator[Finding]:
        leaking: dict[str, list[str]] = {}
        for exit_node, where, must in (
            # Normal exit: flag only when *no* normal path closes
            # (conditional closes join to {open, closed} and stay
            # quiet). Exception exit: every `open` contribution is a
            # distinct raising statement whose unwind skips close —
            # post-close failures contribute `closed` — so may-open is
            # precise there.
            (cfg.exit, "normal", True),
            (cfg.raise_exit, "exception", False),
        ):
            state = solution.in_state(exit_node)
            if state is None:
                continue
            for key, status in state.items():
                if not key.startswith("s:") or "escaped" in status:
                    continue
                if status == frozenset({"open"}) or (
                    not must and "open" in status
                ):
                    leaking.setdefault(key[2:], []).append(where)
        for rid, wheres in sorted(leaking.items()):
            line, var, cls_name = transfer.allocs[rid]
            paths = " and ".join(wheres)
            yield _finding_at(
                self,
                module,
                line,
                getattr(func, "col_offset", 0),
                f"{cls_name} `{var}` opened here never reaches close()/"
                f"__exit__ on {paths} paths of {func.name}(); wrap the "
                f"lifetime in `with` or add a try/finally",
            )

    def _use_after_close(
        self,
        cfg: CFG,
        solution: Solution,
        transfer: _LifecycleTransfer,
        module: ModuleInfo,
    ) -> Iterator[Finding]:
        seen: set[tuple[int, str]] = set()
        for node in cfg.nodes:
            if node.kind != "stmt" or node.tags:
                continue
            state = solution.in_state(node)
            if state is None:
                continue
            for part in _stmt_parts(node.stmt):
                for parent, child in _parent_pairs(part):
                    if not (
                        isinstance(child, ast.Name)
                        and isinstance(child.ctx, ast.Load)
                    ):
                        continue
                    if not (
                        isinstance(parent, ast.Attribute)
                        and parent.value is child
                        and parent.attr not in _TERMINAL_ATTRS
                    ):
                        continue
                    rids = state.get(f"v:{child.id}", frozenset())
                    for rid in rids:
                        if state.get(f"s:{rid}") != frozenset({"closed"}):
                            continue
                        line, _, cls_name = transfer.allocs[rid]
                        site = (child.lineno, child.id)
                        if site in seen:
                            continue
                        seen.add(site)
                        yield _finding_at(
                            self,
                            module,
                            child.lineno,
                            child.col_offset,
                            f"`{child.id}.{parent.attr}` used after the "
                            f"{cls_name} opened at line {line} was closed "
                            f"on every path reaching here",
                        )


# ---------------------------------------------------------------------------
# LEDGER001 — reserve/commit/release pairing
# ---------------------------------------------------------------------------


def _settle_effects(summaries: Summaries) -> dict[FuncKey, set[str]]:
    """``self.<attr>``-rooted receiver texts each method settles,
    directly or through same-``self`` method calls (fixpoint)."""
    table = summaries.table
    direct: dict[FuncKey, set[str]] = {}
    calls: dict[FuncKey, list[FuncKey]] = {}
    for key, func in table.functions.items():
        texts: set[str] = set()
        callees: list[FuncKey] = []
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SETTLE_ATTRS
            ):
                text = _unparse(node.func.value)
                if text.startswith("self."):
                    texts.add(text)
            target = summaries.resolve_call(func.module, key.cls, node)
            if target is not None and target.cls == key.cls and target != key:
                callees.append(target)
        direct[key] = texts
        calls[key] = callees
    changed = True
    while changed:
        changed = False
        for key, callees in calls.items():
            for callee in callees:
                extra = direct.get(callee, set()) - direct[key]
                if extra:
                    direct[key] |= extra
                    changed = True
    return direct


class _LedgerTransfer(Transfer):
    """Lattice: reserve-receiver text -> subset of {open, settled}."""

    def __init__(
        self,
        module: ModuleInfo,
        cls: str | None,
        summaries: Summaries,
        self_settles: dict[FuncKey, set[str]],
    ) -> None:
        self.module = module
        self.cls = cls
        self.summaries = summaries
        self.self_settles = self_settles
        #: receiver text -> line of its first reserve call.
        self.reserves: dict[str, int] = {}

    def _stmt_effects(self, stmt: ast.AST) -> tuple[set[str], set[str]]:
        """``(reserved_texts, settled_texts)`` of this statement."""
        reserved: set[str] = set()
        settled: set[str] = set()
        for node in _walk_parts(stmt):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                text = _unparse(node.func.value)
                if node.func.attr == "reserve":
                    reserved.add(text)
                elif node.func.attr in _SETTLE_ATTRS:
                    settled.add(text)
            settled |= self._callee_settles(node)
        return reserved, settled

    def _callee_settles(self, call: ast.Call) -> set[str]:
        key = self.summaries.resolve_call(self.module, self.cls, call)
        if key is None:
            return set()
        settled = set()
        if key.cls is not None and key.cls == self.cls:
            settled |= self.self_settles.get(key, set())
        summary = self.summaries.for_key(key)
        if summary is not None and summary.settles:
            names = param_names(self.summaries.table.functions[key].node)
            if key.cls is not None and names and names[0] == "self":
                names = names[1:]
            for position, arg in enumerate(call.args):
                if position < len(names) and names[position] in summary.settles:
                    settled.add(_unparse(arg))
            for keyword in call.keywords:
                if keyword.arg in summary.settles:
                    settled.add(_unparse(keyword.value))
        return settled

    def transfer(self, node: Node, state):
        if node.kind not in ("stmt",):
            return state, state
        reserved, settled = self._stmt_effects(node.stmt)
        if not reserved and not settled:
            return state, state
        post = dict(state)
        for text in settled:
            if text in post:
                post[text] = frozenset({"settled"})
        post_exc = dict(post)  # a failing settle still settles
        for text in reserved:
            self.reserves.setdefault(text, node.stmt.lineno)
            post[text] = frozenset({"open"})
            # the reserve call itself failing leaves nothing reserved,
            # so the exception edge keeps the pre-reserve state
        return post, post_exc


@rule
class ReservationPairing(Rule):
    code = "LEDGER001"
    name = "reserve/commit/release pairing"
    summary = (
        "a BudgetStore.reserve is not settled by exactly one commit/"
        "release on every path out of the function (exception paths "
        "must release)"
    )
    rationale = (
        "A reservation that survives an early return or an exception "
        "pins tenant budget until a daemon restart replays the WAL; a "
        "double settle corrupts the ledger. Functions that settle on "
        "some paths must settle on all of them — put the release in a "
        "finally/except block."
    )
    example = "rid = store.reserve(t, j, eps); work(); store.commit(t, rid)  # raise leaks rid"

    def check(self, project: Project) -> Iterable[Finding]:
        summaries = Summaries(project)
        self_settles = _settle_effects(summaries)
        for module in project.modules:
            for cls, func in _iter_functions(module.tree):
                yield from self._check_function(
                    module, cls, func, summaries, self_settles
                )

    def _check_function(
        self,
        module: ModuleInfo,
        cls: str | None,
        func: ast.AST,
        summaries: Summaries,
        self_settles: dict[FuncKey, set[str]],
    ) -> Iterator[Finding]:
        if not any(
            isinstance(node, ast.Attribute) and node.attr == "reserve"
            for node in ast.walk(func)
        ):
            return
        transfer = _LedgerTransfer(module, cls, summaries, self_settles)
        cfg = build_cfg(func)
        solution = fixpoint(cfg, transfer)
        if not transfer.reserves:
            return
        # Inconsistent-handling gate: a function that only reserves is a
        # handoff (the settle lives downstream, e.g. a queue consumer);
        # flag only functions that settle somewhere yet miss a path.
        settled_somewhere = self._settles_anywhere(
            module, cls, func, summaries, self_settles
        )
        for text, line in sorted(transfer.reserves.items()):
            if text not in settled_somewhere:
                continue
            yield from self._path_findings(cfg, solution, module, func, text, line)
        yield from self._double_settles(cfg, solution, transfer, module)

    def _settles_anywhere(
        self, module, cls, func, summaries, self_settles
    ) -> set[str]:
        transfer = _LedgerTransfer(module, cls, summaries, self_settles)
        settled: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SETTLE_ATTRS
                ):
                    settled.add(_unparse(node.func.value))
                settled |= transfer._callee_settles(node)
        return settled

    def _path_findings(
        self, cfg, solution, module, func, text, line
    ) -> Iterator[Finding]:
        for exit_node, what in (
            (cfg.exit, "a normal path"),
            (cfg.raise_exit, "an exception path"),
        ):
            state = solution.in_state(exit_node)
            if state is None:
                continue
            if "open" in state.get(text, frozenset()):
                yield _finding_at(
                    self,
                    module,
                    line,
                    0,
                    f"reservation on `{text}` in {func.name}() is never "
                    f"committed or released along {what}; settle it in a "
                    f"finally/except block",
                )

    def _double_settles(
        self, cfg, solution, transfer, module
    ) -> Iterator[Finding]:
        seen: set[int] = set()
        for node in cfg.nodes:
            if node.kind != "stmt" or node.tags:
                continue
            state = solution.in_state(node)
            if state is None:
                continue
            _, settled = transfer._stmt_effects(node.stmt)
            for text in settled:
                if state.get(text) == frozenset({"settled"}) and (
                    node.stmt.lineno not in seen
                ):
                    seen.add(node.stmt.lineno)
                    yield _finding_at(
                        self,
                        module,
                        node.stmt.lineno,
                        0,
                        f"reservation on `{text}` is already settled on "
                        f"every path reaching this second commit/release",
                    )


# ---------------------------------------------------------------------------
# EPS002 — budget conservation across splits
# ---------------------------------------------------------------------------

#: Callee-name fragments that split an epsilon into shares.
_SPLIT_CALL_FRAGMENTS = ("split", "apportion")


def _epsilon_source(expr: ast.expr) -> str | None:
    """The epsilon-named identifier an arithmetic share derives from."""
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.Mult, ast.Sub, ast.Div)
    ):
        name = _epsilon_expr(expr.left)
        if name is not None:
            return name
        if isinstance(expr.op, ast.Mult):
            return _epsilon_expr(expr.right)
    return None


def _split_call_source(expr: ast.expr, module: ModuleInfo) -> str | None:
    """The source label when ``expr`` calls a splitter (``split_*`` /
    ``apportion``)."""
    if not isinstance(expr, ast.Call):
        return None
    dotted = module.dotted(expr.func) or ""
    tail = dotted.rpartition(".")[2].lower()
    if not any(fragment in tail for fragment in _SPLIT_CALL_FRAGMENTS):
        return None
    for arg in expr.args:
        name = _epsilon_expr(arg)
        if name is not None:
            return name
    return tail


class _BudgetSplitTransfer(Transfer):
    """Lattice: ``share:<var>|<src>|<line> -> {unread|read}`` per live
    share, plus ``src:<name> -> {split}`` once a source was split."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module

    @staticmethod
    def _share_keys(state, var: str) -> list[str]:
        prefix = f"share:{var}|"
        return [key for key in state if key.startswith(prefix)]

    def _new_shares(self, stmt: ast.AST) -> list[tuple[str, str, int]]:
        """``(var, source, line)`` for shares this statement creates."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return []
        target = stmt.targets[0]
        line = stmt.lineno
        source = _epsilon_source(stmt.value)
        if source is None:
            source = _split_call_source(stmt.value, self.module)
        if source is None:
            return []
        if isinstance(target, ast.Name):
            return [(target.id, source, line)]
        if isinstance(target, (ast.Tuple, ast.List)):
            return [
                (element.id, source, line)
                for element in target.elts
                if isinstance(element, ast.Name)
            ]
        return []

    def transfer(self, node: Node, state):
        if node.kind != "stmt":
            return state, state
        stmt = node.stmt
        new_shares = self._new_shares(stmt)
        post = dict(state)
        # Any read of a share variable marks it used (including reads
        # that derive further shares from it).
        for inner in _walk_parts(stmt):
            if (
                isinstance(inner, ast.Name)
                and isinstance(inner.ctx, ast.Load)
            ):
                for key in self._share_keys(post, inner.id):
                    post[key] = frozenset({"read"})
        # Rebinding kills the old share (the drop, if any, is reported
        # by the collect pass before the kill).
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if isinstance(element, ast.Name):
                        for key in self._share_keys(post, element.id):
                            del post[key]
        post_exc = dict(post)
        for var, source, line in new_shares:
            post[f"share:{var}|{source}|{line}"] = frozenset({"unread"})
            post[f"src:{source}"] = frozenset({"split"})
        return post, post_exc


@rule
class BudgetConservation(Rule):
    code = "EPS002"
    name = "budget conservation across splits"
    summary = (
        "an epsilon share produced by split_spec/apportion/arithmetic "
        "never flows into any downstream use (dropped), or the undivided "
        "source is spent again after being split (double-spend)"
    )
    rationale = (
        "Splitting a budget promises that the shares — and only the "
        "shares — get spent. A share that never reaches a draw quietly "
        "under-uses the reservation; passing the undivided epsilon "
        "onward after carving shares from it spends the same budget "
        "twice. Both desynchronize the ledger from the actual draws."
    )
    example = "eps_g = eps * ratio  # never used; the full `eps` is passed on"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for cls, func in _iter_functions(module.tree):
                if not any(
                    isinstance(node, ast.Name) and _is_epsilon_name(node.id)
                    for node in ast.walk(func)
                ) and not any(
                    isinstance(node, ast.Attribute)
                    and _is_epsilon_name(node.attr)
                    for node in ast.walk(func)
                ):
                    continue
                yield from self._check_function(module, func)

    def _check_function(
        self, module: ModuleInfo, func: ast.AST
    ) -> Iterator[Finding]:
        transfer = _BudgetSplitTransfer(module)
        cfg = build_cfg(func)
        solution = fixpoint(cfg, transfer)
        yield from self._dropped_shares(cfg, solution, transfer, module, func)
        yield from self._double_spends(cfg, solution, module)

    def _dropped_shares(
        self, cfg, solution, transfer, module, func
    ) -> Iterator[Finding]:
        emitted: set[str] = set()
        # Shares still unread on every normal path out of the function.
        state = solution.in_state(cfg.exit)
        if state is not None:
            for key, status in state.items():
                if key.startswith("share:") and status == frozenset({"unread"}):
                    yield from self._drop(key, module, func, emitted)
        # Shares overwritten while still unread on every path.
        for node in cfg.nodes:
            if node.kind != "stmt" or node.tags:
                continue
            if not isinstance(node.stmt, ast.Assign):
                continue
            pre = solution.in_state(node)
            if pre is None:
                continue
            for target in node.stmt.targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if not isinstance(element, ast.Name):
                        continue
                    for key in transfer._share_keys(pre, element.id):
                        if pre[key] == frozenset({"unread"}):
                            yield from self._drop(key, module, func, emitted)

    def _drop(self, key, module, func, emitted) -> Iterator[Finding]:
        if key in emitted:
            return
        emitted.add(key)
        _, payload = key.split(":", 1)
        var, source, line = payload.rsplit("|", 2)
        yield _finding_at(
            self,
            module,
            int(line),
            0,
            f"epsilon share `{var}` split from `{source}` here never "
            f"flows into any draw or downstream call in {func.name}(); "
            f"the reserved budget is silently under-spent",
        )

    def _double_spends(self, cfg, solution, module) -> Iterator[Finding]:
        seen: set[tuple[int, str]] = set()
        for node in cfg.nodes:
            if node.kind != "stmt" or node.tags:
                continue
            state = solution.in_state(node)
            if state is None:
                continue
            for inner in _walk_parts(node.stmt):
                if not isinstance(inner, ast.Call):
                    continue
                arguments = list(inner.args) + [
                    keyword.value for keyword in inner.keywords
                ]
                for argument in arguments:
                    if not isinstance(argument, ast.Name):
                        continue
                    if state.get(f"src:{argument.id}") != frozenset({"split"}):
                        continue
                    site = (argument.lineno, argument.id)
                    if site in seen:
                        continue
                    seen.add(site)
                    yield _finding_at(
                        self,
                        module,
                        argument.lineno,
                        argument.col_offset,
                        f"undivided epsilon `{argument.id}` is passed on "
                        f"after shares were already split from it; this "
                        f"spends the same budget twice",
                    )


# ---------------------------------------------------------------------------
# RACE002 — lock-order consistency
# ---------------------------------------------------------------------------


class _LockNesting(ast.NodeVisitor):
    """Collect (held, acquired, site) lock-order edges in one function,
    following calls into analyzed callees via their lock summaries."""

    def __init__(
        self,
        module: ModuleInfo,
        cls: str | None,
        summaries: Summaries,
        edges: dict[tuple[str, str], tuple[ModuleInfo, int, str]],
    ) -> None:
        self.module = module
        self.cls = cls
        self.summaries = summaries
        self.edges = edges
        self.held: list[str] = []

    def _record(self, acquired: Iterable[str], line: int, what: str) -> None:
        for lock in acquired:
            for holder in self.held:
                if holder != lock:
                    self.edges.setdefault(
                        (holder, lock), (self.module, line, what)
                    )

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired = []
        for item in node.items:
            name = lock_name(self.module, self.cls, item.context_expr)
            if name is not None:
                acquired.append(name)
        self._record(acquired, node.lineno, "nested `with`")
        self.held.extend(acquired)
        for statement in node.body:
            self.visit(statement)
        if acquired:
            del self.held[-len(acquired):]

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            key = self.summaries.resolve_call(self.module, self.cls, node)
            if key is not None:
                summary = self.summaries.for_key(key)
                if summary is not None and summary.locks:
                    self._record(
                        summary.locks,
                        node.lineno,
                        f"call to {key.label()}",
                    )
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        pass  # nested defs do not run while the lock is held

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]


@rule
class LockOrderInconsistency(Rule):
    code = "RACE002"
    name = "lock-order inconsistency"
    summary = (
        "two locks are acquired in opposite orders on different paths "
        "(directly or through called functions) — a potential deadlock"
    )
    rationale = (
        "If one thread holds A waiting for B while another holds B "
        "waiting for A, both block forever. The daemon's per-account "
        "locks plus store/job locks make this reachable; a single "
        "global acquisition order is the fix."
    )
    example = "with a:  with b: ...   # elsewhere: with b:  with a: ..."

    def check(self, project: Project) -> Iterable[Finding]:
        summaries = Summaries(project)
        edges: dict[tuple[str, str], tuple[ModuleInfo, int, str]] = {}
        for key, func in sorted(
            summaries.table.functions.items(), key=lambda kv: kv[0].label()
        ):
            walker = _LockNesting(func.module, key.cls, summaries, edges)
            for statement in func.node.body:
                walker.visit(statement)
        for cycle in self._cycles(edges):
            first = min(
                (pair for pair in edges if pair[0] in cycle and pair[1] in cycle),
                key=lambda pair: (
                    edges[pair][0].path,
                    edges[pair][1],
                ),
            )
            module, line, _ = edges[first]
            detail = "; ".join(
                f"{held} then {acquired} ({edges[(held, acquired)][0].name}:"
                f"{edges[(held, acquired)][1]}, {edges[(held, acquired)][2]})"
                for held, acquired in sorted(edges)
                if held in cycle and acquired in cycle
            )
            yield _finding_at(
                self,
                module,
                line,
                0,
                f"locks {', '.join(sorted(cycle))} are acquired in "
                f"inconsistent order: {detail}; pick one global order",
            )

    @staticmethod
    def _cycles(
        edges: dict[tuple[str, str], tuple[ModuleInfo, int, str]]
    ) -> list[frozenset[str]]:
        """Strongly-connected lock sets with at least one internal edge
        cycle (Tarjan); deterministic order."""
        graph: dict[str, list[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, []).append(acquired)
            graph.setdefault(acquired, [])
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[frozenset[str]] = []

        def strongconnect(vertex: str) -> None:
            index[vertex] = low[vertex] = counter[0]
            counter[0] += 1
            stack.append(vertex)
            on_stack.add(vertex)
            for succ in graph[vertex]:
                if succ not in index:
                    strongconnect(succ)
                    low[vertex] = min(low[vertex], low[succ])
                elif succ in on_stack:
                    low[vertex] = min(low[vertex], index[succ])
            if low[vertex] == index[vertex]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == vertex:
                        break
                if len(component) > 1:
                    sccs.append(frozenset(component))

        for vertex in sorted(graph):
            if vertex not in index:
                strongconnect(vertex)
        return sorted(sccs, key=sorted)
