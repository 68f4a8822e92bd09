"""The project's AST rules, and :data:`RULES`, the ones every run applies.

DET002 is a single-module pattern check over the shared
:class:`~repro.analysis.visitor.ModuleInfo` facts. RACE002 is
interprocedural: it reads the per-function lock sets of the call-graph
:class:`~repro.analysis.callgraph.Summaries`.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .callgraph import Summaries, lock_name
from .findings import Finding
from .rules import Rule
from .visitor import ModuleInfo, Project

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


class NondeterminismSource(Rule):
    """A wall-clock read, or a loop directly over a set.

    Byte-identical reruns are the repo's determinism contract;
    wall-clock values and set iteration order (hash randomization)
    vary between processes, so neither may feed committed output.
    """

    code = "DET002"

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
                self._record(
                    self.summaries.locks(key),
                    node.lineno,
                    f"call to {key.label()}",
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        pass  # nested defs do not run while the lock is held

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]


class LockOrderInconsistency(Rule):
    """Two locks acquired in opposite orders on different paths.

    Directly or through called functions: if one thread holds A
    waiting for B while another holds B waiting for A, both block
    forever. One global acquisition order is the fix.
    """

    code = "RACE002"

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
            yield Finding(
                code=self.code,
                path=module.path,
                line=line,
                col=0,
                message=(
                    f"locks {', '.join(sorted(cycle))} are acquired in "
                    f"inconsistent order: {detail}; pick one global order"
                ),
                snippet=module.line(line),
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


#: Every rule a run applies, in code order.
RULES: tuple[Rule, ...] = (NondeterminismSource(), LockOrderInconsistency())
