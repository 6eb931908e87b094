"""Whole-program intra-package call graph shared by the analysis layers.

The one-level walks of the original ``loop-blocking`` and
``lock-discipline`` rules could only see a blocking call one frame away
from the critical region.  This module builds a *module-qualified* call
graph over every analyzed file — resolving ``self._method(...)`` (through
same-file base classes), bare ``function(...)`` calls (same module or
``from x import f``), and ``module.func(...)`` / ``alias.func(...)``
calls through the import table — so those rules can ask "does anything
*transitively reachable* from here block?" with a bounded-depth closure.

The graph is deliberately conservative in what it resolves: calls through
arbitrary attribute chains (``self.journal.wait_durable()``), dynamic
dispatch, and callables passed as values stay unresolved edges.  The leaf
blocking-name check the rules already apply (last dotted segment against
a configured set) covers exactly those unresolved shapes, so the two
mechanisms compose: the name check catches the frontier, the graph
catches everything behind resolvable frames.

Both the static rules and the runtime sanitizer (``repro.analysis.san``)
hang off this one model: the graph is built once per run and cached in
``Context.state["callgraph"]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.core import Context, SourceFile, dotted_name

__all__ = [
    "CallGraph",
    "FuncKey",
    "FunctionInfo",
    "build_callgraph",
    "callgraph_for",
    "module_name_of",
]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_of(rel: str) -> str:
    """Dotted module name for a repo-relative path (``src/`` stripped)."""
    path = rel[:-3] if rel.endswith(".py") else rel
    parts = [p for p in path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class FuncKey:
    """Identity of one function: module, enclosing class (or None), name."""

    module: str
    cls: str | None
    name: str

    def label(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class FunctionInfo:
    key: FuncKey
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    #: Resolved outgoing edges: (call node, callee key).
    calls: list[tuple[ast.Call, FuncKey]] = field(default_factory=list)
    #: The subset of callees whose call sites run when this frame runs
    #: (calls inside nested ``def``/``lambda`` bodies are excluded).
    live_calls: list[FuncKey] = field(default_factory=list)


class _ModuleIndex:
    """Per-module symbol tables used during resolution."""

    def __init__(self, module: str, source: SourceFile) -> None:
        self.module = module
        self.source = source
        #: local alias -> dotted module it names (``import x.y as z``).
        self.module_aliases: dict[str, str] = {}
        #: local name -> (module, symbol) for ``from x import f``.
        self.imported_symbols: dict[str, tuple[str, str]] = {}
        #: class name -> base class names (local identifiers only).
        self.class_bases: dict[str, list[str]] = {}
        self._scan_imports(source)

    def _scan_imports(self, source: SourceFile) -> None:
        for node in source.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imported_symbols[local] = (node.module, alias.name)


class CallGraph:
    """Functions + resolved call edges over one analyzed file set."""

    def __init__(self) -> None:
        self.functions: dict[FuncKey, FunctionInfo] = {}
        self._modules: dict[str, _ModuleIndex] = {}
        #: (module, class) -> resolved base keys within the analyzed set.
        self._bases: dict[tuple[str, str], list[tuple[str, str]]] = {}
        #: Per blocking-name-set: function -> (min frames to a blocking
        #: call, the direct blocking name when distance is 1).
        self._distance_cache: dict[frozenset[str], dict[FuncKey, int]] = {}
        self._direct_cache: dict[frozenset[str], dict[FuncKey, str]] = {}

    # -- construction ------------------------------------------------------

    def add_source(self, source: SourceFile) -> None:
        module = module_name_of(source.rel)
        index = _ModuleIndex(module, source)
        self._modules[module] = index
        for node in source.tree.body:
            if isinstance(node, _FUNCTION_NODES):
                key = FuncKey(module, None, node.name)
                self.functions[key] = FunctionInfo(key, node, source)
            elif isinstance(node, ast.ClassDef):
                bases: list[tuple[str, str]] = []
                for base in node.bases:
                    name = dotted_name(base)
                    if name is None:
                        continue
                    resolved = self._resolve_class_ref(index, name)
                    if resolved is not None:
                        bases.append(resolved)
                self._bases[(module, node.name)] = bases
                for item in node.body:
                    if isinstance(item, _FUNCTION_NODES):
                        key = FuncKey(module, node.name, item.name)
                        self.functions[key] = FunctionInfo(key, item, source)

    def _resolve_class_ref(
        self, index: _ModuleIndex, name: str
    ) -> tuple[str, str] | None:
        parts = name.split(".")
        if len(parts) == 1:
            hit = index.imported_symbols.get(parts[0])
            if hit is not None:
                return hit[0], hit[1]
            return index.module, parts[0]
        root = index.module_aliases.get(parts[0])
        if root is not None and len(parts) == 2:
            return root, parts[1]
        return None

    def link(self) -> None:
        """Resolve every call edge; call once after all sources are added."""
        for info in self.functions.values():
            index = self._modules[info.key.module]
            calls, live_calls = info.source.calls_in(info.node)
            live = set(map(id, live_calls))
            for node in calls:
                callee = self._resolve_call(node, info.key, index)
                if callee is not None:
                    info.calls.append((node, callee))
                    if id(node) in live:
                        info.live_calls.append(callee)

    def _method_key(self, module: str, cls: str, name: str) -> FuncKey | None:
        """Look ``name`` up on ``cls``, walking same-set base classes."""
        seen: set[tuple[str, str]] = set()
        queue = [(module, cls)]
        while queue:
            mod, klass = queue.pop(0)
            if (mod, klass) in seen:
                continue
            seen.add((mod, klass))
            key = FuncKey(mod, klass, name)
            if key in self.functions:
                return key
            queue.extend(self._bases.get((mod, klass), ()))
        return None

    def _resolve_call(
        self, node: ast.Call, caller: FuncKey, index: _ModuleIndex
    ) -> FuncKey | None:
        name = dotted_name(node.func)
        if name is None:
            return None
        parts = name.split(".")
        # self.m(...) / cls.m(...) inside a method.
        if parts[0] in ("self", "cls") and caller.cls is not None:
            if len(parts) == 2:
                return self._method_key(caller.module, caller.cls, parts[1])
            return None
        if len(parts) == 1:
            # Bare call: same-module function, or an imported symbol.
            key = FuncKey(caller.module, None, parts[0])
            if key in self.functions:
                return key
            hit = index.imported_symbols.get(parts[0])
            if hit is not None:
                key = FuncKey(hit[0], None, hit[1])
                if key in self.functions:
                    return key
            return None
        # alias.func(...) through the import table (``mod.sub.func`` keeps
        # the full dotted module in the alias map for ``import a.b``).
        root = index.module_aliases.get(parts[0])
        if root is not None:
            if len(parts) == 2:
                key = FuncKey(root, None, parts[1])
                return key if key in self.functions else None
            # import a.b; a.b.func() -> alias map has "a" -> "a".
            module = ".".join([root] + parts[1:-1])
            key = FuncKey(module, None, parts[-1])
            return key if key in self.functions else None
        hit = index.imported_symbols.get(parts[0])
        if hit is not None and len(parts) == 2:
            # ``from repro.obs import stages`` then ``stages.current()``.
            key = FuncKey(f"{hit[0]}.{hit[1]}", None, parts[1])
            return key if key in self.functions else None
        return None

    # -- queries -----------------------------------------------------------

    def resolve_in_body(
        self, caller: FuncKey, region: ast.AST
    ) -> Iterator[tuple[ast.Call, FuncKey]]:
        """The resolved calls of ``caller`` whose call node sits inside
        ``region`` (an AST node within the caller's body)."""
        info = self.functions.get(caller)
        if info is None:
            return
        region_nodes = set(map(id, ast.walk(region)))
        for node, callee in info.calls:
            if id(node) in region_nodes:
                yield node, callee

    def _distances(
        self, blocking: frozenset[str]
    ) -> tuple[dict[FuncKey, int], dict[FuncKey, str]]:
        """``function -> min frames to reach a blocking call`` (1 = a call
        in its own body), computed once per name-set by reverse BFS."""
        cached = self._distance_cache.get(blocking)
        if cached is not None:
            return cached, self._direct_cache[blocking]
        direct: dict[FuncKey, str] = {}
        for key, info in self.functions.items():
            for node in info.source.calls_in(info.node)[1]:
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] in blocking:
                    direct[key] = name.split(".")[-1]
                    break
        reverse: dict[FuncKey, list[FuncKey]] = {}
        for key, info in self.functions.items():
            for callee in info.live_calls:
                reverse.setdefault(callee, []).append(key)
        distance = {key: 1 for key in direct}
        frontier = list(direct)
        while frontier:
            nxt: list[FuncKey] = []
            for key in frontier:
                for caller in reverse.get(key, ()):
                    if caller not in distance:
                        distance[caller] = distance[key] + 1
                        nxt.append(caller)
            frontier = nxt
        self._distance_cache[blocking] = distance
        self._direct_cache[blocking] = direct
        return distance, direct

    def find_blocking(
        self,
        key: FuncKey,
        blocking: frozenset[str],
        *,
        max_depth: int,
    ) -> tuple[tuple[str, ...], FuncKey] | None:
        """Shortest chain from ``key``'s body to a call whose last dotted
        segment is in ``blocking`` — or ``None``.

        Returns ``(chain, terminal)``: the chain is ``(label, ...,
        "name()")`` — the resolved frames walked through, then the
        blocking call itself — and ``terminal`` is the function whose own
        body makes that call (``key`` itself when it blocks directly).
        ``max_depth`` bounds the closure (1 = only ``key``'s own body).
        """
        distance, direct = self._distances(blocking)
        if key not in distance or distance[key] > max_depth:
            return None
        chain: list[str] = []
        current = key
        while current not in direct:
            info = self.functions[current]
            current = min(
                (c for c in info.live_calls if c in distance),
                key=lambda c: distance[c],
            )
            chain.append(current.label())
        chain.append(f"{direct[current]}()")
        return tuple(chain), current

    def key_for(
        self, source: SourceFile, cls: str | None, name: str
    ) -> FuncKey:
        return FuncKey(module_name_of(source.rel), cls, name)


def build_callgraph(sources: Iterable[SourceFile]) -> CallGraph:
    graph = CallGraph()
    for source in sources:
        graph.add_source(source)
    graph.link()
    return graph


def callgraph_for(ctx: Context) -> CallGraph:
    """The run-wide graph, built once and cached on the context."""
    graph = ctx.state.get("callgraph")
    if not isinstance(graph, CallGraph):
        graph = build_callgraph(ctx.files)
        ctx.state["callgraph"] = graph
    return graph
