"""loop-blocking: the selector thread must never block — transitively.

DESIGN.md §10: one I/O thread multiplexes every listener and connection;
anything that can stall it — a sleep, a join, an unbounded queue put, a
blocking socket call — stalls *every* container at once.  This rule keeps
an explicit entry-point list (the ``IoLoop`` methods that run on the
selector thread, plus the ``op`` closures posted to it) and checks every
function *transitively reachable* from an entry through the
whole-program call graph (``repro.analysis.callgraph``), bounded by
``LintConfig.callgraph_max_depth``.  "This handler eventually calls
``fsync`` three frames down" is a finding, not a blind spot.

Findings are reported **at the blocking call site** (which may be frames
away from the entry, in another module), with the reachability chain in
the message — so the inline suppression that documents a deliberate
blocking point sits exactly where the blocking happens.  The loop has a
few such *deliberate* points (the backpressure ``Queue.put``, the one
``recv`` per readiness event); those carry ``loop-blocking``
suppressions with their reasons, which doubles as documentation.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.callgraph import CallGraph, FuncKey, callgraph_for
from repro.analysis.core import Context, Finding, Rule, SourceFile, dotted_name

__all__ = ["LoopBlockingRule", "terminal_blocking_site"]


def terminal_blocking_site(
    graph: CallGraph, key: FuncKey, blocking: frozenset[str]
) -> tuple[SourceFile, ast.Call] | None:
    """The (source, call node) of ``key``'s first direct blocking call."""
    info = graph.functions.get(key)
    if info is None:
        return None
    for node in info.source.calls_in(info.node)[1]:
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in blocking:
            return info.source, node
    return None


class LoopBlockingRule(Rule):
    id = "loop-blocking"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        cfg = ctx.config
        for suffix, classes in cfg.loop_entry_points.items():
            if not source.matches((suffix,)):
                continue
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef) and node.name in classes:
                    yield from self._dedupe(
                        self._check_class(source, ctx, node, classes[node.name])
                    )

    @staticmethod
    def _dedupe(findings: Iterable[Finding]) -> Iterator[Finding]:
        # Several entries reaching the same blocking call produce one
        # finding (the first chain found) at that site.
        seen: set[tuple[str, int, int]] = set()
        for finding in findings:
            at = (finding.path, finding.line, finding.col)
            if at not in seen:
                seen.add(at)
                yield finding

    def _check_class(
        self,
        source: SourceFile,
        ctx: Context,
        cls: ast.ClassDef,
        entry_names: tuple[str, ...],
    ) -> Iterable[Finding]:
        cfg = ctx.config
        graph = callgraph_for(ctx)
        blocking = frozenset(cfg.loop_blocking_calls)
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        # Entry regions: (display name, owning method for call resolution,
        # the AST region that runs on the selector thread).
        entries: list[tuple[str, str, ast.AST]] = [
            (name, name, methods[name]) for name in entry_names if name in methods
        ]
        for method in methods.values():
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name in cfg.loop_closure_names
                ):
                    entries.append((f"{method.name}.<{node.name}>", method.name, node))
        for entry_name, owner, region in entries:
            owner_key = graph.key_for(source, cls.name, owner)
            live_calls = source.calls_in(region)[1]
            live = set(map(id, live_calls))
            # Direct blocking calls in the entry region itself.
            for node in live_calls:
                called = dotted_name(node.func)
                if called is None:
                    continue
                if called.split(".")[-1] in blocking:
                    yield source.finding(
                        self.id, node,
                        f"{called.split('.')[-1]}() can block the selector "
                        f"thread (reachable via {cls.name}.{entry_name}); one "
                        "stalled call stalls every connection (DESIGN.md §10)",
                    )
            # Transitive: resolved calls out of the region whose callee
            # reaches a blocking call within the depth bound.
            for node, callee in graph.resolve_in_body(owner_key, region):
                if id(node) not in live:
                    continue
                hit = graph.find_blocking(
                    callee, blocking, max_depth=cfg.callgraph_max_depth
                )
                if hit is None:
                    continue
                chain, terminal = hit
                site = terminal_blocking_site(graph, terminal, blocking)
                full_chain = " -> ".join(
                    (f"{cls.name}.{entry_name}", callee.label()) + chain[:-1]
                )
                message = (
                    f"{chain[-1]} can block the selector thread "
                    f"(reachable via {full_chain}); one stalled call stalls "
                    "every connection (DESIGN.md §10)"
                )
                if site is None:
                    yield source.finding(self.id, node, message)
                else:
                    term_source, term_node = site
                    yield term_source.finding(self.id, term_node, message)
