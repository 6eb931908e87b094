"""lock-order: the static acquisition graph must stay acyclic.

The journal documents its ordering contract ("scheduler lock, then
``_cond`` — never the reverse"); ``MultiGpuScheduler`` adds a placement
lock next to the per-device scheduler locks.  This rule extracts every
*syntactic* nested acquisition — ``with a: ... with b:`` and ``with a:
... self.m()`` where ``m`` directly takes a lock — into a graph whose
nodes are ``ClassName.attr``, then fails on any cycle.  Cross-object
receivers (``scheduler._lock`` inside the journal) resolve through
``LintConfig.lock_class_aliases``.

Static extraction is deliberately one level deep: it cannot see
acquisitions behind dynamic dispatch (the event-log listener path), but
it pins the documented edges and catches the easy-to-write reversal —
someone adding ``with self._cond: ... with scheduler._lock:`` to the
writer thread.

Locks named in ``LintConfig.lock_leaf_attrs`` are declared **leaf**: any
edge *out* of one — acquiring anything else while it is held — is a
finding on its own, cycle or not: a lock consulted from another
component's critical section must not order itself against that
component's locks, an inversion the cycle check could only see once both
halves are written.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Context, Finding, Rule, SourceFile
from repro.analysis.locks import lock_withitems

__all__ = ["LockOrderRule"]

#: Condition variables take part in ordering even though the discipline
#: rules ignore them.
_ORDER_ATTR_SUFFIXES = ("_lock", "_cond")


def _order_withitems(node: ast.With) -> list[tuple[str | None, str]]:
    locks = list(lock_withitems(node))
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr.endswith("_cond"):
            receiver = expr.value.id if isinstance(expr.value, ast.Name) else None
            locks.append((receiver, expr.attr))
    return locks


class LockOrderRule(Rule):
    id = "lock-order"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        if not source.matches(ctx.config.lock_module_suffixes):
            return ()
        state = ctx.state.setdefault(self.id, {"edges": []})
        aliases = ctx.config.lock_class_aliases
        direct = _direct_nodes_by_method(source.tree)
        for cls_name, func in _functions(source.tree):
            _collect_edges(
                func, cls_name, aliases, direct, source, state["edges"]
            )
        return ()

    def finalize(self, ctx: Context) -> Iterable[Finding]:
        state = ctx.state.get(self.id)
        if not state:
            return
        leaf_attrs = getattr(ctx.config, "lock_leaf_attrs", frozenset())
        graph: dict[str, dict[str, tuple[SourceFile, ast.AST]]] = {}
        for src, dst, source, node in state["edges"]:
            if src == dst:
                continue  # an RLock re-entering itself is fine
            attr = src.rsplit(".", 1)[-1]
            if attr in leaf_attrs:
                yield source.finding(
                    self.id, node,
                    f"leaf lock {src} held while acquiring {dst} — "
                    f"{attr} is declared a leaf (config.lock_leaf_attrs): "
                    "nothing may be acquired under it",
                )
            graph.setdefault(src, {}).setdefault(dst, (source, node))
        cycle = _find_cycle(graph)
        if cycle is None:
            return
        edge_from, edge_to = cycle[0], cycle[1]
        source, node = graph[edge_from][edge_to]
        yield source.finding(
            self.id, node,
            "lock acquisition graph has a cycle: "
            + " -> ".join(cycle)
            + " — two threads taking these in opposite order deadlock "
            "(journal contract: scheduler lock, then _cond, never reverse)",
        )


def _functions(tree: ast.Module):
    """Yield ``(enclosing class name or None, function)`` pairs."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item
        elif isinstance(node, ast.FunctionDef):
            yield None, node


def _direct_nodes_by_method(tree: ast.Module) -> dict[tuple[str, str], set[str]]:
    """``(class, method) -> lock nodes the method body takes directly``."""
    direct: dict[tuple[str, str], set[str]] = {}
    for cls_name, func in _functions(tree):
        if cls_name is None:
            continue
        nodes: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.With):
                for recv, attr in _order_withitems(node):
                    if recv == "self":
                        nodes.add(f"{cls_name}.{attr}")
        if nodes:
            direct[(cls_name, func.name)] = nodes
    return direct


def _resolve(
    recv: str | None, attr: str, cls_name: str | None, aliases: dict[str, str]
) -> str | None:
    if recv == "self":
        return f"{cls_name}.{attr}" if cls_name else None
    if recv in aliases:
        return f"{aliases[recv]}.{attr}"
    return None


def _collect_edges(
    func: ast.FunctionDef,
    cls_name: str | None,
    aliases: dict[str, str],
    direct: dict[tuple[str, str], set[str]],
    source: SourceFile,
    edges: list,
) -> None:
    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            now_held = held
            if isinstance(child, ast.With):
                acquired = [
                    resolved
                    for recv, attr in _order_withitems(child)
                    if (resolved := _resolve(recv, attr, cls_name, aliases))
                ]
                for lock in acquired:
                    for outer in held:
                        edges.append((outer, lock, source, child))
                now_held = held + tuple(acquired)
            elif held and isinstance(child, ast.Call):
                callee = child.func
                if (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                    and cls_name is not None
                ):
                    for inner in direct.get((cls_name, callee.attr), ()):
                        for outer in held:
                            edges.append((outer, inner, source, child))
            visit(child, now_held)

    visit(func, ())


def _find_cycle(
    graph: dict[str, dict[str, tuple]]
) -> list[str] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for nxt in graph.get(node, ()):
            if color.get(nxt, WHITE) == GRAY:
                return stack[stack.index(nxt):] + [nxt]
            if color.get(nxt, WHITE) == WHITE:
                color.setdefault(nxt, WHITE)
                found = dfs(nxt)
                if found is not None:
                    return found
        color[node] = BLACK
        stack.pop()
        return None

    for node in list(graph):
        if color.get(node, WHITE) == WHITE:
            found = dfs(node)
            if found is not None:
                return found
    return None
