"""lock-discipline / double-lock: what happens inside the critical sections.

DESIGN.md §11: the scheduler lock covers the state transition and the
in-memory event-log append, *nothing else* — journal durability, fsync,
metric observation and resume callbacks all run after release.  Two rules
hold that line:

- **lock-discipline** — inside a syntactic ``with *_lock:`` block in the
  scheduler runtime/journal/daemon modules, calling into a configured
  blocking/effectful set (``fsync``, ``flush``, socket ops,
  ``wait_durable``, user callbacks) is a finding.

- **double-lock** — the PR-4 ``paused_containers()`` bug class: a method
  of a lock-owning class that either enters its own critical section
  twice (two snapshots; a transition can slip between them) or filters a
  snapshot returned by a lock-taking method *outside* the lock, re-reading
  guarded record state after release.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import (
    Context,
    Finding,
    Rule,
    SourceFile,
    dotted_name,
    walk_shallow,
)

__all__ = ["DoubleLockRule", "LockDisciplineRule"]

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def lock_attr_of(expr: ast.AST) -> tuple[str | None, str] | None:
    """``(receiver, attr)`` when ``expr`` reads a lock-ish attribute
    (``lock`` / ``*_lock``); receiver is the root name or ``None``."""
    if not isinstance(expr, ast.Attribute):
        return None
    attr = expr.attr
    if attr != "lock" and not attr.endswith("_lock"):
        return None
    receiver = expr.value.id if isinstance(expr.value, ast.Name) else None
    return receiver, attr


def lock_withitems(node: ast.With) -> list[tuple[str | None, str]]:
    """The lock attributes a ``with`` statement acquires."""
    locks = []
    for item in node.items:
        found = lock_attr_of(item.context_expr)
        if found is not None:
            locks.append(found)
    return locks


class LockDisciplineRule(Rule):
    id = "lock-discipline"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        cfg = ctx.config
        if not source.matches(cfg.lock_module_suffixes):
            return
        from repro.analysis.callgraph import callgraph_for

        graph = callgraph_for(ctx)
        blocking = frozenset(cfg.lock_blocking_calls)
        for cls_name, func, node in _withs_with_owners(source.tree):
            locks = [
                (recv, attr)
                for recv, attr in lock_withitems(node)
                if attr not in cfg.lock_io_exempt_attrs
            ]
            if not locks:
                continue
            held = ", ".join(
                attr if recv is None else f"{recv}.{attr}" for recv, attr in locks
            )
            owner_key = (
                graph.key_for(source, cls_name, func) if func is not None else None
            )
            for stmt in node.body:
                # Nested defs are skipped: a closure built under the lock
                # runs later, outside it.
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for child in walk_shallow(stmt):
                    if not isinstance(child, ast.Call):
                        continue
                    name = dotted_name(child.func)
                    if name is None:
                        continue
                    last = name.split(".")[-1]
                    if last in cfg.lock_blocking_calls:
                        yield source.finding(
                            self.id, child,
                            f"{last}() inside `with {held}:` — blocking/"
                            "effectful work must run after the lock is "
                            "released (DESIGN.md §11)",
                        )
                        continue
                    if name in cfg.lock_callback_names:
                        yield source.finding(
                            self.id, child,
                            f"user callback {name}() invoked while holding "
                            f"{held}; callbacks are delivered post-release",
                        )
                        continue
                    # Transitive: does the called function reach a blocking
                    # call within the bounded call-graph closure?
                    if owner_key is None:
                        continue
                    for call_node, callee in graph.resolve_in_body(
                        owner_key, child
                    ):
                        if call_node is not child:
                            continue
                        hit = graph.find_blocking(
                            callee, blocking,
                            max_depth=ctx.config.callgraph_max_depth,
                        )
                        if hit is None:
                            continue
                        chain, _terminal = hit
                        route = " -> ".join((callee.label(),) + chain[:-1])
                        yield source.finding(
                            self.id, child,
                            f"{chain[-1]} is reachable inside `with {held}:` "
                            f"via {route} — blocking/effectful work must run "
                            "after the lock is released (DESIGN.md §11)",
                        )


def _withs_with_owners(
    tree: ast.Module,
) -> Iterable[tuple[str | None, str | None, ast.With]]:
    """Every ``with`` statement, tagged with its enclosing top-level
    class/function (closures report their enclosing method — calls are
    resolved in that method's namespace)."""

    def walk(node: ast.AST, cls: str | None, func: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name if func is None else cls, func)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, cls, child.name if func is None else func)
            else:
                if isinstance(child, ast.With):
                    yield cls, func, child
                yield from walk(child, cls, func)

    return walk(tree, None, None)



class DoubleLockRule(Rule):
    id = "double-lock"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        if not source.matches(ctx.config.lock_module_suffixes):
            return
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node, ctx)

    def _check_class(
        self, source: SourceFile, cls: ast.ClassDef, ctx: Context
    ) -> Iterable[Finding]:
        # I/O-serialization locks (the journal's ``_io_lock``) are exempt:
        # their multi-region use is the writer/compactor handshake, not
        # the snapshot-tearing bug this rule exists for.
        lock_attrs = _own_lock_attrs(cls) - set(ctx.config.lock_io_exempt_attrs)
        if not lock_attrs:
            return
        acquiring, acquiring_props = _acquiring_members(cls, lock_attrs)
        if not acquiring and not lock_attrs:
            return
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            regions: list[ast.AST] = []
            snapshot_filters: list[ast.AST] = []
            _scan(
                method, False, lock_attrs, acquiring, acquiring_props,
                regions, snapshot_filters,
            )
            for comp in snapshot_filters:
                yield source.finding(
                    self.id, comp,
                    f"{cls.name}.{method.name} filters a snapshot from a "
                    "lock-taking method outside the lock; a concurrent "
                    "transition can change the records between the read and "
                    "the filter — take one consistent snapshot under a "
                    "single acquisition",
                )
            if len(regions) >= 2:
                yield source.finding(
                    self.id, method,
                    f"{cls.name}.{method.name} enters its critical section "
                    f"{len(regions)} times; state read in one acquisition "
                    "can change before the next — merge into one",
                )


def _own_lock_attrs(cls: ast.ClassDef) -> set[str]:
    """``self.X`` attributes assigned a ``threading.Lock``/``RLock``.

    Conditions are excluded: multi-region condition use (wait/notify
    handshakes) is the normal shape, not the snapshot-tearing bug.
    """
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        ctor = dotted_name(node.value.func) or ""
        if ctor.split(".")[-1] not in ("Lock", "RLock"):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


def _acquiring_members(
    cls: ast.ClassDef, lock_attrs: set[str]
) -> tuple[set[str], set[str]]:
    """Names of methods (and the subset that are properties) whose body
    directly takes one of the class's own locks."""
    acquiring: set[str] = set()
    properties: set[str] = set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        takes_lock = any(
            isinstance(node, ast.With)
            and any(
                recv == "self" and attr in lock_attrs
                for recv, attr in lock_withitems(node)
            )
            for node in ast.walk(method)
        )
        if not takes_lock:
            continue
        acquiring.add(method.name)
        if any(
            (dotted_name(dec) or "").split(".")[-1] == "property"
            for dec in method.decorator_list
        ):
            properties.add(method.name)
    return acquiring, properties


def _scan(
    node: ast.AST,
    under_lock: bool,
    lock_attrs: set[str],
    acquiring: set[str],
    acquiring_props: set[str],
    regions: list[ast.AST],
    snapshot_filters: list[ast.AST],
) -> None:
    """Count separate critical-section entries in one method body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        entered = under_lock
        if isinstance(child, ast.With) and any(
            recv == "self" and attr in lock_attrs
            for recv, attr in lock_withitems(child)
        ):
            if not under_lock:
                regions.append(child)
            entered = True
        elif not under_lock and isinstance(child, ast.Call):
            callee = child.func
            if (
                isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
                and callee.attr in acquiring
            ):
                regions.append(child)
        elif (
            not under_lock
            and isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
            and child.attr in acquiring_props
            and isinstance(child.ctx, ast.Load)
        ):
            regions.append(child)
        if not under_lock and isinstance(child, _COMPREHENSIONS):
            for gen in child.generators:
                it = gen.iter
                if (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and isinstance(it.func.value, ast.Name)
                    and it.func.value.id == "self"
                    and it.func.attr in acquiring
                    and gen.ifs
                ):
                    snapshot_filters.append(child)
        _scan(
            child, entered, lock_attrs, acquiring, acquiring_props,
            regions, snapshot_filters,
        )
