"""Observability hygiene: metric names and exception swallowing.

- **metric-drift** — every metric name used at a call site must be
  declared exactly once against the process-global ``REGISTRY``
  (duplicate declarations shadow each other's help text/kind; a by-name
  ``REGISTRY.get("...")`` of an undeclared metric returns nothing to
  scrape).  Declared names must also follow the ``convgpu_*`` convention
  the dashboards key on.

- **bare-except** — a bare ``except:`` catches everything including
  ``IpcDisconnected`` and ``KeyboardInterrupt``; always name the type.

- **swallowed-exception** — in the IPC/wrapper/daemon modules (where
  ``IpcDisconnected`` flies), a broad ``except Exception`` whose body
  does nothing silently eats connectivity errors the retry layer is
  supposed to see.  Deliberate swallows carry an inline suppression with
  the reason.

- **event-drift** — the flight recorder's analogue of metric-drift:
  every event type must be declared exactly once via
  ``RECORDER.declare("subsystem.verb", ...)`` (a duplicate declaration
  either shadows the first or raises at import, depending on fields);
  declared names must follow the dotted ``subsystem.verb`` convention
  dumps and ``repro doctor`` key on; payload slots must be the record's
  actual ``s``/``a``/``b``/``c``/``x`` slots; and ``.record()`` must
  take a declared tag, never a string literal (a string would decode as
  an unknown tag at dump time — the runtime half of this check is the
  dump's ``unknown_tags`` counter).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.core import Context, Finding, Rule, SourceFile, dotted_name

__all__ = [
    "BareExceptRule",
    "EventDriftRule",
    "MetricDriftRule",
    "SwallowedExceptionRule",
]

_DECL_METHODS = frozenset({"counter", "gauge", "histogram"})
_EVENT_SLOTS = frozenset({"s", "a", "b", "c", "x"})
_BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _is_registry(node: ast.AST, names: frozenset[str]) -> bool:
    """``REGISTRY`` or ``<module>.REGISTRY`` (any configured name)."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in names
    return False


class MetricDriftRule(Rule):
    id = "metric-drift"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        cfg = ctx.config
        pattern = re.compile(cfg.metric_name_pattern)
        decls = ctx.state.setdefault("metrics.decls", {})
        uses = ctx.state.setdefault("metrics.uses", [])
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not _is_registry(func.value, cfg.metric_registry_names):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            name = first.value
            if func.attr in _DECL_METHODS:
                decls.setdefault(name, []).append((source, node))
                if pattern.fullmatch(name) is None:
                    yield source.finding(
                        self.id, first,
                        f"metric name {name!r} does not match the "
                        f"`{cfg.metric_name_pattern}` convention",
                    )
            elif func.attr == "get":
                uses.append((name, source, node))
        return

    def finalize(self, ctx: Context) -> Iterable[Finding]:
        decls: dict = ctx.state.get("metrics.decls", {})
        for name, sites in decls.items():
            for source, node in sites[1:]:
                first_source, first_node = sites[0]
                yield source.finding(
                    self.id, node,
                    f"metric {name!r} is declared more than once (first at "
                    f"{first_source.rel}:{first_node.lineno}); declare each "
                    "family exactly once and share the handle",
                )
        for name, source, node in ctx.state.get("metrics.uses", []):
            if name not in decls:
                yield source.finding(
                    self.id, node,
                    f"metric {name!r} is looked up by name but never "
                    "declared against the registry",
                )


class EventDriftRule(Rule):
    id = "event-drift"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        cfg = ctx.config
        pattern = re.compile(cfg.event_name_pattern)
        decls = ctx.state.setdefault("events.decls", {})
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not _is_registry(func.value, cfg.event_registry_names):
                continue
            if func.attr == "declare":
                if not node.args:
                    continue
                first = node.args[0]
                if not (
                    isinstance(first, ast.Constant) and isinstance(first.value, str)
                ):
                    continue
                name = first.value
                decls.setdefault(name, []).append((source, node))
                if pattern.fullmatch(name) is None:
                    yield source.finding(
                        self.id, first,
                        f"flight event name {name!r} does not match the "
                        f"`{cfg.event_name_pattern}` convention "
                        "(dotted subsystem.verb)",
                    )
                for keyword in node.keywords:
                    if keyword.arg is not None and keyword.arg not in _EVENT_SLOTS:
                        yield source.finding(
                            self.id, keyword.value,
                            f"flight event {name!r} labels unknown payload "
                            f"slot {keyword.arg!r}; valid slots are "
                            "s (string), a/b/c (ints) and x (float)",
                        )
            elif func.attr == "record" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    yield source.finding(
                        self.id, first,
                        "record() takes the integer tag returned by "
                        "declare(), not an event name; a raw string decodes "
                        "as an unknown tag at dump time",
                    )
        return

    def finalize(self, ctx: Context) -> Iterable[Finding]:
        decls: dict = ctx.state.get("events.decls", {})
        for name, sites in decls.items():
            for source, node in sites[1:]:
                first_source, first_node = sites[0]
                yield source.finding(
                    self.id, node,
                    f"flight event {name!r} is declared more than once "
                    f"(first at {first_source.rel}:{first_node.lineno}); "
                    "declare each event type exactly once and share the tag",
                )


class BareExceptRule(Rule):
    id = "bare-except"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield source.finding(
                    self.id, node,
                    "bare `except:` swallows everything, including "
                    "IpcDisconnected and KeyboardInterrupt; name the "
                    "exception type",
                )


class SwallowedExceptionRule(Rule):
    id = "swallowed-exception"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        if not source.matches(ctx.config.except_module_suffixes):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node.type):
                continue
            if _body_is_silent(node.body):
                yield source.finding(
                    self.id, node,
                    "broad except silently swallows exceptions (including "
                    "IpcDisconnected) in an IPC path; handle, log, or "
                    "narrow the type",
                )


def _is_broad(type_node: ast.AST | None) -> bool:
    if type_node is None:
        return False  # bare-except reports that one
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(elt) for elt in type_node.elts)
    name = dotted_name(type_node)
    return name is not None and name.split(".")[-1] in _BROAD_TYPES


def _body_is_silent(body: list[ast.stmt]) -> bool:
    """True when the handler neither acts on nor re-raises the error."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Return) and (
            stmt.value is None or isinstance(stmt.value, ast.Constant)
        ):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring/ellipsis
        return False
    return True
