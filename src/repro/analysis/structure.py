"""state-escape: nothing mutable leaks out of the pure transition core.

The pure transition core (DESIGN.md §11) is only safe to call under the
runtime's lock because nothing mutable leaks out of it: a method
returning ``self._containers`` (or a live ``.values()`` view of it) hands
callers a reference that keeps mutating after the lock is released — the
snapshot-tearing bug class one level deeper than ``double-lock`` can see.
This rule flags every ``return``/``yield`` of a bare mutable-container
attribute, or of a live dict view over one, from the configured pure
modules.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Context, Finding, Rule, SourceFile, dotted_name

__all__ = ["StateEscapeRule"]

_MUTABLE_CTORS = {"dict", "list", "set", "defaultdict", "deque", "OrderedDict"}
_LIVE_VIEWS = {"values", "keys", "items"}


def _mutable_attrs(cls: ast.ClassDef) -> set[str]:
    """``self.X`` attributes assigned a mutable container literal/ctor."""
    attrs: set[str] = set()
    for node in ast.walk(cls):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                                     ast.SetComp, ast.DictComp))
        if not mutable and isinstance(value, ast.Call):
            ctor = (dotted_name(value.func) or "").split(".")[-1]
            mutable = ctor in _MUTABLE_CTORS
        if not mutable:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


class StateEscapeRule(Rule):
    id = "state-escape"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        if not source.matches(ctx.config.pure_module_suffixes):
            return
        for cls in source.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            mutables = _mutable_attrs(cls)
            if not mutables:
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                for node in ast.walk(method):
                    if isinstance(node, ast.Return):
                        escaped = node.value
                    elif isinstance(node, ast.Yield):
                        escaped = node.value
                    else:
                        continue
                    leak = self._leaking_attr(escaped, mutables)
                    if leak is None:
                        continue
                    attr, how = leak
                    yield source.finding(
                        self.id, node,
                        f"{cls.name}.{method.name} {how} of mutable state "
                        f"attribute self.{attr}; callers outside the lock "
                        "see concurrent mutation — return a copy "
                        "(tuple/list/dict) instead (DESIGN.md §11)",
                    )

    @staticmethod
    def _leaking_attr(
        node: ast.expr | None, mutables: set[str]
    ) -> tuple[str, str] | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in mutables
        ):
            return node.attr, "returns a live reference"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIVE_VIEWS
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "self"
            and node.func.value.attr in mutables
        ):
            return node.func.value.attr, f"returns a live .{node.func.attr}() view"
        return None
