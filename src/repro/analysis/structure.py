"""state-escape / thread-spawn: structural concurrency invariants.

- **state-escape** — the pure transition core (DESIGN.md §11) is only
  safe to call under the runtime's lock because nothing mutable leaks
  out of it: a method returning ``self._containers`` (or a live
  ``.values()`` view of it) hands callers a reference that keeps
  mutating after the lock is released — the snapshot-tearing bug class
  one level deeper than ``double-lock`` can see.  This rule flags every
  ``return``/``yield`` of a bare mutable-container attribute, or of a
  live dict view over one, from the configured pure modules.

- **thread-spawn** — every ``threading.Thread(...)`` in the tree must
  name a target declared in DESIGN.md §16's declared-threads table (the
  block between the ``declared-threads:begin/end`` markers).  The
  sanitizer's thread model, the loop-blocking entry-point list and the
  lock-order reasoning all assume the set of long-lived threads is
  closed and documented; an undeclared spawn is a hole in all three.
  The check is bidirectional: a declared row whose module is analyzed
  but spawns no such thread is a stale declaration.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable

from repro.analysis.core import Context, Finding, Rule, SourceFile, dotted_name

__all__ = ["StateEscapeRule", "ThreadSpawnRule"]

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


#: One declared row: ``| name | `path/suffix.py` | `target` | purpose |``
_ROW_RE = re.compile(r"`([^`]+\.py)`\s*\|\s*`([^`]+)`")
_BEGIN = "<!-- declared-threads:begin -->"
_END = "<!-- declared-threads:end -->"


def _load_declared(
    root: str, doc_path: str
) -> tuple[list[tuple[str, str, int]], str | None]:
    """Parse the declared-threads table: ``(path suffix, target, line)``
    rows plus the doc's repo-relative path — or an error string."""
    path = doc_path if os.path.isabs(doc_path) else os.path.join(root, doc_path)
    if not os.path.exists(path):
        return [], f"declared-threads doc {doc_path} not found"
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if _BEGIN not in text or _END not in text:
        return [], (
            f"{doc_path} has no {_BEGIN} / {_END} markers around the "
            "declared-threads table"
        )
    rows: list[tuple[str, str, int]] = []
    inside = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _BEGIN in line:
            inside = True
            continue
        if _END in line:
            break
        if not inside or not line.lstrip().startswith("|"):
            continue
        match = _ROW_RE.search(line)
        if match is not None:
            rows.append((match.group(1), match.group(2), lineno))
    return rows, None


def _spawn_target(node: ast.Call) -> str:
    for kw in node.keywords:
        if kw.arg == "target":
            name = dotted_name(kw.value)
            if name is not None:
                return name.split(".")[-1]
            if isinstance(kw.value, ast.Lambda):
                return "<lambda>"
            return "<dynamic>"
    return "<none>"


class ThreadSpawnRule(Rule):
    id = "thread-spawn"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        spawns = ctx.state.setdefault(self.id, [])
        from_imported = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "threading"
            and any(alias.name == "Thread" for alias in node.names)
            for node in ast.walk(source.tree)
        )
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            is_spawn = name == "threading.Thread" or (
                name == "Thread" and from_imported
            )
            if is_spawn:
                spawns.append((source, node, _spawn_target(node)))
        return ()

    def finalize(self, ctx: Context) -> Iterable[Finding]:
        doc_path = ctx.config.threads_doc_path
        if doc_path is None:
            return
        spawns = ctx.state.get(self.id, [])
        declared, error = _load_declared(ctx.root or ".", doc_path)
        if error is not None:
            if spawns:
                source, node, _target = spawns[0]
                yield source.finding(
                    self.id, node,
                    f"cannot check thread spawns: {error} (every "
                    "threading.Thread target must be declared; DESIGN.md §16)",
                )
            return
        used_rows: set[int] = set()
        for source, node, target in spawns:
            matched = False
            for suffix, decl_target, lineno in declared:
                if decl_target == target and source.matches((suffix,)):
                    used_rows.add(lineno)
                    matched = True
            if not matched:
                yield source.finding(
                    self.id, node,
                    f"Thread target {target!r} in {source.rel} is not in "
                    f"the declared-threads table ({doc_path}); the "
                    "concurrency model assumes a closed, documented set "
                    "of threads (DESIGN.md §16)",
                )
        analyzed = list(ctx.files)
        for suffix, decl_target, lineno in declared:
            if lineno in used_rows:
                continue
            if any(source.matches((suffix,)) for source in analyzed):
                yield Finding(
                    path=doc_path.replace(os.sep, "/"),
                    line=lineno,
                    col=1,
                    rule=self.id,
                    message=(
                        f"declared thread {decl_target!r} in {suffix} "
                        "matches no spawn in the analyzed tree — stale "
                        "declaration (DESIGN.md §16)"
                    ),
                )
