"""swallowed-exception: a silent broad handler on an IPC path.

In the IPC/wrapper/daemon modules (where ``IpcDisconnected`` flies), a
broad ``except Exception`` whose body does nothing silently eats
connectivity errors the retry layer is supposed to see.  Deliberate
swallows carry an inline suppression with the reason.  (A bare
``except:`` is ruff's E722, which CI selects.)
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Context, Finding, Rule, SourceFile, dotted_name

__all__ = ["SwallowedExceptionRule"]

_BROAD_TYPES = frozenset({"Exception", "BaseException"})


class SwallowedExceptionRule(Rule):
    id = "swallowed-exception"

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        if not source.matches(ctx.config.except_module_suffixes):
            return
        for node in source.nodes:
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
        return False  # a bare except: is ruff's E722
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
