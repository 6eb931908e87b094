"""Findings, parsed sources, suppressions and the rule contract.

The engine hands every rule a :class:`SourceFile` (path + text + AST +
suppression map) and a shared :class:`Context`; rules yield
:class:`Finding` objects.  Everything here is rule-agnostic — the
invariants themselves live in the sibling rule modules.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.config import LintConfig

__all__ = [
    "Context",
    "Finding",
    "Rule",
    "SourceFile",
    "apply_suppressions",
    "dotted_name",
    "walk_shallow",
]

#: ``# reprolint: ignore[rule-a,rule-b] -- optional reason``
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*ignore\[([^\]]*)\](?:\s*--\s*(\S.*))?")

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # repo-root-relative, "/"-separated
    line: int
    col: int
    rule: str
    message: str
    #: Stripped source line the finding sits on.
    snippet: str = ""

    def located(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class SourceFile:
    """One parsed module plus its per-line suppression map."""

    def __init__(self, path: str, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        #: line number -> rule ids suppressed there ("*" = all).
        self.suppressions: dict[int, set[str]] = {}
        #: lines whose suppression carries no ``-- reason`` string.
        self.unreasoned: set[int] = set()
        for lineno, comment in _comments(text):
            match = _SUPPRESS_RE.search(comment)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            self.suppressions[lineno] = rules or {"*"}
            if match.group(2) is None:
                self.unreasoned.add(lineno)

    def matches(self, suffixes: Iterable[str]) -> bool:
        return any(self.rel.endswith(suffix) or f"/{suffix}" in f"/{self.rel}"
                   for suffix in suffixes)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.rel,
            line=lineno,
            col=col + 1,
            rule=rule,
            message=message,
            snippet=self.line_text(lineno),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        """Suppressions apply on the finding's line or anywhere in the
        contiguous comment block directly above it (reasons may wrap)."""
        if self._matches_suppression(finding.line, finding.rule):
            return True
        lineno = finding.line - 1
        while lineno >= 1 and self.line_text(lineno).startswith("#"):
            if self._matches_suppression(lineno, finding.rule):
                return True
            lineno -= 1
        return False

    def _matches_suppression(self, lineno: int, rule: str) -> bool:
        rules = self.suppressions.get(lineno)
        return rules is not None and ("*" in rules or rule in rules)


@dataclass
class Context:
    """Shared run state: config, repo root, every parsed file."""

    config: "LintConfig"
    root: str
    files: list[SourceFile] = field(default_factory=list)
    #: Scratch space for project-wide rules (keyed by rule id).
    state: dict[str, object] = field(default_factory=dict)

    def file_for(self, rel: str) -> SourceFile | None:
        for source in self.files:
            if source.rel == rel:
                return source
        return None


class Rule:
    """One invariant.  Subclasses set ``id`` and override either hook."""

    id = ""

    def check_file(self, source: SourceFile, ctx: Context) -> Iterable[Finding]:
        """Per-file pass; called once per analyzed module."""
        return ()

    def finalize(self, ctx: Context) -> Iterable[Finding]:
        """Project-wide pass; called once after every file was checked."""
        return ()


# ---------------------------------------------------------------------------
# AST helpers shared by the rules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_shallow(node: ast.AST, *, skip_functions: bool = True) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree without descending into nested function
    bodies — code in a nested ``def``/``lambda`` does not run where it is
    written, so it must not count against the enclosing region."""
    for child in ast.iter_child_nodes(node):
        if skip_functions and isinstance(child, _FUNCTION_NODES):
            continue
        yield child
        yield from walk_shallow(child, skip_functions=skip_functions)


def apply_suppressions(
    findings: Iterable[Finding],
    root: str,
    parsed: Sequence[SourceFile] = (),
) -> tuple[list[Finding], int]:
    """Split findings into (kept, suppressed count) by the inline
    suppressions at each finding's site.  Files not in ``parsed`` are
    read from ``root``; one that cannot be read or parsed suppresses
    nothing."""
    sources: dict[str, SourceFile | None] = {s.rel: s for s in parsed}
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        if finding.path not in sources:
            sources[finding.path] = _read_source(root, finding.path)
        source = sources[finding.path]
        if source is not None and source.is_suppressed(finding):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def _read_source(root: str, rel: str) -> SourceFile | None:
    path = os.path.join(root, rel)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return SourceFile(path, rel, fh.read())
    except (OSError, SyntaxError, ValueError):
        return None


def _comments(text: str) -> Iterator[tuple[int, str]]:
    """``(line, text)`` of every ``#`` comment token: a suppression
    spelled inside a string literal is data, not a comment."""
    if "reprolint" not in text:
        return
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string
